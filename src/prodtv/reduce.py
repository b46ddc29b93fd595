"""Scheffé reduction: collapse a finite product pair to a Bernoulli pair.

Each coordinate keeps only the indicator of the set where its first marginal
strictly outweighs the second, which preserves every marginal TV distance and
never increases the joint TV.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import FiniteProductPair, ProbVector, _as_pair, _readonly, _row_sums

__all__ = ["ScheffeReduction", "scheffe_reduce"]


@dataclass(frozen=True, eq=False)
class ScheffeReduction:
    """Bernoulli pair equivalent to a product pair, with the favored states.

    ``favored`` is the read-only (n, k_max) boolean mask of the states where
    the first marginal strictly outweighs the second; padding states never
    are. ``p.params[i]`` and ``q.params[i]`` are the two marginals' masses on
    coordinate i's favored set, so p >= q coordinate-wise and p - q equals the
    marginal TV sequence. ``p.params[i] > 0`` exactly when coordinate i has a
    favored state: such a state has P > Q >= 0, a sum of nonnegative doubles
    is at least its largest term, and ProbVector clips only above 1; a row
    with none sums zeros to +0.0.
    ``witness_sets[i]`` lists those states as a tuple of ints; it is built
    from the mask on first use.
    """

    p: ProbVector
    q: ProbVector
    favored: np.ndarray

    @cached_property
    def witness_sets(self) -> tuple:
        return tuple(tuple(np.flatnonzero(row).tolist()) for row in self.favored)


def scheffe_reduce(pair: FiniteProductPair) -> ScheffeReduction:
    """Reduce a product pair to the Bernoulli pair over its witness sets."""
    masses = _as_pair(pair).masses
    favored = _readonly(masses[0] > masses[1])
    p, q = _row_sums(np.where(favored, masses, 0.0))
    return ScheffeReduction(p=ProbVector(p), q=ProbVector(q), favored=favored)
