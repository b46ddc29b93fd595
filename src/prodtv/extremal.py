"""The sqrt(n) gap construction and a numeric concave sign-sum comparison.

``gap_instance`` builds two Bernoulli pairs with identical marginal l2 norm
whose exact TV distances differ by a factor growing like sqrt(n):
(1/n, ..., 1/n) against 0 has TV at least 1 - 1/e, while the symmetric pair
(1/2 + 1/(2n)) against (1/2 - 1/(2n)) has TV at most 1/sqrt(n).

``lowther_check`` evaluates both sides of the inequality
E f(Z) <= c * E f(Y) for f(t) = min(t, u), Y = |sum_i eps_i a_i| over all
sign patterns, and Z = ||a||_2, where c <= (1/sqrt(2) - 1/4)^-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ProbVector, _check_budget, _l2_norm, _positive_int, exact_tv_equal_marginals

__all__ = [
    "GapInstance",
    "RademacherInstance",
    "LOWTHER_RATIO_BOUND",
    "MAX_SIGN_ENUM_BITS",
    "gap_instance",
    "gap_ratio_exact",
    "lowther_check",
]

LOWTHER_RATIO_BOUND = 1.0 / (1.0 / math.sqrt(2.0) - 0.25)
# Sign-pattern enumeration cap: 2**n patterns.
MAX_SIGN_ENUM_BITS = 20


@dataclass(frozen=True, eq=False)
class GapInstance:
    """The two equal-l2-norm pairs exhibiting the sqrt(n) bracket gap."""

    n: int
    p: ProbVector
    q: ProbVector
    p_prime: ProbVector
    q_prime: ProbVector
    tv_pq: float
    tv_pq_prime_upper: float
    ratio_lower: float


@dataclass(frozen=True, eq=False)
class RademacherInstance:
    """Positive weights with a threshold for the sign-sum comparison.

    Weights are rescaled to unit l2 norm on construction; the threshold is
    rescaled by the same factor, which leaves the comparison ratio unchanged.
    """

    weights: np.ndarray
    threshold: float

    def __post_init__(self):
        arr = np.atleast_1d(np.asarray(self.weights, dtype=np.float64))
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("weights must be a non-empty 1-D vector")
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
            raise ValueError("weights must be positive and finite")
        threshold = float(self.threshold)
        if not math.isfinite(threshold) or threshold <= 0.0:
            raise ValueError(f"threshold must be positive, got {self.threshold!r}")
        scale = _l2_norm(arr)
        object.__setattr__(self, "weights", arr / scale)
        object.__setattr__(self, "threshold", threshold / scale)

    @property
    def n(self) -> int:
        return self.weights.size


def _gap_scalars(n: int) -> tuple:
    """(tv_pq, tv_pq_prime_upper, ratio_lower) of the gap construction.

    tv_pq is the closed form 1 - (1 - 1/n)**n; the symmetric pair's TV is
    reported through its upper bound n**-0.5. No n-length vector is built.
    """
    n = _positive_int(n, "n")
    tv_pq = 1.0 - (1.0 - 1.0 / n) ** n
    tv_pq_prime_upper = n ** -0.5
    return tv_pq, tv_pq_prime_upper, tv_pq / tv_pq_prime_upper


def gap_instance(n: int) -> GapInstance:
    """Build the gap construction for a given dimension.

    Besides the four parameter vectors it carries the scalars of
    ``_gap_scalars``; callers that need only those (``prodtv gap`` and
    ``prodtv sweep``) read them there and build no vector of length n.
    """
    n = _positive_int(n, "n")
    inv = 1.0 / n
    tv_pq, tv_pq_prime_upper, ratio_lower = _gap_scalars(n)
    return GapInstance(
        n=n,
        p=ProbVector(np.full(n, inv)),
        q=ProbVector(np.zeros(n)),
        p_prime=ProbVector(np.full(n, 0.5 + 0.5 * inv)),
        q_prime=ProbVector(np.full(n, 0.5 - 0.5 * inv)),
        tv_pq=tv_pq,
        tv_pq_prime_upper=tv_pq_prime_upper,
        ratio_lower=ratio_lower,
    )


def _gap_exact_tvs(n: int) -> tuple:
    """Exact TVs of the two gap pairs, (TV(p, q), TV(p', q')): both have
    constant coordinates, so the binomial closed form serves any n."""
    n = _positive_int(n, "n")
    inv = 1.0 / n
    return (exact_tv_equal_marginals(n, inv, 0.0),
            exact_tv_equal_marginals(n, 0.5 + 0.5 * inv, 0.5 - 0.5 * inv))


def gap_ratio_exact(n: int) -> float:
    """Exact TV ratio of the two gap pairs, TV(p, q) / TV(p', q')."""
    numerator, denominator = _gap_exact_tvs(n)
    return numerator / denominator


def _sign_sums(weights: np.ndarray) -> np.ndarray:
    sums = np.zeros(1)
    for a in weights:
        sums = np.concatenate((sums - a, sums + a))
    return sums


def lowther_check(instance: RademacherInstance) -> tuple:
    """(lhs, rhs, ratio) of the concave sign-sum comparison.

    lhs = f(Z) for the deterministic Z = ||a||_2 (= 1 after normalization);
    rhs = E f(Y) over all 2**n sign patterns, which must fit the budget
    2**MAX_SIGN_ENUM_BITS (``_check_budget``); ratio = lhs / rhs, bounded by
    LOWTHER_RATIO_BOUND.
    """
    _check_budget([2] * instance.n, MAX_SIGN_ENUM_BITS)
    u = instance.threshold
    z = _l2_norm(instance.weights)
    lhs = min(z, u)
    magnitudes = np.abs(_sign_sums(instance.weights))
    rhs = float(np.minimum(magnitudes, u).mean())
    return lhs, rhs, lhs / rhs
