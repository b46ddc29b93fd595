"""Symmetrization of Bernoulli product pairs via per-coordinate binary channels.

A pair (Ber(p), Ber(q)) is mapped coordinate-wise to the symmetric pair
(Ber(1/2 + g/2), Ber(1/2 - g/2)) with g = |p-q| / (1 + |p+q-1|). The map is a
genuine randomized binary channel, so the joint TV never increases, while the
per-coordinate gap shrinks by at most a factor of 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import InvalidDistributionError, ProbVector, _matched_params, _unchecked

__all__ = ["SymmetrizedPair", "Channel2x2", "symmetrize", "channel_matrix",
           "apply_channel_product"]

ROW_SUM_TOLERANCE = 1e-12


@dataclass(frozen=True, eq=False)
class SymmetrizedPair:
    """The symmetric image (gamma, 1/2 + gamma/2, 1/2 - gamma/2) of a pair."""

    gamma_hat: np.ndarray
    p_hat: ProbVector
    q_hat: ProbVector


def _valid_stack(rows) -> np.ndarray:
    """Check a stack of 2x2 channels at once; errors name the first bad channel."""
    stack = np.asarray(rows, dtype=np.float64)
    if stack.shape[1:] != (2, 2):
        raise InvalidDistributionError(f"rows must be 2x2, got shape {stack.shape[1:]}")
    outside = ((stack < 0.0) | (stack > 1.0)).any(axis=(1, 2))
    if outside.any():
        raise InvalidDistributionError(
            f"channel entries outside [0, 1]: {stack[outside][0]!r}")
    sums = stack.sum(axis=2)
    off = ~(np.abs(sums - 1.0) <= ROW_SUM_TOLERANCE).all(axis=1)
    if off.any():
        raise InvalidDistributionError(f"channel rows sum to {sums[off][0]!r}, not 1")
    return stack


@dataclass(frozen=True, eq=False)
class Channel2x2:
    """A row-stochastic 2x2 transition matrix on {0, 1}.

    Row 0 gives the output law for input 1, row 1 for input 0; column 0 is the
    probability of output 1 (distribution vectors are read as (mass at 1,
    mass at 0)).
    """

    rows: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rows", _valid_stack([self.rows])[0])

    def push_prob_one(self, prob_one: float) -> float:
        """Mass at 1 after sending Ber(prob_one) through the channel."""
        return prob_one * self.rows[0, 0] + (1.0 - prob_one) * self.rows[1, 0]


def _channel_rows(pa: np.ndarray, qa: np.ndarray) -> np.ndarray:
    """The (n, 2, 2) rows of ``channel_matrix`` for all coordinates at once.

    Where p < q, the inputs are relabelled (u -> 1 - u) and the rows swapped.
    One row is deterministic: (1, 0) on top for p + q <= 1, else (0, 1) below.
    The other is (1/2 + c, 1/2 - c); c carries the branch's sign, and negating
    a quotient is exact, so each entry rounds as in a one-branch formula.
    """
    swap = pa < qa
    s = np.where(swap, 1.0 - pa, pa) + np.where(swap, 1.0 - qa, qa)
    low = s <= 1.0
    with np.errstate(divide="ignore", over="ignore"):  # only in the branch not taken
        c = np.where(low, -s / (2.0 * (2.0 - s)), (2.0 - s) / (2.0 * s))
    mixed = np.stack((0.5 + c, 0.5 - c), axis=1)
    low = low[:, None]
    rows = np.stack((np.where(low, (1.0, 0.0), mixed), np.where(low, mixed, (0.0, 1.0))),
                    axis=1)
    rows[swap] = rows[swap, ::-1]
    return rows


def symmetrize(p, q) -> SymmetrizedPair:
    """Symmetrize a Bernoulli pair coordinate-wise.

    gamma = |p-q| / (1 + |p+q-1|) is well defined for p = q (gamma = 0) and
    satisfies gamma >= |p-q| / 2.
    """
    pa, qa = _matched_params(p, q)
    gamma = np.abs(pa - qa) / (1.0 + np.abs(pa + qa - 1.0))
    half = 0.5 * gamma
    return SymmetrizedPair(
        gamma_hat=gamma,
        p_hat=ProbVector(0.5 + half),
        q_hat=ProbVector(0.5 - half),
    )


def channel_matrix(p: float, q: float) -> Channel2x2:
    """The binary channel sending Ber(p) to Ber(1/2+g/2) and Ber(q) to Ber(1/2-g/2).

    The ratio g/(p-q) simplifies to 1/(1 + |p+q-1|), which is also its
    continuous limit at p = q; that form is used so the matrix is defined on
    the whole unit square. p and q are read as ``ProbVector`` reads them, with
    its 1e-12 slack; the matrix is the one-coordinate case of the (n, 2, 2)
    array that ``apply_channel_product`` builds.
    """
    (rows,) = _channel_rows(*_matched_params(p, q))
    return Channel2x2(rows)


def apply_channel_product(pair_p, pair_q) -> tuple:
    """Symmetrize a pair and return the per-coordinate channels realizing it.

    The channels are the rows of one (n, 2, 2) array, validated once.
    """
    pa, qa = _matched_params(pair_p, pair_q)
    channels = _valid_stack(_channel_rows(pa, qa))
    return symmetrize(pa, qa), tuple(_unchecked(Channel2x2, rows=rows) for rows in channels)
