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

from .core import (ProbVector, _check_budget, _l2_norm, _positive_int, _product_block,
                   _unchecked, exact_tv_equal_marginals)

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
# The longest float64 array numpy can index: its byte size must fit an intp.
_MAX_DOUBLES = np.iinfo(np.intp).max // np.dtype(np.float64).itemsize


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
        with np.errstate(over="ignore"):  # an overflow is reported below
            scale = _l2_norm(arr)
        if not 0.0 < scale < math.inf:
            raise ValueError(f"the weights' l2 norm overflows or underflows, to {scale!r}")
        if threshold / scale == 0.0:
            raise ValueError(f"threshold {threshold!r} / l2 norm {scale!r} underflows to 0")
        object.__setattr__(self, "weights", arr / scale)
        object.__setattr__(self, "threshold", threshold / scale)

    @property
    def n(self) -> int:
        return self.weights.size


def _gap_scalars(n: int) -> tuple:
    """(tv_pq, tv_pq_prime_upper, ratio_lower) of the gap construction.

    tv_pq = TV(p, q) = 1 - (1 - 1/n)**n is evaluated as -expm1(y) with
    y = n log1p(-1/n), and is 1.0 at n = 1. The symmetric pair's TV is
    reported through its upper bound n**-0.5. No n-length vector is built.

    Error bound, with u = 2**-53 and libm's log1p, expm1 and pow each within
    one ulp. For n >= 2, y lies in [-log 4, -1). Rounding 1/n, log1p's ulp
    and the product's rounding put the computed y within
    (n/(n-1) + 2|y| + 1) u of y. expm1 scales that by e^y and adds one ulp
    of a result in (1 - 1/e, 3/4]. Relative to tv_pq = 1 - e^y, the sum grows
    with n towards (4/e + 1) u / (1 - 1/e) = 3.91 u, so tv_pq is within
    4 * 2**-53 of TV(p, q), relatively, for n <= 2**1022, where 1/n is
    normal; past 2**53, rounding n to a float moves TV(p, q) by under u/n.
    ratio_lower adds pow's 2u and the division's u: 7 * 2**-53. The power
    form (1 - 1/n)**n was 1.6e-8 off at n = 10**9 and 0.0 at n = 2 * 10**16.
    """
    n = _positive_int(n, "n")
    tv_pq = 1.0 if n == 1 else -math.expm1(n * math.log1p(-1.0 / n))
    tv_pq_prime_upper = n ** -0.5
    return tv_pq, tv_pq_prime_upper, tv_pq / tv_pq_prime_upper


def gap_instance(n: int) -> GapInstance:
    """Build the gap construction for a given dimension.

    Besides the four parameter vectors it carries the scalars of
    ``_gap_scalars``, tv_pq by its closed form -expm1(n log1p(-1/n)) within
    4 * 2**-53; callers that need only those (``prodtv gap`` and ``prodtv
    sweep``) read them there.

    Memory: O(1) at any n. Each parameter vector is a read-only view of one
    double broadcast to length n, with the values of ``np.full(n, value)``;
    the values lie in [0, 1] by construction and are not validated again.
    numpy indexes no array of doubles past n = 2**60 - 1 on a 64-bit host
    (n * 8 bytes must fit an intp), so a larger n raises ValueError naming n.
    """
    n = _positive_int(n, "n")
    if n > _MAX_DOUBLES:
        raise ValueError(f"n = {n} is too large for gap_instance: a numpy array "
                         f"holds at most {_MAX_DOUBLES} doubles")
    inv = 1.0 / n
    p, q, p_prime, q_prime = (
        _unchecked(ProbVector, params=np.broadcast_to(np.float64(value), (n,)))
        for value in (inv, 0.0, 0.5 + 0.5 * inv, 0.5 - 0.5 * inv))
    return GapInstance(n, p, q, p_prime, q_prime, *_gap_scalars(n))


def gap_ratio_exact(n: int) -> float:
    """Exact TV ratio of the two gap pairs, TV(p, q) / TV(p', q'): tv_pq of
    ``_gap_scalars`` (-expm1(n log1p(-1/n)), within 4 * 2**-53, relatively)
    over ``exact_tv_equal_marginals`` of the symmetric pair, the one kernel
    call. The symmetric pair's window holds about 9 sqrt(n) counts, which
    must fit the default enumeration budget: past n near 5.6e13 the call
    raises EnumerationBudgetError before any row is built. Past about 10**34
    the window rounds to one count past 2**53, and the call raises
    ValueError naming n (the pair's parameters are one double from 2**54)."""
    tv_pq, tv_pq_prime = _exact_gap_tvs(n)
    return tv_pq / tv_pq_prime


def _exact_gap_tvs(n: int) -> tuple:
    """(tv_pq, tv_pq_prime_exact): tv_pq of ``_gap_scalars`` and the symmetric
    pair's TV by ``exact_tv_equal_marginals`` of (1/2 + 1/(2n), 1/2 - 1/(2n)),
    whose errors are those of ``gap_ratio_exact``."""
    n = _positive_int(n, "n")
    return _gap_scalars(n)[0], exact_tv_equal_marginals(n, 0.5 + 0.5 / n, 0.5 - 0.5 / n)


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
    w = instance.weights
    magnitudes = np.abs(_product_block(np.stack((-w, w), axis=1), np.add))
    rhs = float(np.minimum(magnitudes, u).mean())
    return lhs, rhs, lhs / rhs
