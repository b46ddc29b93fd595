"""Reference values computed by the benchmark itself, independent of prodtv.

``fraction_tv`` is exact rational arithmetic; the float helpers are plain
enumerations and binomial sums used where an exact rational sum would be too
slow but the check tolerance is far wider than float rounding (Monte Carlo
intervals, bracket containment).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def fraction_tv(p_rows, q_rows) -> Fraction:
    """Exact TV of two finite product distributions, as a Fraction.

    Each row is one coordinate's masses; rows are renormalized exactly, so
    the oracle describes the distribution the given floats define.
    """
    joint_p = [Fraction(1)]
    joint_q = [Fraction(1)]
    for row_p, row_q in zip(p_rows, q_rows):
        fp = [Fraction(float(x)) for x in row_p]
        fq = [Fraction(float(x)) for x in row_q]
        tp, tq = sum(fp), sum(fq)
        fp = [x / tp for x in fp]
        fq = [x / tq for x in fq]
        joint_p = [a * m for m in fp for a in joint_p]
        joint_q = [a * m for m in fq for a in joint_q]
    return sum(abs(a - b) for a, b in zip(joint_p, joint_q)) / 2


def fraction_tv_bernoulli(p, q) -> Fraction:
    """Exact TV of two Bernoulli products; 1 - p is exact, not rounded."""
    joint_p = [Fraction(1)]
    joint_q = [Fraction(1)]
    for x, y in zip(p, q):
        fx, fy = Fraction(float(x)), Fraction(float(y))
        joint_p = [a * (1 - fx) for a in joint_p] + [a * fx for a in joint_p]
        joint_q = [a * (1 - fy) for a in joint_q] + [a * fy for a in joint_q]
    return sum(abs(a - b) for a, b in zip(joint_p, joint_q)) / 2


def float_tv_bernoulli(p, q) -> float:
    """TV of two Bernoulli products by full float enumeration (n <= 20)."""
    joint_p = np.ones(1)
    joint_q = np.ones(1)
    for x, y in zip(p, q):
        joint_p = np.concatenate((joint_p * (1.0 - x), joint_p * x))
        joint_q = np.concatenate((joint_q * (1.0 - y), joint_q * y))
    return 0.5 * float(np.abs(joint_p - joint_q).sum())


def _log_binomial_pmf(m: int, k: int, x: float) -> float:
    if x == 0.0:
        return 0.0 if k == 0 else -math.inf
    if x == 1.0:
        return 0.0 if k == m else -math.inf
    return (math.lgamma(m + 1) - math.lgamma(k + 1) - math.lgamma(m - k + 1)
            + k * math.log(x) + (m - k) * math.log1p(-x))


def float_tv_constant(m: int, x: float, y: float) -> float:
    """TV of Ber(x)^m against Ber(y)^m through the binomial counts."""
    total = 0.0
    for k in range(m + 1):
        total += abs(math.exp(_log_binomial_pmf(m, k, x)) - math.exp(_log_binomial_pmf(m, k, y)))
    return 0.5 * total
