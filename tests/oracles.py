"""Independent brute-force oracles and instance generators for the test suite.

The oracles deliberately avoid the library's exact kernel: they walk outcomes
one by one with plain Python arithmetic, in floats or in exact rationals.
"""

import itertools
from fractions import Fraction

import numpy as np

from prodtv import FiniteProductPair


def tv_bernoulli_brute(p, q):
    """TV by direct summation over all bit vectors."""
    p = [float(x) for x in p]
    q = [float(x) for x in q]
    total = 0.0
    for bits in itertools.product((0, 1), repeat=len(p)):
        mass_p = mass_q = 1.0
        for bit, pi, qi in zip(bits, p, q):
            mass_p *= pi if bit else 1.0 - pi
            mass_q *= qi if bit else 1.0 - qi
        total += abs(mass_p - mass_q)
    return 0.5 * total


def tv_general_brute(p_rows, q_rows):
    """TV by direct summation over the full mixed-radix outcome space."""
    supports = [range(len(row)) for row in p_rows]
    total = 0.0
    for outcome in itertools.product(*supports):
        mass_p = mass_q = 1.0
        for i, state in enumerate(outcome):
            mass_p *= float(p_rows[i][state])
            mass_q *= float(q_rows[i][state])
        total += abs(mass_p - mass_q)
    return 0.5 * total


def _tv_rational(p_rows, q_rows):
    joints = []
    for rows in (p_rows, q_rows):
        joint = [Fraction(1)]
        for row in rows:
            joint = [mass * prefix for mass in row for prefix in joint]
        joints.append(joint)
    return sum(abs(a - b) for a, b in zip(*joints)) / 2


def tv_fraction(p_rows, q_rows):
    """Exact rational TV of general rows, each float read as the rational it stores."""
    def exact(rows):
        return [[Fraction(float(x)) for x in row] for row in rows]
    return _tv_rational(exact(p_rows), exact(q_rows))


def tv_fraction_bernoulli(p, q):
    """Exact rational TV of a Bernoulli pair, with exact complements 1 - p."""
    def exact(params):
        return [[1 - Fraction(float(x)), Fraction(float(x))] for x in params]
    return _tv_rational(exact(p), exact(q))


def joint_masses(rows):
    """Full joint mass vector of a product distribution (naive outer product)."""
    joint = np.ones(1)
    for row in rows:
        joint = np.outer(joint, np.asarray(row, dtype=float)).reshape(-1)
    return joint


def random_bernoulli_pair(rng, n_max):
    n = int(rng.integers(1, n_max + 1))
    return rng.random(n), rng.random(n)


def random_product_pair(rng, n_max=6, support_max=4, zero_prob=0.15):
    """A random general pair; occasionally zeroes a state to exercise support gaps."""
    n = int(rng.integers(1, n_max + 1))
    p_side, q_side = [], []
    for _ in range(n):
        k = int(rng.integers(2, support_max + 1))
        pm = rng.random(k)
        qm = rng.random(k)
        if rng.random() < zero_prob:
            pm[int(rng.integers(k))] = 0.0
        if rng.random() < zero_prob:
            qm[int(rng.integers(k))] = 0.0
        if pm.sum() == 0.0:
            pm[0] = 1.0
        if qm.sum() == 0.0:
            qm[0] = 1.0
        p_side.append(pm / pm.sum())
        q_side.append(qm / qm.sum())
    return FiniteProductPair(tuple(p_side), tuple(q_side))
