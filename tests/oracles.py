"""Independent brute-force oracles and instance generators for the test suite.

The oracles deliberately avoid the library's exact kernel: they walk outcomes
one by one with plain Python arithmetic, in floats or in exact rationals.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.special import gammaln, xlog1py, xlogy

from prodtv import FiniteDist, FiniteProductPair, MarginalTV, scheffe_reduce
from prodtv.bounds import (
    SYMMETRIC_TOLERANCE,
    _rel_entr,
    hellinger_bracket,
    kl_bracket,
    l2_lower_bound,
    symmetric_affinity_upper_bound,
    symmetric_l2_upper_bound,
    trivial_bracket,
)
from prodtv.core import _MC_BATCH, _WINDOW_NATS, _bernstein_window


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


def sign_sum_loop(weights, pattern):
    """sum_i eps_i w_i for the sign pattern whose bit i is 1 where eps_i = +1,
    each term added to the running sum from 0.0, in coordinate order."""
    total = 0.0
    for i, w in enumerate(weights):
        total = (w if pattern >> i & 1 else -w) + total
    return total


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


def loop_reference(p_rows, q_rows):
    """Marginal TV, Scheffe reduction and Hellinger and KL brackets, one coordinate
    at a time in plain Python loops, each row normalized as a FiniteDist. Each
    row's KL terms come from the library's _rel_entr on that row alone, so the
    loops check the array form's padding, row sums and fold; the terms
    themselves are checked against mpmath in test_bounds.py."""
    p_rows = [FiniteDist(row).masses for row in p_rows]
    q_rows = [FiniteDist(row).masses for row in q_rows]
    deltas, red_p, red_q, witnesses = [], [], [], []
    affinity, kl, p_min, q_min = 1.0, 0.0, 1.0, 1.0
    for dp, dq in zip(p_rows, q_rows):
        deltas.append(min(1.0, 0.5 * float(np.abs(dp - dq).sum())))
        favored = np.flatnonzero(dp > dq)
        red_p.append(float(dp[favored].sum()))
        red_q.append(float(dq[favored].sum()))
        witnesses.append(tuple(int(i) for i in favored))
        diff = np.sqrt(dp) - np.sqrt(dq)
        affinity *= 1.0 - 0.5 * float((diff * diff).sum())
        kl += float(_rel_entr(dp, dq).sum())
        p_min *= float(dp.min())
        q_min *= float(dq.min())
    h_sq = 2.0 * (1.0 - affinity)
    hellinger = (0.5 * h_sq, np.sqrt(h_sq) * np.sqrt(max(0.0, 1.0 - 0.25 * h_sq)))
    if np.isinf(kl):
        kl_pair = (None, 1.0)
    elif not 0.0 < p_min < 0.5:
        kl_pair = (None, min(1.0, np.sqrt(0.5 * kl)))
    else:
        kl_pair = (kl / (2.0 * np.log(1.0 / min(p_min, q_min))), min(1.0, np.sqrt(0.5 * kl)))
    return {"deltas": deltas, "p": np.clip(red_p, 0.0, 1.0), "q": np.clip(red_q, 0.0, 1.0),
            "witness_sets": tuple(witnesses), "hellinger": hellinger, "kl": kl_pair}


def kl_mpmath(p_masses, q_masses, dps=50):
    """(KL, S) of two (n, k) mass arrays, in mpmath at ``dps`` digits, each float
    read as the number it stores: KL is the sum of x log(x/y) over all entries
    (0 where x = 0, inf where y = 0 < x) and S the sum of their absolute values."""
    import mpmath

    with mpmath.workdps(dps):
        kl = scale = mpmath.mpf(0)
        for x, y in zip(np.ravel(p_masses).tolist(), np.ravel(q_masses).tolist()):
            if x == 0.0:
                continue
            if y == 0.0:
                return mpmath.inf, mpmath.inf
            term = mpmath.mpf(x) * (mpmath.log(mpmath.mpf(x)) - mpmath.log(mpmath.mpf(y)))
            kl += term
            scale += abs(term)
        return kl, scale


def kl_error_bound(n, k_max, scale):
    """kl_bracket's documented bound on the computed KL of an n-coordinate pair
    with rows of k_max states, whose terms' absolute values sum to ``scale``."""
    return (n + k_max + 24) * 2.0 ** -53 * float(scale) + n * k_max * 2.0 ** -1074


def channel_matrix_reference(p, q):
    """The rows of the symmetrizing channel for one Bernoulli pair, in scalar floats.

    For p < q both inputs are relabelled (u -> 1-u) and the rows swapped; one
    row is deterministic, which one depends on the sign of p + q - 1.
    """
    p, q = float(p), float(q)
    if p < q:
        return channel_matrix_reference(1.0 - p, 1.0 - q)[::-1].copy()
    s = p + q
    if s <= 1.0:
        top = (1.0, 0.0)
        off = s / (2.0 * (2.0 - s))
        bottom = (0.5 - off, 0.5 + off)
    else:
        off = (2.0 - s) / (2.0 * s)
        top = (0.5 + off, 0.5 - off)
        bottom = (0.0, 1.0)
    return np.array([top, bottom])


def binomial_pmf_reference(n, prob, lo=0, hi=None):
    """Binomial(n, prob) masses at every k in lo..hi (default 0..n), taken in
    log space with per-count gammaln, xlogy and xlog1py calls."""
    k = np.arange(lo, n + 1 if hi is None else hi + 1, dtype=np.float64)
    log_coeff = gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
    with np.errstate(divide="ignore"):
        log_pmf = log_coeff + xlogy(k, prob) + xlog1py(n - k, -prob)
    return np.exp(log_pmf)


def binomial_row_loop(n, prob):
    """Binomial(n, prob) masses at every k in 0..n relative to the mode, by a
    plain loop: 1.0 at m = floor((n + 1) prob) cut to [0, n], then each count
    outward is the last times (n - k)/(k + 1) * odds upward or
    k/(n - k + 1) / odds downward, odds = prob / (1 - prob). These are the
    float operations of _binomial_rows, one at a time; a mass of 0.0 stays 0.0."""
    odds = math.inf if prob == 1.0 else prob / (1.0 - prob)
    mode = min(max(math.floor((n + 1) * prob), 0), n)
    row = np.zeros(n + 1)
    row[mode] = mass = 1.0
    for k in range(mode, n):
        mass *= (n - k) / (k + 1.0) * odds
        if mass == 0.0:
            break
        row[k + 1] = mass
    mass = 1.0
    for k in range(mode, 0, -1):
        mass *= k / (n - k + 1.0) / odds
        if mass == 0.0:
            break
        row[k - 1] = mass
    return row


def _binomial_tail(n, prob, k, mp):
    """P(K >= k) for K ~ Binomial(n, prob), prob an mpf in (0, 1), in mpmath.

    The sum runs from k away from the mean, where the terms fall, until they
    no longer change the working precision; the other tail is 1 minus it.
    """
    upper = k > n * prob
    j = k if upper else k - 1
    ratio = prob / (1 - prob)
    term = mp.exp(mp.loggamma(n + 1) - mp.loggamma(j + 1) - mp.loggamma(n - j + 1)
                  + j * mp.log(prob) + (n - j) * mp.log1p(-prob))
    total = mp.mpf(0)
    while 0 <= j <= n:
        total += term
        previous = term
        if upper:
            term *= ratio * (n - j) / (j + 1)
            j += 1
        else:
            term *= j / (ratio * (n - j + 1))
            j -= 1
        if term < previous and term < total * mp.eps:
            break
    return total if upper else 1 - total


def equal_marginals_mpmath(n, p, q, dps=50):
    """TV of Binomial(n, p) and Binomial(n, q) at the floats p and q, in
    mpmath: the tails of each at the first count k* where P outweighs Q.

    For p > q the likelihood ratio grows with k, so TV = P(K >= k*) -
    Q(K >= k*), and the pair is symmetric in p and q.
    """
    import mpmath

    with mpmath.workdps(dps):
        p, q = max(float(p), float(q)), min(float(p), float(q))
        if p == q:
            return mpmath.mpf(0)
        p, q = mpmath.mpf(p), mpmath.mpf(q)
        if q == 0:
            first = 1
        elif p == 1:
            first = n
        else:
            up, down = mpmath.log(p / q), mpmath.log((1 - q) / (1 - p))
            first = int(mpmath.floor(n * down / (up + down))) + 1

        def tail(prob):
            if prob in (0, 1):  # K is 0 or n, and 1 <= k* <= n
                return prob
            return _binomial_tail(n, prob, first, mpmath)

        return +(tail(p) - tail(q))


def binomial_row_bound(width):
    """The documented per-row bound of exact_tv_equal_marginals: the l1
    distance of a normalized _binomial_rows row of ``width`` masses from the
    binomial normalized on the window."""
    return (10 * width + math.log2(width) + 30) * 2.0 ** -53 + width * 2.0 ** -1020


def equal_marginals_error_bound(n, p, q):
    """The documented bound on |exact_tv_equal_marginals(n, p, q) - TV|: the
    kernel's one-coordinate term, relative, at its largest (TV = 1), the
    truncation and the mass rounding."""
    lo, hi = _bernstein_window(n, p, q)
    width = hi - lo + 1
    kernel = (math.ceil(math.log2(width)) + 1) * 2.0 ** -53
    truncation = 6.0 * math.exp(-_WINDOW_NATS)
    return kernel + truncation + 2 * binomial_row_bound(width)


# The documented relative error bounds of extremal._gap_scalars.
GAP_TV_PQ_BOUND = 4 * 2.0 ** -53
GAP_RATIO_LOWER_BOUND = 7 * 2.0 ** -53


def gap_tv_pq_mpmath(n, dps=30):
    """TV of (1/n, ..., 1/n) against 0 at integer n, 1 - (1 - 1/n)**n, in
    mpmath as the power itself: 1/n carries dps + len(str(n)) digits, so the
    n-th power of 1 - 1/n keeps about dps of them."""
    import mpmath

    with mpmath.workdps(dps + len(str(n))):
        return 1 - (1 - mpmath.mpf(1) / n) ** n


def binomial_row_l1_mpmath(n, prob, lo, row, dps=30):
    """The l1 distance, in mpmath, of ``row``, masses at the counts lo,
    lo + 1, ..., from the Binomial(n, prob) pmf at the float prob.

    The pmf is taken on prob's own Bernstein reach (``_bernstein_window(n,
    prob, prob)``): log-gamma values give its first count, and each next one
    is the last times the exact ratio (n - k) prob / ((k + 1) (1 - prob)), at
    ``dps`` digits and with no underflow. Outside the reach, where the pmf
    sums to at most 2 exp(-L), each mass is compared with 0, so the result
    exceeds the row's true l1 distance by at most 2 exp(-L).
    """
    import mpmath

    with mpmath.workdps(dps):
        reach_lo, reach_hi = _bernstein_window(n, prob, prob)
        s = mpmath.mpf(prob)
        pmf = {}
        if s in (0, 1):
            pmf[n * int(s)] = mpmath.mpf(1)
        else:
            k = reach_lo
            term = mpmath.exp(mpmath.loggamma(n + 1) - mpmath.loggamma(k + 1)
                              - mpmath.loggamma(n - k + 1) + k * mpmath.log(s)
                              + (n - k) * mpmath.log1p(-s))
            odds = s / (1 - s)
            for k in range(reach_lo, reach_hi + 1):
                pmf[k] = term
                term *= odds * (n - k) / (k + 1)
        inside = slice(max(reach_lo - lo, 0), max(reach_hi + 1 - lo, 0))
        outside = math.fsum(row[:inside.start]) + math.fsum(row[inside.stop:])
        return outside + mpmath.fsum(abs(mass - pmf.get(k, 0)) for k, mass in
                                     enumerate(row[inside].tolist(), start=lo + inside.start))


def scan_reference(values):
    """Inclusive prefix sums by a Hillis-Steele scan: round k adds the value 2**k
    places back."""
    out = np.array(values, dtype=np.float64)
    step = 1
    while step < out.size:
        out[step:] = out[step:] + out[:-step]
        step *= 2
    return out


def half_reference(p_rows, q_rows):
    """A half's joint masses in mixed-radix order, the last coordinate the most
    significant digit, each outcome's product taken first coordinate first
    (m_k (... (m_2 m_1))); outcomes null on both sides are dropped. Each
    outcome is gathered from its digits rather than built up block by block."""
    shape = [len(row) for row in reversed(p_rows)]
    size = math.prod(shape)
    digits = np.unravel_index(np.arange(size), shape)[::-1] if shape else ()
    mass_p, mass_q = np.ones(size), np.ones(size)
    for p_row, q_row, state in zip(p_rows, q_rows, digits):
        mass_p = np.asarray(p_row)[state] * mass_p
        mass_q = np.asarray(q_row)[state] * mass_q
    kept = (mass_p > 0.0) | (mass_q > 0.0)
    return mass_p[kept], mass_q[kept]


def exact_kernel_reference(p_rows, q_rows):
    """The meet-in-the-middle kernel with its own halves, half B ordered by the
    stable argsort, half A searched in block order, and the total read off
    the full scan. A half A of one outcome takes Scheffe's sum instead: the
    terms (P_a P_b - Q_a Q_b)+ in B's block order, totalled by the scan."""
    log_sizes = np.concatenate(([0.0], np.cumsum([math.log2(len(r)) for r in p_rows])))
    split = int(np.argmin(np.abs(2.0 * log_sizes - log_sizes[-1])))
    mass_pa, mass_qa = half_reference(p_rows[:split], q_rows[:split])
    mass_pb, mass_qb = half_reference(p_rows[split:], q_rows[split:])
    if mass_pa.size == 1:
        terms = np.maximum(0.0, mass_pa[0] * mass_pb - mass_qa[0] * mass_qb)
        return min(1.0, float(scan_reference(terms)[-1]))
    with np.errstate(divide="ignore"):
        ratio_b = np.log(mass_pb) - np.log(mass_qb)
        threshold_a = np.log(mass_qa) - np.log(mass_pa)
    order = np.argsort(ratio_b, kind="stable")
    tail_p = np.append(scan_reference(mass_pb[order][::-1])[::-1], 0.0)
    tail_q = np.append(scan_reference(mass_qb[order][::-1])[::-1], 0.0)
    first = np.searchsorted(ratio_b[order], threshold_a, side="right")
    terms = np.maximum(0.0, mass_pa * tail_p[first] - mass_qa * tail_q[first])
    return min(1.0, float(scan_reference(terms)[-1]))


def mc_product_reference(p, q, samples, seed=0):
    """Monte Carlo TV value in product form: the same draws as
    ``mc_tv_estimate``, each term max(0, 1 - prod of per-coordinate q/p ratios)."""
    pa, qa = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio_one = np.where(pa > 0.0, qa / pa, 0.0)
        ratio_zero = np.where(pa < 1.0, (1.0 - qa) / (1.0 - pa), 0.0)
    rng = np.random.default_rng(int(seed))
    total = 0.0
    done = 0
    while done < samples:
        m = min(_MC_BATCH, samples - done)
        ones = rng.random((m, pa.size)) < pa
        ratios = np.where(ones, ratio_one, ratio_zero).prod(axis=1)
        total += float(np.maximum(0.0, 1.0 - ratios).sum())
        done += m
    return min(1.0, total / samples)


def mc_estimate_reference(p, q, samples, seed=0):
    """The value of ``mc_tv_estimate`` with each uniform drawn by
    ``Generator.random`` and compared with p_i as a double."""
    pa, qa = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratios = np.stack([np.where(pa < 1.0, np.log1p(-qa) - np.log1p(-pa), 0.0),
                               np.where(pa > 0.0, np.log(qa) - np.log(pa), 0.0)], axis=1)
    rng = np.random.default_rng(int(seed))
    batch_sums = []
    done = 0
    while done < samples:
        m = min(_MC_BATCH, samples - done)
        bits = np.ascontiguousarray((rng.random((m, pa.size)) < pa).T).view(np.uint8)
        llr = np.zeros(m)
        for coord_bits, coord_ratios in zip(bits, log_ratios):
            llr += coord_ratios.take(coord_bits)
        terms = -np.expm1(np.minimum(llr, 0.0))
        batch_sums.append(float(terms.sum()))
        done += m
    return float(scan_reference(batch_sums)[-1]) / samples + 0.0


def bounds_report_reference(pair):
    """The fields of ``bounds_report`` (delta as its deltas, no reduction), with
    identical sides on a branch of their own: there the Hellinger, KL and
    symmetric families take fixed values instead of reading the active pair."""
    red = scheffe_reduce(pair)
    delta = MarginalTV(red.p.params - red.q.params)
    hellinger, kl, symmetric = (0.0, 0.0), (None, 0.0), (0.0, 0.0)
    active = red.favored.any(axis=1)
    if active.any():
        p_active, q_active = red.p.params[active], red.q.params[active]
        sub = pair if active.all() else pair._take(active)
        hellinger, kl = hellinger_bracket(sub), kl_bracket(sub)
        symmetric = (None, None)
        if np.all(pair.support_sizes[active] <= 2) and np.all(
                np.abs(q_active - (1.0 - p_active)) <= SYMMETRIC_TOLERANCE):
            symmetric = (symmetric_l2_upper_bound(p_active),
                         symmetric_affinity_upper_bound(p_active))
    trivial = trivial_bracket(delta)
    lowers = {"trivial": trivial[0], "l2": l2_lower_bound(delta),
              "hellinger": hellinger[0], "kl": kl[0]}
    uppers = {"trivial": trivial[1], "hellinger": hellinger[1], "pinsker": kl[1],
              "symmetric": symmetric[0], "affinity": symmetric[1]}
    fields = {f"lower_{name}": value for name, value in lowers.items()}
    fields.update((f"upper_{name}", value) for name, value in uppers.items())
    lowers = {name: value for name, value in lowers.items() if value is not None}
    uppers = {name: value for name, value in uppers.items() if value is not None}
    best_lower_source = max(lowers, key=lowers.get)
    best_upper_source = min(uppers, key=uppers.get)
    fields.update(
        best_lower=min(1.0, max(0.0, lowers[best_lower_source])),
        best_lower_source=best_lower_source,
        best_upper=min(1.0, max(0.0, uppers[best_upper_source])),
        best_upper_source=best_upper_source,
    )
    return delta.deltas, fields


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
