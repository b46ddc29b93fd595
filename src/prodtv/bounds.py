"""Analytic lower and upper bounds on the TV distance of product distributions.

Lower bounds: the max marginal TV, the l2 tensorization bound with the
universal constant 0.1798, half the squared Hellinger distance, and a
KL-based bound. Upper bounds: the clipped l1 sum, the Hellinger upper arm,
Pinsker, and (for symmetric Bernoulli pairs q = 1-p) the l2 norm of p - q and
a Bhattacharyya-affinity bound. ``bounds_report`` assembles everything that
applies to a given pair into a ``BoundsReport``, whose declared fields are
the one table of bounds: the library's bound dicts, its choice of the best
bounds and the ``prodtv bounds`` output all follow their order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .core import (FiniteProductPair, MarginalTV, ProbVector, _as_pair, _l2_norm, _params,
                   _readonly, _row_sums, _unchecked)
from .reduce import ScheffeReduction, scheffe_reduce

__all__ = [
    "LowerBoundConstants",
    "LOWER_BOUND_CONSTANTS",
    "SYMMETRIC_TOLERANCE",
    "BoundsReport",
    "trivial_bracket",
    "l2_lower_bound",
    "symmetric_l2_upper_bound",
    "symmetric_affinity_upper_bound",
    "hellinger_bracket",
    "kl_bracket",
    "bounds_report",
]

# A symmetric pair must satisfy q = 1 - p to this accuracy per coordinate;
# near-symmetric pairs get no symmetric bound.
SYMMETRIC_TOLERANCE = 1e-12


@dataclass(frozen=True)
class LowerBoundConstants:
    """Constants of the l2 tensorization lower bound and its derivation chain.

    c_final applies to general pairs; c_chain to symmetric pairs (the factor-2
    gap is the symmetrization loss); c_chain is in turn c_concave * c_exp,
    the concave-comparison constant times the constant of
    1 - exp(-x) >= c_exp * min(x, 1/2).
    """

    c_final: float = 0.1798
    c_chain: float = 0.3597
    c_concave: float = 0.4571
    c_exp: float = 2.0 - 2.0 * math.exp(-0.5)


LOWER_BOUND_CONSTANTS = LowerBoundConstants()


def _deltas(delta) -> np.ndarray:
    if isinstance(delta, MarginalTV):
        return delta.deltas
    return MarginalTV(delta).deltas


def trivial_bracket(delta) -> tuple:
    """(max_i delta_i, min(1, sum_i delta_i)) - always valid, gap up to n."""
    d = _deltas(delta)
    return float(np.maximum.reduce(d)), min(1.0, float(np.add.reduce(d)))


def l2_lower_bound(delta) -> float:
    """0.1798 * min(1, ||delta||_2), valid for every product pair."""
    d = _deltas(delta)
    return LOWER_BOUND_CONSTANTS.c_final * min(1.0, _l2_norm(d))


def symmetric_l2_upper_bound(p) -> float:
    """min(1, ||2p - 1||_2): upper bound on TV(Ber(p), Ber(1-p))."""
    pa = _params(p)
    return min(1.0, _l2_norm(2.0 * pa - 1.0))


def symmetric_affinity_upper_bound(p) -> float:
    """Affinity upper bound on TV(Ber(p), Ber(1-p)).

    1 - prod_i 2*sqrt(p_i(1-p_i)) * exp(-sqrt(sum_i log^2(p_i/(1-p_i))) / 2);
    exact at n = 1. Degenerates to 1 when any p_i is 0 or 1.
    """
    pa = _params(p)
    if np.count_nonzero((pa == 0.0) | (pa == 1.0)):
        return 1.0
    log_ratios = np.log(pa / (1.0 - pa))
    affinity = float(np.multiply.reduce(2.0 * np.sqrt(pa * (1.0 - pa))))
    affinity *= math.exp(-0.5 * _l2_norm(log_ratios))
    return 1.0 - affinity


def _left_sum(values: np.ndarray) -> float:
    """0.0 plus each value in turn, left to right, as a Python float (numpy's
    sum adds pairwise). The running sums match that fold's but for the sign of
    a zero sum, which the last + 0.0 makes +0.0 as the fold's is."""
    return float(np.add.accumulate(values)[-1]) + 0.0 if values.size else 0.0


def _product(values: np.ndarray) -> float:
    """1.0 times each value in turn, left to right, as a Python float (numpy
    multiplies along an axis in order; only its sums are pairwise)."""
    return float(np.multiply.reduce(values, initial=1.0))


def hellinger_bracket(pair: FiniteProductPair) -> tuple:
    """(H^2/2, H*sqrt(1 - H^2/4)) for the joint squared Hellinger distance H^2.

    Per-coordinate H_i^2 combine through the affinity product
    1 - H^2/2 = prod_i (1 - H_i^2/2).
    """
    diff = np.subtract(*np.sqrt(_as_pair(pair).masses))
    affinity = _product(1.0 - 0.5 * _row_sums(diff * diff))
    h_sq = 2.0 * (1.0 - affinity)
    lower = 0.5 * h_sq
    upper = math.sqrt(h_sq) * math.sqrt(max(0.0, 1.0 - 0.25 * h_sq))
    return lower, upper


# x/y is normal and finite where |log(x/y)| < _LOG_NORMAL, as -log(_TINY), for
# the smallest normal double _TINY, is 708.39.
_TINY = np.finfo(np.float64).tiny
_LOG_NORMAL = 708.0


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _rel_entr(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x*log(x/y) elementwise for x, y >= 0, by the branches of
    scipy.special.rel_entr.

    x*log1p((x - y)/y) where 1/2 < x/y < 2, x*log(x/y) where x/y is normal and
    finite, and x*(log x - log y) otherwise; 0 where x = 0 and inf where
    y = 0 < x. Each value is the same in any array it sits in.
    """
    live = np.count_nonzero(x)
    ratio = x / y
    near = (0.5 < ratio) & (ratio < 2.0)
    n_near = np.count_nonzero(near)
    if n_near == live:
        # x/y is never near where x = 0, so every x > 0 takes the log1p branch.
        logs = np.log1p((x - y) / y)
    else:
        logs = np.log(ratio)
        if n_near:
            np.putmask(logs, near, np.log1p((x - y) / y))
        # Where x = 0 the log is -inf or nan, so fewer than `live` small logs
        # means that some x/y with x > 0 is subnormal, 0 or inf (y = 0 < x), or
        # normal but extreme.
        if np.count_nonzero(np.abs(logs) < _LOG_NORMAL) < live:
            odd = (ratio <= _TINY) | (ratio == np.inf)
            np.putmask(logs, odd, np.log(x) - np.log(y))
    terms = x * logs
    if live < x.size:
        np.putmask(terms, x == 0.0, 0.0)  # 0 * -inf or 0 * nan there
    return terms


def _kl_divergence(pair: FiniteProductPair) -> float:
    """KL(P||Q): each coordinate's _rel_entr terms summed by numpy, the
    coordinates' sums added left to right."""
    return _left_sum(_row_sums(_rel_entr(*pair.masses)))


def kl_bracket(pair: FiniteProductPair) -> tuple:
    """(lower or None, min(1, sqrt(KL/2))) from the additive KL divergence.

    KL(P||Q) sums coordinate-wise with the conventions 0*log(0/q) = 0 and
    p*log(p/0) = +inf; an infinite KL yields upper bound 1. The lower bound
    KL / (2*log(1/m)) uses the joint minimum outcome mass
    m = min(P_min, Q_min) with P_min = prod_i min_w P_i(w); it is emitted only
    when KL is finite and 0 < P_min < 1/2, and is None otherwise.

    The computed KL is within (n + k_max + 24) * 2**-53 * S + n*k_max*2**-1074
    of the KL of the stored masses, to first order in 2**-53, where S is the sum
    of |x log(x/y)| over all states: each term rounds by at most 24 * 2**-53 of
    itself (logs off by up to 4 ulps), and its row sum and the fold over the n
    rows by the length of their chains. The terms cancel when P and Q are close,
    so S, not KL, sets the scale: the bound can exceed KL itself. A computed
    KL below 0, which only that rounding can give, raises ValueError naming it.
    A Q_min that underflows to 0.0 where P_min does not raises
    ZeroDivisionError naming the lower bound and Q_min (ROADMAP item 1).
    """
    pair = _as_pair(pair)
    states = pair.masses[0] > 0.0
    live = np.count_nonzero(states)
    # A state with Q = 0 < P makes KL infinite, so no terms are formed. Every
    # other term is finite (|log(x/y)| < 1500 for positive doubles), and so
    # is their sum.
    if np.count_nonzero(pair.masses[1][states]) < live:
        return None, 1.0
    kl = _kl_divergence(pair)
    if kl < 0.0:
        raise ValueError(f"the KL sum of the stored masses is {kl!r}, below 0: KL is "
                         "nonnegative, so its terms cancelled within their rounding error")
    upper = min(1.0, math.sqrt(0.5 * kl))
    # P_min = 0 when P puts mass 0 on a state, which leaves fewer positive
    # masses than states; otherwise P's positive masses are its states.
    if live < np.add.reduce(pair.support_sizes):
        return None, upper
    p_min, q_min = _min_mass_products(pair, states)
    if not 0.0 < p_min < 0.5:
        return None, upper
    if q_min == 0.0:
        raise ZeroDivisionError(
            "the KL lower bound KL / (2 log(1/m)) divides by zero: the joint minimum mass "
            f"m = min(P_min, Q_min) is Q_min, which underflows to 0.0 (P_min = {p_min!r})")
    lower = kl / (2.0 * math.log(1.0 / min(p_min, q_min)))
    return lower, upper


def _min_mass_products(pair: FiniteProductPair, states: np.ndarray) -> list:
    """[P_min, Q_min]: for each side, 1.0 times the least mass of each
    coordinate in turn, over the (n, k_max) mask of its states.

    numpy reduces along a row one row at a time, which is slow for rows of a
    few states, and a transposed view of the rows is still reduced that way.
    The speed comes from one transposed copy of the pair's (2, n, k_max)
    masses: a contiguous (2, k_max, n) array, whose minimum over the states is
    a few elementwise minima of length-n columns. The minimum is order-free,
    so the values are the same bit for bit. At n = 10**6 two-state rows a
    masked minimum took 100-130 ms along the rows or on a transposed view,
    and 18-27 ms on the transposed copy, on a 2-vCPU x86-64 host.
    """
    sides = np.ascontiguousarray(pair.masses.transpose(0, 2, 1))
    minima = np.minimum.reduce(sides, axis=1, where=states.T, initial=np.inf)
    return np.multiply.reduce(minima, axis=1, initial=1.0).tolist()


@dataclass(frozen=True)
class BoundsReport:
    """Every applicable TV bound for a product pair, plus the best aggregates.

    ``delta`` holds the Scheffé differences p - q of ``reduction``, as do the
    ``delta_*`` fields of ``prodtv bounds``. ``marginal_tv(pair)`` computes
    the same marginal TVs as half l1 distances. The two agree on Bernoulli
    pairs whose complements 1 - p_i and 1 - q_i are all exact, as when every
    parameter is at least 1/2, but may differ in the last bits where one
    rounds and on other pairs, so ``l2_lower_bound(marginal_tv(pair))`` need
    not equal ``lower_l2``.

    Its fields lower_name and upper_name are the table of bounds: their
    declared order is the order of ``lower_bounds()``, ``upper_bounds()`` and
    the ``prodtv bounds`` output, and a tie for best_lower_source or
    best_upper_source goes to the earliest. Optional fields are None when the
    bound does not apply: lower_kl requires a finite KL divergence and a small
    enough minimum mass, the symmetric upper bounds require the pair to reduce
    to a two-point symmetric one.
    """

    delta: MarginalTV
    reduction: ScheffeReduction
    lower_trivial: float
    lower_l2: float
    lower_hellinger: float
    lower_kl: float | None
    upper_trivial: float
    upper_hellinger: float
    upper_pinsker: float
    upper_symmetric: float | None
    upper_affinity: float | None
    best_lower: float
    best_lower_source: str
    best_upper: float
    best_upper_source: str

    @property
    def ratio(self) -> float | None:
        """best_upper / best_lower, or None when the lower bound is 0."""
        return self.best_upper / self.best_lower if self.best_lower > 0.0 else None

    def lower_bounds(self) -> dict:
        return _applicable(vars(self), "lower")

    def upper_bounds(self) -> dict:
        return _applicable(vars(self), "upper")


# The report's bound fields on each side, as (field, name) pairs in declared order.
_SIDE_FIELDS = {side: tuple((f.name, f.name[len(side) + 1:]) for f in fields(BoundsReport)
                            if f.name.startswith(side + "_"))
                for side in ("lower", "upper")}


def _applicable(values: dict, side: str) -> dict:
    """The bounds on one side that apply, by name, in the report's field
    order: values[side_name] for each field side_name that is not None."""
    return {name: values[field] for field, name in _SIDE_FIELDS[side]
            if values[field] is not None}


def bounds_report(pair: FiniteProductPair) -> BoundsReport:
    """Assemble every applicable bound for a product pair.

    Coordinates with no favored state, whose reduced p is 0 (identical
    marginals among them), are ignored by the surrogate and symmetric bounds
    (they contribute nothing to the TV distance), which keeps the report
    invariant under padding with identical coordinates. Symmetric
    upper bounds are emitted only when the active coordinates are two-point
    and the reduced pair satisfies q = 1 - p within SYMMETRIC_TOLERANCE;
    two-point coordinates reduce by relabeling, so the bounds transfer to the
    original pair. A pair with identical sides takes the same path: every
    family reads it as a pair with no coordinates, and every sharp bound is 0.
    An applicable bound that is not finite raises ValueError naming its field
    before any best bound is chosen or clamped into [0, 1].
    """
    pair = _as_pair(pair)
    red = scheffe_reduce(pair)
    p_active, q_active = red.p.params, red.q.params
    # Each favored state has P > Q >= 0, and p and q add the same states'
    # masses in the same order; float addition and the reduction's clip at 1
    # are monotone, so p >= q and 0 <= p - q <= p <= 1. The differences need
    # no check.
    delta = _unchecked(MarginalTV, deltas=_readonly(p_active - q_active))
    active = p_active > 0.0
    active_pair = pair
    if np.count_nonzero(active) < active.size:
        active_pair, p_active, q_active = pair._take(active), p_active[active], q_active[active]
    symmetric = (np.count_nonzero(active_pair.support_sizes <= 2) == p_active.size
                 and np.count_nonzero(np.abs(q_active - (1.0 - p_active)) <= SYMMETRIC_TOLERANCE)
                 == p_active.size)

    # Each family is called by its module-level name, so that a wrapper put
    # in its place sees the call. On a pair with no coordinates (identical
    # sides, TV 0) the Hellinger bracket gives (0.0, 0.0), KL gives
    # (None, 0.0) and both symmetric bounds give 0.0 on the empty p.
    bounds = {"upper_symmetric": None, "upper_affinity": None}
    bounds["lower_trivial"], bounds["upper_trivial"] = trivial_bracket(delta)
    bounds["lower_l2"] = l2_lower_bound(delta)
    bounds["lower_hellinger"], bounds["upper_hellinger"] = hellinger_bracket(active_pair)
    bounds["lower_kl"], bounds["upper_pinsker"] = kl_bracket(active_pair)
    if symmetric:
        symmetric_p = _unchecked(ProbVector, params=_readonly(p_active))
        bounds["upper_symmetric"] = symmetric_l2_upper_bound(symmetric_p)
        bounds["upper_affinity"] = symmetric_affinity_upper_bound(symmetric_p)

    lowers, uppers = _applicable(bounds, "lower"), _applicable(bounds, "upper")
    # Finite bounds lie near [0, 1], so their sum is finite exactly when each is.
    if not math.isfinite(sum(lowers.values()) + sum(uppers.values())):
        name = next(k for k, v in bounds.items() if v is not None and not math.isfinite(v))
        raise ValueError(f"{name} is {bounds[name]!r}, not a finite bound")
    best_lower_source = max(lowers, key=lowers.get)
    best_upper_source = min(uppers, key=uppers.get)
    # Every field is valid by construction, so the frozen report is built
    # without its constructor's per-field assignments.
    return _unchecked(
        BoundsReport,
        delta=delta,
        reduction=red,
        **bounds,
        # Rounding can put a bound just outside [0, 1] (lower_hellinger reads
        # 1.0000000000000002 on some disjoint pairs). The clamp keeps each best
        # value in [0, 1], but not best_lower <= best_upper: P [[.5, .5, 0]],
        # Q [[0, .5, .5]] reads 0.5000000000000001 against 0.5 (ROADMAP item 7).
        best_lower=min(1.0, max(0.0, lowers[best_lower_source])),
        best_lower_source=best_lower_source,
        best_upper=min(1.0, max(0.0, uppers[best_upper_source])),
        best_upper_source=best_upper_source,
    )
