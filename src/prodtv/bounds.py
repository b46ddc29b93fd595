"""Analytic lower and upper bounds on the TV distance of product distributions.

Lower bounds: the max marginal TV, the l2 tensorization bound with the
universal constant 0.1798, half the squared Hellinger distance, and a
KL-based bound. Upper bounds: the clipped l1 sum, the Hellinger upper arm,
Pinsker, and (for symmetric Bernoulli pairs q = 1-p) the l2 norm of p - q and
a Bhattacharyya-affinity bound. ``bounds_report`` assembles everything that
applies to a given pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import rel_entr

from .core import FiniteProductPair, MarginalTV, ProbVector, _params
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


@dataclass(frozen=True)
class BoundsReport:
    """Every applicable TV bound for a product pair, plus the best aggregates.

    Optional fields are None when the bound does not apply: lower_kl requires
    a finite KL divergence and a small enough minimum mass, the symmetric
    upper bounds require the pair to reduce to a two-point symmetric one.
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
        if self.best_lower > 0.0:
            return self.best_upper / self.best_lower
        return None

    def lower_bounds(self) -> dict:
        out = {"trivial": self.lower_trivial, "l2": self.lower_l2,
               "hellinger": self.lower_hellinger}
        if self.lower_kl is not None:
            out["kl"] = self.lower_kl
        return out

    def upper_bounds(self) -> dict:
        out = {"trivial": self.upper_trivial, "hellinger": self.upper_hellinger,
               "pinsker": self.upper_pinsker}
        if self.upper_symmetric is not None:
            out["symmetric"] = self.upper_symmetric
        if self.upper_affinity is not None:
            out["affinity"] = self.upper_affinity
        return out


def _deltas(delta) -> np.ndarray:
    if isinstance(delta, MarginalTV):
        return delta.deltas
    return MarginalTV(delta).deltas


def trivial_bracket(delta) -> tuple:
    """(max_i delta_i, min(1, sum_i delta_i)) - always valid, gap up to n."""
    d = _deltas(delta)
    return float(d.max()), min(1.0, float(d.sum()))


def l2_lower_bound(delta) -> float:
    """0.1798 * min(1, ||delta||_2), valid for every product pair."""
    d = _deltas(delta)
    return LOWER_BOUND_CONSTANTS.c_final * min(1.0, float(np.linalg.norm(d)))


def symmetric_l2_upper_bound(p) -> float:
    """min(1, ||2p - 1||_2): upper bound on TV(Ber(p), Ber(1-p))."""
    pa = _params(p)
    return min(1.0, float(np.linalg.norm(2.0 * pa - 1.0)))


def symmetric_affinity_upper_bound(p) -> float:
    """Affinity upper bound on TV(Ber(p), Ber(1-p)).

    1 - prod_i 2*sqrt(p_i(1-p_i)) * exp(-sqrt(sum_i log^2(p_i/(1-p_i))) / 2);
    exact at n = 1. Degenerates to 1 when any p_i is 0 or 1.
    """
    pa = _params(p)
    if np.any((pa == 0.0) | (pa == 1.0)):
        return 1.0
    log_ratios = np.log(pa / (1.0 - pa))
    affinity = float(np.prod(2.0 * np.sqrt(pa * (1.0 - pa))))
    affinity *= math.exp(-0.5 * float(np.linalg.norm(log_ratios)))
    return 1.0 - affinity


def _coordinate_hellinger_sq(dp, dq) -> float:
    diff = np.sqrt(dp.masses) - np.sqrt(dq.masses)
    return float((diff * diff).sum())


def hellinger_bracket(pair: FiniteProductPair) -> tuple:
    """(H^2/2, H*sqrt(1 - H^2/4)) for the joint squared Hellinger distance H^2.

    Per-coordinate H_i^2 combine through the affinity product
    1 - H^2/2 = prod_i (1 - H_i^2/2).
    """
    if not isinstance(pair, FiniteProductPair):
        pair = FiniteProductPair(*pair)
    affinity = 1.0
    for dp, dq in zip(pair.p_side, pair.q_side):
        affinity *= 1.0 - 0.5 * _coordinate_hellinger_sq(dp, dq)
    h_sq = 2.0 * (1.0 - affinity)
    lower = 0.5 * h_sq
    upper = math.sqrt(h_sq) * math.sqrt(max(0.0, 1.0 - 0.25 * h_sq))
    return lower, upper


def kl_bracket(pair: FiniteProductPair) -> tuple:
    """(lower or None, min(1, sqrt(KL/2))) from the additive KL divergence.

    KL(P||Q) sums coordinate-wise with the conventions 0*log(0/q) = 0 and
    p*log(p/0) = +inf; an infinite KL yields upper bound 1. The lower bound
    KL / (2*log(1/m)) uses the joint minimum outcome mass
    m = min(P_min, Q_min) with P_min = prod_i min_w P_i(w); it is emitted only
    when KL is finite and 0 < P_min < 1/2, and is None otherwise.
    """
    if not isinstance(pair, FiniteProductPair):
        pair = FiniteProductPair(*pair)
    kl = 0.0
    p_min = 1.0
    q_min = 1.0
    for dp, dq in zip(pair.p_side, pair.q_side):
        kl += float(rel_entr(dp.masses, dq.masses).sum())
        p_min *= float(dp.masses.min())
        q_min *= float(dq.masses.min())
    if math.isinf(kl):
        return None, 1.0
    upper = min(1.0, math.sqrt(0.5 * kl))
    if not (0.0 < p_min < 0.5):
        return None, upper
    joint_min = min(p_min, q_min)
    lower = kl / (2.0 * math.log(1.0 / joint_min))
    return lower, upper


def _restrict(pair: FiniteProductPair, indices) -> FiniteProductPair:
    return FiniteProductPair(
        tuple(pair.p_side[i] for i in indices),
        tuple(pair.q_side[i] for i in indices),
    )


def bounds_report(pair: FiniteProductPair) -> BoundsReport:
    """Assemble every applicable bound for a product pair.

    Coordinates with identical marginals are ignored by the surrogate and
    symmetric bounds (they contribute nothing to the TV distance), which keeps
    the report invariant under padding with identical coordinates. Symmetric
    upper bounds are emitted only when the active coordinates are two-point
    and the reduced pair satisfies q = 1 - p within SYMMETRIC_TOLERANCE;
    two-point coordinates reduce by relabeling, so the bounds transfer to the
    original pair.
    """
    if not isinstance(pair, FiniteProductPair):
        pair = FiniteProductPair(*pair)
    red = scheffe_reduce(pair)
    deltas = red.p.params - red.q.params
    delta = MarginalTV(deltas)

    lower_trivial, upper_trivial = trivial_bracket(delta)
    lower_l2 = l2_lower_bound(delta)

    active = [i for i, w in enumerate(red.witness_sets) if w]
    if active:
        sub = _restrict(pair, active)
        lower_hellinger, upper_hellinger = hellinger_bracket(sub)
        lower_kl, upper_pinsker = kl_bracket(sub)
        p_active = red.p.params[active]
        q_active = red.q.params[active]
        sizes = pair.support_sizes
        two_point = all(sizes[i] <= 2 for i in active)
        symmetric = two_point and bool(
            np.all(np.abs(q_active - (1.0 - p_active)) <= SYMMETRIC_TOLERANCE)
        )
        if symmetric:
            upper_symmetric = symmetric_l2_upper_bound(p_active)
            upper_affinity = symmetric_affinity_upper_bound(p_active)
        else:
            upper_symmetric = None
            upper_affinity = None
    else:
        # The two sides are identical: TV is 0 and so is every sharp bound.
        lower_hellinger, upper_hellinger = 0.0, 0.0
        lower_kl, upper_pinsker = None, 0.0
        upper_symmetric = 0.0
        upper_affinity = 0.0

    lowers = {"trivial": lower_trivial, "l2": lower_l2, "hellinger": lower_hellinger}
    if lower_kl is not None:
        lowers["kl"] = lower_kl
    uppers = {"trivial": upper_trivial, "hellinger": upper_hellinger,
              "pinsker": upper_pinsker}
    if upper_symmetric is not None:
        uppers["symmetric"] = upper_symmetric
    if upper_affinity is not None:
        uppers["affinity"] = upper_affinity

    best_lower_source = max(lowers, key=lowers.get)
    best_upper_source = min(uppers, key=uppers.get)
    best_lower = min(1.0, max(0.0, lowers[best_lower_source]))
    best_upper = min(1.0, max(0.0, uppers[best_upper_source]))

    return BoundsReport(
        delta=delta,
        reduction=red,
        lower_trivial=lower_trivial,
        lower_l2=lower_l2,
        lower_hellinger=lower_hellinger,
        lower_kl=lower_kl,
        upper_trivial=upper_trivial,
        upper_hellinger=upper_hellinger,
        upper_pinsker=upper_pinsker,
        upper_symmetric=upper_symmetric,
        upper_affinity=upper_affinity,
        best_lower=best_lower,
        best_lower_source=best_lower_source,
        best_upper=best_upper,
        best_upper_source=best_upper_source,
    )
