"""Exact, closed-form, and sampled total-variation distances for product measures.

The exact paths meet in the middle (Horowitz-Sahni): the coordinates are split
into two halves, one half's outcomes are sorted by log-likelihood ratio, and
the other half's outcomes, searched in ascending threshold order, each find
the sorted run of partners whose joint P-mass exceeds its Q-mass. A joint
support of N outcomes costs O(sqrt(N) log N) time and O(sqrt(N)) memory
instead of O(N). The enumeration budget still caps N itself, and no result
depends on a worker count.

Large halves are ordered by one numpy sort of unique int64 keys, so no order
depends on numpy's sort algorithm or CPU dispatch. The sorted half's order is
checked to be the stable argsort's, which fixes how its suffix sums round;
the searched half may take any order, since its terms are added in its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_BUDGET_LOG2",
    "MASS_TOLERANCE",
    "DimensionMismatchError",
    "InvalidDistributionError",
    "EnumerationBudgetError",
    "ProbVector",
    "FiniteDist",
    "FiniteProductPair",
    "MarginalTV",
    "TVEstimate",
    "exact_tv_bernoulli",
    "exact_tv_general",
    "exact_tv_equal_marginals",
    "marginal_tv",
    "mc_tv_estimate",
]

# Joint-support cap for exact enumeration, as log2 of the outcome count.
DEFAULT_BUDGET_LOG2 = 26
# Accepted deviation of a mass vector's total from 1 before rejection.
MASS_TOLERANCE = 1e-9

_MC_BATCH = 1 << 16
_RANGE_SLACK = 1e-12


class DimensionMismatchError(ValueError):
    """Two inputs that must share a length do not."""


class InvalidDistributionError(ValueError):
    """A parameter vector or mass function fails validation."""


class EnumerationBudgetError(RuntimeError):
    """Joint support too large to enumerate exactly; use bounds or sampling."""


def _unit_interval_vector(values, what: str) -> np.ndarray:
    """A fresh float64 copy of a non-empty 1-D vector with entries in [0, 1];
    entries up to _RANGE_SLACK outside are clipped, anything else raises."""
    try:
        arr = np.atleast_1d(np.array(values, dtype=np.float64))
    except (TypeError, ValueError):  # ragged nesting, or entries that are not numbers
        arr = None
    if arr is None or arr.ndim != 1 or arr.size == 0:
        raise InvalidDistributionError(f"{what} must be a non-empty 1-D vector")
    if arr.min() >= 0.0 and arr.max() <= 1.0:  # False on NaN
        return arr
    if not np.all(np.isfinite(arr)):
        raise InvalidDistributionError(f"{what} contains non-finite entries")
    bad = (arr < -_RANGE_SLACK) | (arr > 1.0 + _RANGE_SLACK)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise InvalidDistributionError(f"{what}[{i}] = {arr[i]!r} outside [0, 1]")
    return np.clip(arr, 0.0, 1.0)


@dataclass(frozen=True, eq=False)
class ProbVector:
    """Per-coordinate success probabilities of a Bernoulli product distribution."""

    params: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "params", _unit_interval_vector(self.params, "params"))

    @property
    def n(self) -> int:
        return self.params.size

    def __len__(self) -> int:
        return self.params.size


def _row_sums(masses: np.ndarray) -> np.ndarray:
    """``masses.sum(axis=1)``, bit for bit. A row of two states is one addition,
    which numpy's reduction does one row at a time; the two columns add as a
    whole, and the + 0.0 turns a -0.0 sum into the +0.0 the reduction gives."""
    if masses.shape[1] == 2:
        return (masses[:, 0] + masses[:, 1]) + 0.0
    return masses.sum(axis=1)


def _mass_rows(rows, side: str | None = None) -> tuple:
    """Validate mass rows into (masses, sizes): a read-only (n, k_max) float64
    array, each row zero-padded after its k_i masses, and the vector of the k_i.

    Each row must be non-empty, finite and nonnegative with a total within
    MASS_TOLERANCE of 1, and is divided by that computed total. Errors name a
    row as ``side[i]``; ``side=None`` is the one row of a FiniteDist.
    """
    try:
        masses = np.array(rows, dtype=np.float64)
        masses = masses.reshape(0, 0) if masses.shape == (0,) else masses  # no rows
        if masses.ndim != 2:
            raise ValueError(f"{masses.ndim}-D rows")
        sizes = np.full(len(masses), masses.shape[1])
    except (TypeError, ValueError):  # rows of different lengths
        try:
            sizes = np.fromiter(map(len, rows), np.int64)
            masses = np.zeros((sizes.size, sizes.max()))
            masses[np.arange(sizes.max()) < sizes[:, None]] = np.concatenate(
                rows, dtype=np.float64)
        except (TypeError, ValueError):
            message = "a non-empty 1-D vector" if side is None else "a sequence of 1-D mass rows"
            raise InvalidDistributionError(f"{side or 'masses'} must be {message}") from None
    negative = (masses < 0.0).any(axis=1)
    with np.errstate(invalid="ignore", over="ignore"):
        totals = _row_sums(masses)
    # A non-finite mass makes its row's total non-finite, which fails the test.
    bad = (sizes == 0) | negative | ~(np.abs(totals - 1.0) <= MASS_TOLERANCE)
    if bad.any():
        i = int(np.argmax(bad))
        j = int(np.argmax(masses[i] < 0.0)) if negative[i] else 0
        message = ("masses must be a non-empty 1-D vector" if sizes[i] == 0
                   else "masses contains non-finite entries" if not np.isfinite(masses[i]).all()
                   else f"masses[{j}] = {masses[i, j]!r} is negative" if negative[i]
                   else f"masses sum to {float(totals[i])!r}, not 1")
        raise InvalidDistributionError(message if side is None else f"{side}[{i}]: {message}")
    masses /= totals[:, None]
    return _readonly(masses), _readonly(sizes)


def _l2_norm(values) -> float:
    """The l2 norm by numpy's pairwise sum; BLAS sums in an order set by its threads."""
    return math.sqrt(float(np.square(values).sum()))


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class FiniteDist:
    """A probability mass function on a finite support {0, ..., k-1}.

    Masses must be nonnegative and sum to 1 within MASS_TOLERANCE; accepted
    inputs are renormalized to sum exactly to the computed total, as each row
    of a FiniteProductPair is. ``np.asarray(dist)`` gives the read-only masses.
    """

    masses: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "masses", _mass_rows([self.masses])[0][0])

    def __len__(self) -> int:
        return self.masses.size

    def __array__(self, dtype=None, copy=None):
        return np.array(self.masses, dtype=dtype, copy=copy)


def _unpadded(masses: np.ndarray, sizes: list):
    """The rows of a padded mass array, each cut to its support size from the
    list ``sizes``: the array itself when no row is padded, since iterating it
    gives the rows."""
    if min(sizes) == masses.shape[1]:
        return masses
    return [row[:k] for row, k in zip(masses, sizes)]


def _unchecked(cls, **fields):
    """An instance of a frozen dataclass around fields that are valid already."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True, init=False, eq=False)
class FiniteProductPair:
    """Two product distributions as zero-padded arrays of per-coordinate masses.

    Coordinate i has support {0, ..., k_i - 1}, k_i = ``support_sizes[i]``, and
    marginals ``p_masses[i, :k_i]`` and ``q_masses[i, :k_i]``; the rest of each
    (n, k_max) row is 0. The arrays are read-only. Each side is given as mass
    rows of any lengths (lists, arrays, FiniteDist) or as one 2-D array; each row
    is validated like a FiniteDist, and errors name the side (P or Q) and the
    coordinate. ``p_side`` and ``q_side`` give the rows back as FiniteDist.
    """

    p_masses: np.ndarray
    q_masses: np.ndarray
    support_sizes: np.ndarray

    def __init__(self, p_side, q_side):
        p_masses, sizes = _mass_rows(p_side, "P")
        q_masses, q_sizes = _mass_rows(q_side, "Q")
        if sizes.size != q_sizes.size:
            raise DimensionMismatchError(
                f"p_side has {sizes.size} coordinates, q_side has {q_sizes.size}"
            )
        if not sizes.size:
            raise InvalidDistributionError("a product pair needs at least one coordinate")
        if np.any(sizes != q_sizes):
            i = int(np.argmax(sizes != q_sizes))
            raise InvalidDistributionError(
                f"coordinate {i}: support sizes differ ({sizes[i]} vs {q_sizes[i]})"
            )
        self.__dict__.update(p_masses=p_masses, q_masses=q_masses, support_sizes=sizes)

    def _take(self, index) -> "FiniteProductPair":
        """The pair on the coordinates an index selects, without validating again."""
        return _unchecked(FiniteProductPair, **{
            name: _readonly(getattr(self, name)[index])
            for name in ("p_masses", "q_masses", "support_sizes")})

    @property
    def n(self) -> int:
        return self.support_sizes.size

    @property
    def p_side(self) -> tuple:
        return tuple(_unchecked(FiniteDist, masses=row)
                     for row in _unpadded(self.p_masses, self.support_sizes.tolist()))

    @property
    def q_side(self) -> tuple:
        return tuple(_unchecked(FiniteDist, masses=row)
                     for row in _unpadded(self.q_masses, self.support_sizes.tolist()))

    def joint_support(self) -> int:
        """The product of the support sizes, as a Python int (an int64 one wraps
        to 0 at 64 two-point coordinates); its time is quadratic in its bits."""
        return math.prod(self.support_sizes.tolist())

    @classmethod
    def from_bernoulli(cls, p, q) -> "FiniteProductPair":
        """Two-point encoding of a Bernoulli pair, rows (1 - p_i, p_i): state 1
        carries the parameter. It is the one place where a Bernoulli pair
        becomes rows, and the rows are not validated a second time.

        ProbVector has checked the parameters, and for every double p in
        [0, 1] the sum (1 - p) + p rounds to exactly 1.0: for p >= 1/2, 1 - p
        is exact, and otherwise 1 - p lies in (1/2, 1] within 2**-54 of its
        true value, so the sum is within 2**-54 of 1 and rounds to it (a tie
        goes to the even 1.0). Dividing each row by its total, as the
        constructor does, would change no bit, signed zeros included.
        """
        p_masses, q_masses = (_readonly(np.stack((1.0 - params, params), axis=1))
                              for params in _matched_params(p, q))
        return _unchecked(cls, p_masses=p_masses, q_masses=q_masses,
                          support_sizes=_readonly(np.full(len(p_masses), 2)))


def _as_pair(pair) -> FiniteProductPair:
    """A FiniteProductPair as given, or built from a (p_side, q_side) tuple."""
    return pair if isinstance(pair, FiniteProductPair) else FiniteProductPair(*pair)


@dataclass(frozen=True, eq=False)
class MarginalTV:
    """Per-coordinate TV distances between two product distributions' marginals."""

    deltas: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "deltas", _unit_interval_vector(self.deltas, "deltas"))

    @property
    def l1(self) -> float:
        return float(self.deltas.sum())

    @property
    def l2(self) -> float:
        return _l2_norm(self.deltas)

    @property
    def linf(self) -> float:
        return float(self.deltas.max())

    def __len__(self) -> int:
        return self.deltas.size


@dataclass(frozen=True)
class TVEstimate:
    """A Monte Carlo TV estimate with a Hoeffding confidence half-width."""

    value: float
    half_width: float
    confidence: float
    samples: int

    @property
    def lower(self) -> float:
        return max(0.0, self.value - self.half_width)

    @property
    def upper(self) -> float:
        return min(1.0, self.value + self.half_width)


def _params(p) -> np.ndarray:
    if isinstance(p, ProbVector):
        return p.params
    return ProbVector(p).params


def _matched_params(p, q) -> tuple:
    pa, qa = _params(p), _params(q)
    if pa.size != qa.size:
        raise DimensionMismatchError(f"p has length {pa.size}, q has length {qa.size}")
    return pa, qa


def _positive_int(value, name: str) -> int:
    """An int (or numpy integer) of at least 1 as a Python int; ValueError
    otherwise, also for one that no float holds (from about 2**1024 on), which
    the closed forms would meet as a bare OverflowError. That message gives
    the bit length: such an int has hundreds of digits."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    value = int(value)
    try:
        float(value)
    except OverflowError:
        raise ValueError(f"{name} is past the float range (about 2**1024), "
                         f"got an integer of {value.bit_length()} bits") from None
    return value


def _check_budget(sizes, budget_log2: int | None, n: int | None = None) -> None:
    """The budget rule of every exact entry: the joint support, the product
    of the support ``sizes`` the kernel will enumerate, must be at most
    2**budget_log2 (DEFAULT_BUDGET_LOG2 when None), or EnumerationBudgetError
    is raised, naming the caller's ``n`` (by default the number of sizes).
    The Python-int product stops once it passes the budget, and the message
    never formats the support. budget_log2 must be None, an int or a numpy
    integer (not a bool)."""
    budget = DEFAULT_BUDGET_LOG2 if budget_log2 is None else budget_log2
    if isinstance(budget, bool) or not isinstance(budget, (int, np.integer)):
        raise ValueError(f"budget_log2 must be an integer or None, got {budget_log2!r}")
    budget = int(budget)
    support = 1
    for size in sizes:
        support *= size
        if (support - 1).bit_length() > budget:  # support > 2**budget, for any budget
            raise EnumerationBudgetError(f"joint support exceeds the 2^{budget} "
                                         f"enumeration budget (n = {n or len(sizes)})")


def _product_block(rows, op=np.multiply) -> np.ndarray:
    """Joint values over the given coordinates, mixed-radix indexed with the
    newest coordinate outermost: ``op`` of one entry of each row, folded from
    op's identity (joint masses by default, sign sums with np.add)."""
    block = np.full(1, float(op.identity))
    for row in rows:
        block = op.outer(row, block).reshape(-1)
    return block


def _scan(values: np.ndarray) -> np.ndarray:
    """Inclusive prefix sums by a log-depth (Hillis-Steele) scan.

    Each prefix is added up along a binary tree of depth ceil(log2 len), so for
    nonnegative values its relative rounding error is at most that depth times
    2**-53; a sequential cumulative sum's error grows with the length instead.
    """
    out = np.array(values, dtype=np.float64)
    step = 1
    while step < out.size:
        out[step:] = out[step:] + out[:-step]
        step *= 2
    return out


def _scan_total(values: np.ndarray) -> float:
    """The last prefix sum of ``_scan(values)``, bit for bit, in O(N) time.

    That prefix is a pairwise tree sum over the values right-aligned in a
    zero-padded array of power-of-two length: the same additions (adding
    0.0 is exact), so it carries the same error bound as the scan.
    """
    size = 1 << max(values.size - 1, 0).bit_length()
    tree = np.zeros(size)
    tree[size - values.size:] = values
    while tree.size > 1:
        tree = tree[0::2] + tree[1::2]
    return float(tree[0])


def _half(p_rows, q_rows) -> tuple:
    """A half's joint masses, without the outcomes that are null on both sides."""
    mass_p, mass_q = _product_block(p_rows), _product_block(q_rows)
    kept = (mass_p > 0.0) | (mass_q > 0.0)
    return mass_p[kept], mass_q[kept]


# Halves of at most this many outcomes are ordered by np.argsort: below it the
# keys' extra passes cost more than the integer sort saves.
_ARGSORT_MAX = 1 << 10
_MAGNITUDE_BITS = 0x7FFF_FFFF_FFFF_FFFF


def _keyed_order(values: np.ndarray) -> np.ndarray:
    """A permutation that sorts the float64 ``values`` ascending, up to their
    low b = bit_length(size - 1) bits, found by one int64 sort.

    A double's bits read as an int64, with the 63 magnitude bits flipped when
    the sign bit is set, ascend with its value (-0.0 sorts just below 0.0).
    The low b bits of each key are replaced by the value's index, so the keys
    are unique: their sorted order is the same whatever algorithm or CPU
    dispatch numpy's sort uses, and masking it gives the permutation. Values
    that agree in all but their low b bits, ties included, come out in index
    order, so two that differ only there may come out of order.

    This is the order in which half A's thresholds are searched: the index
    found for a threshold depends only on that threshold and the terms are
    added in block order, so any order gives the same bits, and a nearly
    ascending one lets each search start where the last one ended.
    """
    bits = values.view(np.int64)
    mask = (1 << (values.size - 1).bit_length()) - 1
    keys = bits >> 63
    keys &= _MAGNITUDE_BITS
    keys ^= bits
    keys &= ~mask
    keys |= np.arange(values.size)
    keys.sort()
    keys &= mask
    return keys


def _stable_order(values: np.ndarray) -> np.ndarray:
    """``np.argsort(values, kind="stable")``, element for element.

    A half of at most _ARGSORT_MAX outcomes takes that call. A non-decreasing
    one, such as the closed form's binomial rows, takes the identity. Any
    other takes ``_keyed_order`` when one check proves it stable: each
    adjacent pair of the sorted values is strictly ascending, or equal with
    ascending index. Then the permutation sorts by (value, index), which
    defines the stable order uniquely. The check fails on values the keys
    cannot tell apart and on NaN, which fall back to the stable argsort.
    """
    if values.size <= _ARGSORT_MAX:
        return np.argsort(values, kind="stable")
    if (values[1:] >= values[:-1]).all():
        return np.arange(values.size)
    order = _keyed_order(values)
    ordered = values[order]
    if ((ordered[1:] > ordered[:-1])
            | ((ordered[1:] == ordered[:-1]) & (order[1:] > order[:-1]))).all():
        return order
    return np.argsort(values, kind="stable")


def _exact_tv(p_rows, q_rows) -> float:
    """Exact TV of two product distributions given by per-coordinate mass rows.

    TV is the sum over joint outcomes (a, b) of P_a P_b - Q_a Q_b where that is
    positive, i.e. where log P_b - log Q_b > log Q_a - log P_a. The coordinates
    are cut into halves A and B whose support sizes balance in log2; B is
    sorted by its log-likelihood ratio with suffix sums of P_b and Q_b, and a
    binary search of each outcome a's threshold gives its term
    P_a sum P_b - Q_a sum Q_b.

    B's order is ``_stable_order``, the stable argsort's element for element,
    so the suffix sums keep their bits. A's thresholds are searched in the
    nearly ascending ``_keyed_order`` (``np.argsort`` on halves of at most
    _ARGSORT_MAX outcomes), so that each search starts where the last one
    ended and its branches predict well, and the indices are scattered back.
    An index depends only on its own threshold and the terms are added in A's
    block order, so the result is bit for bit that of searching in block order.

    A one-outcome half A (the closed form's one coordinate, where split is 0)
    reads one index of each suffix sum, so it takes just those two sums, by
    ``_scan_total`` over B's sorted outcomes from that index, reversed, in
    O(|B|) time and without the scans. The scan's value at an index is the
    right-aligned pairwise tree over the values up to it, which is what
    ``_scan_total`` adds: the same additions, except that the scan skips an
    addition of 0.0 where the tree makes it, which can change only the sign
    of a zero sum. The suffix holds only outcomes whose log ratio passes the
    threshold, so P_b > 0 there and a suffix that is not empty has a positive
    P-sum. The product P_a sum P_b is then never -0.0, subtracting a zero
    Q-product of either sign from it gives the same bits, and the result is
    the general path's, bit for bit.

    Against the exact TV of the float masses it receives (Bernoulli rows taken
    as the exact complements 1 - p, p), the absolute error is at most
    (16 n + 8 log2 N + 32) * 2**-53 for n coordinates and joint support N:
    under 1e-13 for n <= 12 within the default budget. Identical sides give
    exactly 0.0, since no outcome passes the strict ratio test.
    """
    log_sizes = np.concatenate(([0.0], np.cumsum([math.log2(len(r)) for r in p_rows])))
    split = int(np.argmin(np.abs(2.0 * log_sizes - log_sizes[-1])))
    mass_pa, mass_qa = _half(p_rows[:split], q_rows[:split])
    mass_pb, mass_qb = _half(p_rows[split:], q_rows[split:])
    with np.errstate(divide="ignore"):
        ratio_b = np.log(mass_pb) - np.log(mass_qb)
        threshold_a = np.log(mass_qa) - np.log(mass_pa)
    order = _stable_order(ratio_b)
    if threshold_a.size == 1:
        first = int(np.searchsorted(ratio_b[order], threshold_a[0], side="right"))
        suffix = order[first:][::-1]
        term = (mass_pa[0] * _scan_total(mass_pb[suffix])
                - mass_qa[0] * _scan_total(mass_qb[suffix]))
        return min(1.0, float(max(0.0, term)))
    tail_p = np.append(_scan(mass_pb[order][::-1])[::-1], 0.0)
    tail_q = np.append(_scan(mass_qb[order][::-1])[::-1], 0.0)
    order_a = (np.argsort(threshold_a) if threshold_a.size <= _ARGSORT_MAX
               else _keyed_order(threshold_a))
    first = np.empty_like(order_a)
    first[order_a] = np.searchsorted(ratio_b[order], threshold_a[order_a], side="right")
    terms = np.maximum(0.0, mass_pa * tail_p[first] - mass_qa * tail_q[first])
    # Unclamped, a disjoint pair can exceed 1 by a few ulps, inside the error bound.
    return min(1.0, _scan_total(terms))


def _exact_pair_tv(pair: FiniteProductPair, budget_log2: int | None) -> float:
    """The body of both enumeration entries: the budget rule on the support
    sizes, then the kernel on the rows cut to them."""
    sizes = pair.support_sizes.tolist()
    _check_budget(sizes, budget_log2)
    return _exact_tv(_unpadded(pair.p_masses, sizes), _unpadded(pair.q_masses, sizes))


def exact_tv_bernoulli(p, q, *, budget_log2: int | None = None, workers: int = 1) -> float:
    """Exact TV distance between two Bernoulli product distributions.

    It is ``exact_tv_general`` on ``FiniteProductPair.from_bernoulli(p, q)``,
    bit for bit: the 2**n joint outcomes must fit the enumeration budget
    (``_check_budget``, the rule of every exact entry), and the
    meet-in-the-middle kernel sums them in O(2**(n/2) n) time. ``workers`` is
    accepted for compatibility and does not change the result or start threads.
    """
    return _exact_pair_tv(FiniteProductPair.from_bernoulli(p, q), budget_log2)


def exact_tv_general(pair: FiniteProductPair, *, budget_log2: int | None = None,
                     workers: int = 1) -> float:
    """Exact TV distance between two general finite product distributions.

    The joint support (product of per-coordinate support sizes) must fit the
    enumeration budget (``_check_budget``, checked before any row is built),
    although the meet-in-the-middle kernel only visits about its square root.
    ``workers`` is accepted and does not change the result.
    """
    return _exact_pair_tv(_as_pair(pair), budget_log2)


# Tail mass the window may drop: exp(-40) = 4.2e-18 each, far below the kernel's bound.
_WINDOW_NATS = 40.0


def _bernstein_window(n: int, p: float, q: float) -> tuple:
    """The (lo, hi) range of k outside which Binomial(n, p) and Binomial(n, q)
    each have a mass of at most 2 exp(-L), L = _WINDOW_NATS: by Bernstein's
    inequality, P(K >= n prob + t) and P(K <= n prob - t) are each at most
    exp(-L) for t = L/3 + sqrt(L**2/9 + 2 L n prob (1 - prob)). The window is
    the hull of both sides' reaches, cut to [0, n]; with p == q it is one
    side's reach. A reach that overflows a double (n past about 2e306)
    raises ValueError naming n."""
    ends = []
    for prob in (p, q):
        reach = _WINDOW_NATS / 3.0 + math.sqrt(
            _WINDOW_NATS ** 2 / 9.0 + 2.0 * _WINDOW_NATS * n * prob * (1.0 - prob))
        if not reach < math.inf:  # inf, or NaN where an infinite 2 L n meets prob = 0
            raise ValueError(f"n = {n} is too large for the closed form: "
                             "the binomial window's reach overflows a double")
        ends += [n * prob - reach, n * prob + reach]
    # Past 2**53 the float n * prob may exceed n; lo is cut to n as well.
    return min(n, max(0, math.floor(min(ends)))), min(n, math.ceil(max(ends)))


def _binomial_rows(n: int, p: float, q: float) -> tuple:
    """Binomial(n, p) and Binomial(n, q) masses on their Bernstein window, not
    normalized. Each row is 1.0 at its side's mode m = floor((n + 1) s), cut
    to the window, and filled outward by cumulative products of the exact
    mass ratios: (n - k)/(k + 1) times the odds s/(1 - s) upward, k/(n - k + 1)
    times (1 - s)/s downward. The count ratios serve both sides. Outward from
    the mode every ratio is at most 1, so nothing overflows and the tails
    underflow to exact zeros. At s = 0 or 1 the odds are 0 or inf and meet
    only an empty run, the mode being at that end of the window; a run below
    the mode needs m >= 1, so s >= 1/(n + 1) and dividing by the odds stays
    finite."""
    lo, hi = _bernstein_window(n, p, q)
    k = np.arange(lo, hi + 1, dtype=np.float64)
    up, down = (n - k[:-1]) / (k[:-1] + 1.0), k[1:] / (n - k[1:] + 1.0)
    rows = []
    for prob in (p, q):
        mode = min(max(math.floor((n + 1) * prob), lo), hi) - lo
        odds = prob / (1.0 - prob) if prob < 1.0 else math.inf
        row = np.empty(k.size)
        row[mode] = 1.0
        np.cumprod(up[mode:] * odds, out=row[mode + 1:])
        np.cumprod(down[:mode][::-1] / odds, out=row[:mode][::-1])
        rows.append(row)
    return tuple(rows)


def exact_tv_equal_marginals(n: int, p: float, q: float) -> float:
    """Exact TV for constant-parameter Bernoulli products.

    Outcome probabilities depend only on the number of ones, so this is the
    exact kernel (``_exact_tv``) on one coordinate: the ``_binomial_rows``
    masses, each row divided by its computed total. When the two sides'
    reaches (``_bernstein_window`` of p alone and of q alone) are disjoint,
    P holds at least 1 - 2 exp(-L) of its mass where Q holds at most 2 exp(-L),
    so TV >= 1 - 4 exp(-L) and 1.0 is returned without building rows.

    Otherwise the window's W = hi - lo + 1 counts are what the kernel
    enumerates, so W takes the budget rule of every exact entry
    (``_check_budget``) at the default 2**DEFAULT_BUDGET_LOG2, and a larger
    window raises EnumerationBudgetError, naming n, before any row is built.
    A window within the budget that reaches count 2**53, where doubles stop
    holding every count, raises ValueError naming n. The gap pair meets it
    past about n = 10**34, where its window, about 9 sqrt(n) counts wide,
    rounds to one count. A reach that overflows a double (n past about
    2e306) raises ValueError too. The rows and the kernel hold about 75 bytes per count (a
    tracemalloc peak of 18.4 MiB at W = 2**18, n = 8.5e8 for the gap pair,
    and linear in W), so a window at the budget, 2**26 counts (the gap pair
    near n = 5.6e13, past which it is refused), would take about 5 GiB.

    With W counts in the window and L = _WINDOW_NATS = 40, |value - TV| is at
    most the sum of
    - the kernel's bound for one coordinate, (48 + 8 log2 W) 2**-53;
    - the truncation, 6 exp(-L) < 3e-17: each side has at most 2 exp(-L)
      outside the window, and the division moves the rest by as much;
    - the mass rounding, twice the per-row bound (10 W + log2 W + 30) 2**-53
      + W 2**-1020, for W <= 10**7. Each step of the recurrence rounds a count
      ratio, its product with the odds and the running product, and the odds
      carry two roundings, so a mass d < W counts from its mode is within
      5 d 2**-53 of its exact ratio to the mode, relatively. The total's
      pairwise sum adds (log2 W + 25) 2**-53 and the division 2**-53, so each
      normalized row is within the per-row bound, in l1, of the binomial
      normalized on the window. A mass that falls below 2**-1022 stays below
      it, as does its exact value, so the two differ by at most 2**-1021.
    The worst case is loose: against mpmath the gap pair 1/2 +- 1/(2n) is
    within 3e-10 of TV, relative, up to n = 10**7, and (1/n, 0) within
    3e-16. A window holds at most 18 sqrt(n p (1 - p)) + 56 counts around
    n p and as many around n q, and the counts between them only when the
    reaches overlap; nothing of length n is built.
    """
    n = _positive_int(n, "n")
    for name, value in (("p", p), ("q", q)):
        try:
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} = {value!r} outside [0, 1]")
        except TypeError:  # None, a string or a list cannot be compared with 0.0
            raise ValueError(f"{name} must be a real number, got {value!r}") from None
    p, q = float(p), float(q)
    (lo_p, hi_p), (lo_q, hi_q) = _bernstein_window(n, p, p), _bernstein_window(n, q, q)
    if hi_p < lo_q or hi_q < lo_p:
        return 1.0
    _check_budget([max(hi_p, hi_q) - min(lo_p, lo_q) + 1], None, n)
    if max(hi_p, hi_q) >= 1 << 53:
        raise ValueError(f"n = {n} is too large for the closed form: its window reaches "
                         "count 2**53, past which a double does not hold every count")
    pmf_p, pmf_q = _binomial_rows(n, p, q)
    return _exact_tv([pmf_p / pmf_p.sum()], [pmf_q / pmf_q.sum()])


def marginal_tv(pair: FiniteProductPair) -> MarginalTV:
    """Per-coordinate TV distances of a product pair."""
    pair = _as_pair(pair)
    deltas = 0.5 * _row_sums(np.abs(pair.p_masses - pair.q_masses))
    return MarginalTV(deltas)


def mc_tv_estimate(p, q, samples: int, confidence: float = 0.95,
                   seed: int = 0) -> TVEstimate:
    """Monte Carlo estimate of TV between Bernoulli products.

    Uses the identity TV = E_{X~P}[max(0, 1 - Q(X)/P(X))]; every sample term
    lies in [0, 1], so the half-width is the Hoeffding bound
    sqrt(ln(2/(1-confidence)) / (2*samples)). The stream is drawn from a
    counter-based Philox generator in fixed-size batches of (m, n) uniforms,
    coordinate i of a sample being a one when its uniform is below p_i. The
    uniforms are not formed: ``Generator.random`` would make each raw 64-bit
    word w into u = (w >> 11) * 2**-53, so the test u < p_i is made exactly
    as the integer comparison w >> 11 < ceil(p_i * 2**53). These are the same
    draws and the same bits as comparing ``Generator.random`` with p_i; p_i = 1
    gives the cut 2**53 (always a one) and p_i = 0 the cut 0 (never).

    Each sample's log-likelihood ratio log Q(X) - log P(X) is summed one
    coordinate at a time, left to right, from log q_i - log p_i for a one and
    log1p(-q_i) - log1p(-p_i) for a zero; the term is -expm1(min(llr, 0)),
    which stays accurate where 1 - Q/P cancels and cannot underflow. A state
    Q cannot produce (q_i = 0 hit by a one, q_i = 1 hit by a zero) has log
    ratio -inf, which marks the sample: no log ratio is +inf, so its sum stays
    -inf and its term is exactly 1. The order of every operation is fixed (no
    BLAS, whose summation order depends on the build and thread count), so
    the estimate is a pure function of (seed, samples); ``seed``, the Philox
    key, must be an integer in [0, 2**128).

    No clamp is applied: every term lies in [0, 1] and float rounding is
    monotone, so no partial sum exceeds its count and the value lies in
    [0, 1]. An identical pair gives exactly 0.0 and a pair whose every
    sample is impossible under Q gives exactly 1.0.
    """
    pa, qa = _matched_params(p, q)
    samples = _positive_int(samples, "samples")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) \
            or not 0 <= seed < 1 << 128:
        raise ValueError(f"seed must be an integer in [0, 2**128), got {seed!r}")
    if not (0.0 < confidence < 1.0):
        raise ValueError(f"confidence must lie in (0, 1), got {confidence!r}")

    # Row i holds coordinate i's log ratios (of a zero, of a one). The masked
    # branches are never taken: X ~ Ber(p) cannot land on a state of mass 0.
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratios = np.stack([np.where(pa < 1.0, np.log1p(-qa) - np.log1p(-pa), 0.0),
                               np.where(pa > 0.0, np.log(qa) - np.log(pa), 0.0)], axis=1)

    # p_i * 2**53 is exact (a power-of-two scaling), so its ceiling is too.
    cuts = np.ceil(pa * 2.0 ** 53).astype(np.uint64)
    bit_gen = np.random.Philox(key=int(seed))
    batch_sums = []
    done = 0
    while done < samples:
        m = min(_MC_BATCH, samples - done)
        words = bit_gen.random_raw((m, pa.size))
        words >>= np.uint64(11)
        # Outcome bits (1 for a one), one contiguous row per coordinate.
        bits = np.ascontiguousarray((words < cuts).T).view(np.uint8)
        llr = np.zeros(m)
        for coord_bits, coord_ratios in zip(bits, log_ratios):
            llr += coord_ratios.take(coord_bits)
        terms = -np.expm1(np.minimum(llr, 0.0))
        batch_sums.append(float(terms.sum()))
        done += m
    # The terms of an identical pair are -expm1(0) = -0.0; adding 0.0 makes
    # the value 0.0 whichever way a sum of them rounds its sign.
    value = _scan_total(np.array(batch_sums)) / samples + 0.0
    half_width = math.sqrt(math.log(2.0 / (1.0 - confidence)) / (2.0 * samples))
    return TVEstimate(value=value, half_width=half_width,
                      confidence=float(confidence), samples=samples)
