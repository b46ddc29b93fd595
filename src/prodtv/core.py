"""Exact, closed-form, and sampled total-variation distances for product measures.

The exact paths meet in the middle (Horowitz-Sahni): the coordinates are split
into two halves, and one sort of half B's log-likelihood ratios merged with
half A's thresholds orders B and gives each outcome of A the sorted run of
partners whose joint P-mass exceeds its Q-mass. A joint support of N outcomes
costs O(sqrt(N) log N) time and O(sqrt(N)) memory instead of O(N). The
enumeration budget still caps N itself, and no result depends on a worker
count.

More than 1024 values are ordered by one numpy sort of unique int64 keys, so
no order depends on numpy's sort algorithm or CPU dispatch. The order is
checked to be the stable argsort's, which fixes how B's suffix sums round,
and repaired where it is not; A's terms are added in A's own order.
"""

from __future__ import annotations

import functools
import itertools
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
# Raw PCG64 words, those of np.random.default_rng(seed), drawn at a time: 1 MiB.
_MC_BLOCK_WORDS = 1 << 17
_RANGE_SLACK = 1e-12


class DimensionMismatchError(ValueError):
    """Two inputs that must share a length do not."""


class InvalidDistributionError(ValueError):
    """A parameter vector or mass function fails validation."""


class EnumerationBudgetError(RuntimeError):
    """Joint support too large to enumerate exactly; use bounds or sampling."""


def _unit_interval_vector(values, what: str) -> np.ndarray:
    """A fresh read-only float64 copy of a non-empty 1-D vector with entries
    in [0, 1]; entries up to _RANGE_SLACK outside are clipped, anything else
    raises."""
    try:
        arr = np.array(values, dtype=np.float64)
    except (TypeError, ValueError):  # ragged nesting, or entries that are not numbers
        arr = None
    if arr is None or arr.ndim > 1 or arr.size == 0:
        raise InvalidDistributionError(f"{what} must be a non-empty 1-D vector")
    if not arr.ndim:  # a scalar is a vector of one entry
        arr = arr.reshape(1)
    if np.minimum.reduce(arr) >= 0.0 and np.maximum.reduce(arr) <= 1.0:  # False on NaN
        return _readonly(arr)
    if np.count_nonzero(np.isfinite(arr)) < arr.size:
        raise InvalidDistributionError(f"{what} contains non-finite entries")
    bad = (arr < -_RANGE_SLACK) | (arr > 1.0 + _RANGE_SLACK)
    if np.count_nonzero(bad):
        i = int(np.argmax(bad))
        raise InvalidDistributionError(f"{what}[{i}] = {arr[i]!r} outside [0, 1]")
    return _readonly(np.clip(arr, 0.0, 1.0))


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
    """``masses.sum(axis=-1)``, bit for bit: the sum of each row, the last
    axis, of an (n, k) array or of both sides of a (2, n, k) one. A row of two
    states is one addition, which numpy's reduction does one row at a time;
    the two columns add as a whole, and the + 0.0 turns a -0.0 sum into the
    +0.0 the reduction gives."""
    if masses.shape[-1] == 2:
        return (masses[..., 0] + masses[..., 1]) + 0.0
    return masses.sum(axis=-1)


def _invalid_rows(side: str | None) -> InvalidDistributionError:
    message = "a non-empty 1-D vector" if side is None else "a sequence of 1-D mass rows"
    return InvalidDistributionError(f"{side or 'masses'} must be {message}")


def _row_sizes(rows, side: str | None) -> np.ndarray:
    """The number of masses in each row: a 2-D array's row length, or each
    row's len(). Rows with no len(), generators among them, raise."""
    if isinstance(rows, np.ndarray) and rows.ndim == 2:
        return np.full(len(rows), rows.shape[1])
    try:
        return np.fromiter(map(len, rows), np.int64, count=len(rows))
    except (TypeError, ValueError):
        raise _invalid_rows(side) from None


def _fill_rows(masses: np.ndarray, rows, sizes: np.ndarray, side: str | None) -> None:
    """Validate mass rows of the given ``sizes`` into ``masses``, an
    (n, k_max) float64 array: each row zero-padded after its k_i masses.

    Rows of one length are converted into it as one 2-D array, and rows of
    different lengths are concatenated into the places of their masses. Each
    row must be non-empty, finite and nonnegative with a total within
    MASS_TOLERANCE of 1, and is divided by that computed total in place.
    Errors name a row as ``side[i]``; ``side=None`` is the one row of a
    FiniteDist.
    """
    try:
        if sizes.size and np.minimum.reduce(sizes) < masses.shape[1]:  # rows of different lengths
            masses.fill(0.0)
            masses[np.arange(masses.shape[1]) < sizes[:, None]] = np.concatenate(
                rows, dtype=np.float64)
        elif sizes.size:
            masses[...] = rows
    except (TypeError, ValueError):
        raise _invalid_rows(side) from None
    with np.errstate(invalid="ignore", over="ignore"):
        totals = _row_sums(masses)
    # A non-finite mass makes its row's total non-finite, and an empty row's
    # total is 0, so each fails the test on the totals; NaN fails both tests.
    close = np.abs(totals - 1.0) <= MASS_TOLERANCE
    if not (np.minimum.reduce(masses, axis=None, initial=0.0) >= 0.0
            and np.count_nonzero(close) == close.size):
        negative = np.logical_or.reduce(masses < 0.0, axis=1)
        i = int(np.argmax(negative | ~close))
        j = int(np.argmax(masses[i] < 0.0)) if negative[i] else 0
        message = ("masses must be a non-empty 1-D vector" if sizes[i] == 0
                   else "masses contains non-finite entries" if not np.isfinite(masses[i]).all()
                   else f"masses[{j}] = {masses[i, j]!r} is negative" if negative[i]
                   else f"masses sum to {float(totals[i])!r}, not 1")
        raise InvalidDistributionError(message if side is None else f"{side}[{i}]: {message}")
    masses /= totals[:, None]


def _mass_rows(rows, side: str | None = None) -> tuple:
    """Validate mass rows into (masses, sizes): a read-only (n, k_max) float64
    array filled by ``_fill_rows``, and the read-only vector of the k_i."""
    sizes = _row_sizes(rows, side)
    masses = np.empty((sizes.size, sizes.max(initial=0)))
    _fill_rows(masses, rows, sizes, side)
    return _readonly(masses), _readonly(sizes)


def _l2_norm(values) -> float:
    """The l2 norm by numpy's pairwise sum; BLAS sums in an order set by its threads."""
    return math.sqrt(float(np.add.reduce(np.square(values))))


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


def _unchecked(cls, **fields):
    """An instance of a frozen dataclass around fields that are valid already."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True, init=False, eq=False)
class FiniteProductPair:
    """Two product distributions as one zero-padded array of per-coordinate masses.

    ``masses`` is the read-only, C-contiguous (2, n, k_max) float64 array of
    P's masses (``masses[0]``) and Q's (``masses[1]``), the form the exact
    kernel reads. Coordinate i has support {0, ..., k_i - 1},
    k_i = ``support_sizes[i]``, and marginals ``masses[0, i, :k_i]`` and
    ``masses[1, i, :k_i]``; the rest of each row is 0. ``p_masses`` and
    ``q_masses`` are the two (n, k_max) sides as views of it. Each side is
    given as mass rows of any lengths (lists, arrays, FiniteDist) or as one
    2-D array; each row is validated like a FiniteDist, P's rows first,
    straight into ``masses``, and errors name the side (P or Q) and the
    coordinate. ``p_side`` and ``q_side`` give the rows back as FiniteDist.
    """

    masses: np.ndarray
    support_sizes: np.ndarray

    def __init__(self, p_side, q_side):
        sizes = _row_sizes(p_side, "P")
        masses = np.empty((2, sizes.size, sizes.max(initial=0)))
        _fill_rows(masses[0], p_side, sizes, "P")
        q_sizes = _row_sizes(q_side, "Q")
        if q_sizes.shape == sizes.shape and not np.count_nonzero(q_sizes != sizes):
            _fill_rows(masses[1], q_side, sizes, "Q")
        else:  # Q's rows are validated on their own, and their errors come first
            q_sizes = _mass_rows(q_side, "Q")[1]
        if sizes.size != q_sizes.size:
            raise DimensionMismatchError(
                f"p_side has {sizes.size} coordinates, q_side has {q_sizes.size}"
            )
        if not sizes.size:
            raise InvalidDistributionError("a product pair needs at least one coordinate")
        if np.count_nonzero(sizes != q_sizes):
            i = int(np.argmax(sizes != q_sizes))
            raise InvalidDistributionError(
                f"coordinate {i}: support sizes differ ({sizes[i]} vs {q_sizes[i]})"
            )
        self.__dict__.update(masses=_readonly(masses), support_sizes=_readonly(sizes))

    def _take(self, mask: np.ndarray) -> "FiniteProductPair":
        """The pair on the coordinates a boolean mask selects, without validating
        again. (``compress`` keeps ``masses`` C-contiguous; ``masses[:, mask]``
        would not be.)"""
        return _unchecked(FiniteProductPair, masses=_readonly(self.masses.compress(mask, axis=1)),
                          support_sizes=_readonly(self.support_sizes[mask]))

    @property
    def n(self) -> int:
        return self.support_sizes.size

    @property
    def p_masses(self) -> np.ndarray:
        return self.masses[0]

    @property
    def q_masses(self) -> np.ndarray:
        return self.masses[1]

    def _side(self, side: int) -> tuple:
        return tuple(_unchecked(FiniteDist, masses=row[:k])
                     for row, k in zip(self.masses[side], self.support_sizes.tolist()))

    @property
    def p_side(self) -> tuple:
        return self._side(0)

    @property
    def q_side(self) -> tuple:
        return self._side(1)

    def joint_support(self) -> int:
        """The product of the support sizes, as a Python int (an int64 one wraps
        to 0 at 64 two-point coordinates); its time is quadratic in its bits."""
        return math.prod(self.support_sizes.tolist())

    @classmethod
    def from_bernoulli(cls, p, q) -> "FiniteProductPair":
        """Two-point encoding of a Bernoulli pair, rows (1 - p_i, p_i): state 1
        carries the parameter. It is the one place where a Bernoulli pair
        becomes rows, and the rows are not validated a second time. The
        parameters fill state 1 of both sides, and one subtraction fills
        state 0 of both.

        ProbVector has checked the parameters, and for every double p in
        [0, 1] the sum (1 - p) + p rounds to exactly 1.0: for p >= 1/2, 1 - p
        is exact, and otherwise 1 - p lies in (1/2, 1] within 2**-54 of its
        true value, so the sum is within 2**-54 of 1 and rounds to it (a tie
        goes to the even 1.0). Dividing each row by its total, as the
        constructor does, would change no bit, signed zeros included.
        """
        pa, qa = _matched_params(p, q)
        masses = np.empty((2, pa.size, 2))
        masses[0, :, 1], masses[1, :, 1] = pa, qa
        np.subtract(1.0, masses[..., 1], out=masses[..., 0])
        return _unchecked(cls, masses=_readonly(masses),
                          support_sizes=_readonly(np.full(pa.size, 2)))


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
    """``ProbVector(p).params``, without building the ProbVector."""
    if isinstance(p, ProbVector):
        return p.params
    return _unit_interval_vector(p, "params")


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


def _product_block(rows, op) -> np.ndarray:
    """Joint values over the given coordinates, mixed-radix indexed with the
    newest coordinate outermost: ``op`` of one entry of each row, folded from
    op's identity (sign sums with np.add)."""
    block = np.full(1, float(op.identity))
    for row in rows:
        block = op.outer(row, block).reshape(-1)
    return block


def _pair_scan(flat: np.ndarray) -> np.ndarray:
    """Inclusive prefix sums of the two columns interleaved in ``flat``, an
    (N, 2) array read as one vector, by a log-depth (Hillis-Steele) scan:
    pass s adds each entry to the one 2 s places back, its column's entry s
    rows back. Each pass writes into the other of two buffers, so no pass
    allocates, and ``flat`` is overwritten.

    Each prefix is added up along a binary tree of depth ceil(log2 N), so for
    nonnegative values its relative rounding error is at most that depth times
    2**-53; a sequential cumulative sum's error grows with the length instead.
    """
    out, spare = flat, np.empty_like(flat)
    stride = 2
    while stride < flat.size:
        spare[:stride] = out[:stride]
        np.add(out[stride:], out[:-stride], out=spare[stride:])
        out, spare = spare, out
        stride *= 2
    return out


def _scan_total(values: np.ndarray) -> float:
    """The last inclusive prefix sum of a Hillis-Steele scan of ``values``
    (one column of ``_pair_scan``), bit for bit, in O(N) time.

    That prefix is a pairwise tree sum over the values right-aligned in a
    zero-padded array of power-of-two length: the same additions (adding
    0.0 is exact), so it carries the same error bound as the scan. The tree
    is folded level by level over the values alone: a level of odd length
    takes one 0.0 in front, the one pad entry its first value meets, and the
    pad's other entries only add 0.0 to 0.0.
    """
    tree = values
    while tree.size > 1:
        if tree.size % 2:
            tree = np.concatenate(([0.0], tree))
        tree = tree[0::2] + tree[1::2]
    return float(tree[0]) if tree.size else 0.0


def _live(block: np.ndarray) -> np.ndarray:
    """A half's (2, N) block of joint P and Q masses without the outcomes that
    are null on both sides; the block as it is when there is none. (``compress``
    takes the kept columns several times faster than ``block[:, kept]``.)"""
    kept = (block[0] > 0.0) | (block[1] > 0.0)
    if np.count_nonzero(kept) == kept.size:
        return block
    return block.compress(kept, axis=1)


def _log_ratio(block: np.ndarray) -> np.ndarray:
    """``log block[0] - log block[1]`` by one np.log of the (2, N) block,
    whose logs are freed on return. A mass of 0 warns of a division by zero
    unless the caller ignores it."""
    logs = np.log(block)
    return logs[0] - logs[1]


def _split(sizes: list) -> int:
    """Where the coordinates are cut into halves A and B: the first index
    whose running sum of log2 sizes is nearest half the total, the
    ``np.argmin`` of ``np.abs(2 * log_sizes - log_sizes[-1])`` over the
    sequential sums ``np.cumsum`` gives, 0 prepended. The cuts of the 64
    sizes last used are kept, so pairs of one shape share one computation."""
    return _split_of(tuple(sizes))


@functools.lru_cache(maxsize=64)
def _split_of(sizes: tuple) -> int:
    log_sizes = [0.0, *itertools.accumulate(map(math.log2, sizes))]
    gaps = [abs(2.0 * log_size - log_sizes[-1]) for log_size in log_sizes]
    return gaps.index(min(gaps))


def _tails(block: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Half B's suffix sums of P and Q in its sorted ``order``, interleaved:
    the (N + 1, 2) rows of B's masses in reversed order behind a zero row,
    scanned by ``_pair_scan`` as one flat vector. Row r holds the sums over
    the r outcomes of largest ratio, the suffix from sorted index N - r; row
    0 is the empty suffix. Each column gets the additions of a scan of that
    reversed column alone, except the zero row's +0.0, which changes no sum
    (it makes a -0.0 one +0.0)."""
    reverse = order[::-1]
    pairs = np.empty((order.size + 1, 2))
    pairs[0] = 0.0
    pairs[1:, 0] = block[0][reverse]
    pairs[1:, 1] = block[1][reverse]
    return _pair_scan(pairs.reshape(-1))


def _fold(block: np.ndarray, rows: np.ndarray, sizes: list) -> np.ndarray:
    """Joint masses of m blocks at once: ``block`` (m, N) and zero-padded
    ``rows`` (m, steps, k_max) give the (m, N prod(sizes)) blocks that
    multiply row ``rows[i, s]``, cut to its ``sizes[s]`` masses, onto
    ``block[i]`` one step s at a time, mixed-radix indexed with the newest
    coordinate outermost."""
    for step, k in enumerate(sizes):
        block = (rows[:, step, :k, None] * block[:, None, :]).reshape(len(block), -1)
    return block


def _halves(rows: np.ndarray, sizes: list, split: int) -> tuple:
    """The two halves' joint masses (P_A, Q_A), (P_B, Q_B) of the (2, n, k_max)
    ``rows`` cut at ``split``. When the halves' first c = min(split, n - split)
    coordinates have the same support sizes, as on every pair of one support
    size, those fold as one (4, N) block, and what is left of the longer half
    folds onto its own two blocks alone: B's last coordinate for odd n with
    k = 2, while for other k the rounded log2 sizes may make A the longer
    half. Otherwise each half folds alone from c = 0. Each joint mass is the
    same product of the same factors in the same order either way."""
    common = min(split, len(sizes) - split)
    if sizes[:common] != sizes[split:split + common]:
        common = 0
    block = _fold(np.ones((4, 1)), np.concatenate(
        (rows[:, :common], rows[:, split:split + common])), sizes[:common])
    return (_fold(block[:2], rows[:, common:split], sizes[common:split]),
            _fold(block[2:], rows[:, split + common:], sizes[split + common:]))


# At most this many values are ordered by np.argsort: below it the keys'
# extra passes cost more than the integer sort saves.
_ARGSORT_MAX = 1 << 10
_MAGNITUDE_BITS = 0x7FFF_FFFF_FFFF_FFFF


def _keyed_order(values: np.ndarray) -> np.ndarray:
    """A permutation that sorts the float64 ``values`` ascending, up to their
    low b = bit_length(size - 1) bits, found by one int64 sort.

    A double's bits read as an int64, with the 63 magnitude bits flipped when
    the sign bit is set, ascend with its value; -0.0 is keyed as 0.0, so
    equal values have equal keys, NaN apart. The low b bits of each key are
    replaced by the value's index, so the keys are unique: their sorted order
    is the same whatever algorithm or CPU dispatch numpy's sort uses, and
    masking it gives the permutation. Values that agree in all but their low
    b bits, equal ones included, come out in index order, so two that differ
    only there may come out of order.
    """
    bits = (values + 0.0).view(np.int64)
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

    At most _ARGSORT_MAX values take that call. More take ``_keyed_order``
    when one comparison proves it stable: each adjacent pair of the sorted
    values is ascending or equal. Equal values have equal keys, so the keyed
    order holds each run of them in index order already, and the
    permutation sorts by (value, index), which defines the stable order
    uniquely. The check fails on values that differ only in the keys'
    dropped low bits; the keyed order is then repaired by a stable argsort
    of the values in its own order, which keeps those runs as they are. NaN
    compares false with its neighbours and fails the check too, and since
    NaNs of other bits are not keyed alike, values with one take the stable
    argsort of the values themselves.
    """
    if values.size <= _ARGSORT_MAX:
        return np.argsort(values, kind="stable")
    order = _keyed_order(values)
    ordered = values[order]
    if np.count_nonzero(ordered[1:] >= ordered[:-1]) == ordered.size - 1:
        return order
    if np.count_nonzero(np.isnan(ordered)):
        return np.argsort(values, kind="stable")
    return order[np.argsort(ordered, kind="stable")]


def _merged_order(ratio_b: np.ndarray, threshold_a: np.ndarray) -> tuple:
    """Half B's stable order, and for each threshold of half A the number of
    B's ratios at most it, ``np.searchsorted`` of it with side="right" in
    B's sorted ratios, both read off one ``_stable_order`` of the
    concatenation, B first.

    Restricted to B, that order is B's own stable order. An A threshold's
    merged position counts the B ratios below it, and the equal ones, which
    come first as B comes first, plus the A thresholds before it, its rank
    among A's entries of the order.
    """
    order = _stable_order(np.concatenate((ratio_b, threshold_a)))
    in_a = order >= ratio_b.size
    # Positions and compress, not masks: numpy's boolean indexing branches on
    # each entry.
    at_a = in_a.nonzero()[0]
    first = np.empty(threshold_a.size, dtype=np.intp)
    first[order[at_a] - ratio_b.size] = at_a - np.arange(at_a.size)
    return order.compress(~in_a), first


def _exact_tv(rows: np.ndarray, sizes: list) -> float:
    """Exact TV of two product distributions given by per-coordinate mass rows:
    ``rows`` is one (2, n, k_max) array, P's and Q's masses zero-padded, which
    for a FiniteProductPair is its stored ``masses`` array itself, and
    ``sizes`` the list of the n support sizes.

    TV is the sum over joint outcomes (a, b) of P_a P_b - Q_a Q_b where that is
    positive, i.e. where log P_b - log Q_b > log Q_a - log P_a. The coordinates
    are cut into halves A and B whose support sizes balance in log2; B is
    sorted by its log-likelihood ratio with suffix sums of P_b and Q_b, and
    each outcome a's term P_a sum P_b - Q_a sum Q_b reads the suffix of the
    ratios above its threshold.

    Every entry hands over rows of this one form, and ``_halves`` folds both
    halves' joint masses from it, each row cut to its support size. One
    ``_stable_order`` of B's ratios and A's thresholds together gives B's
    order, the stable argsort's element for element, so the suffix sums keep
    their bits, and each threshold's suffix index ``first`` (``_merged_order``).
    The suffix sums of P and Q come from one scan (``_tails``): a flat vector
    of 2 (|B| + 1) entries, row 0 the empty suffix and row r = |B| - first the
    suffix from sorted index first, its P-sum at 2 r and its Q-sum at 2 r + 1.
    The terms are added in A's block order.

    A half A of one live outcome has P_a = Q_a = 1.0: either split is 0, as
    on the closed form's one coordinate, or each of A's coordinates has one
    state with mass, which its normalized row holds as exactly 1.0. Then TV is
    Scheffe's sum over B of (P_b - Q_b)+, one rounded difference per outcome,
    and ``_scan_total`` adds the terms in B's block order, with no log, sort
    or search. Each term is within 2**-53 of its exact value, relatively, and
    the tree over the nonnegative terms has depth ceil(log2 |B|), so the value
    is within (ceil(log2 |B|) + 1) * 2**-53 * TV of the exact TV of the masses
    it receives, to first order in 2**-53.

    Otherwise, against the exact TV of the float masses it receives
    (Bernoulli rows taken as the exact complements 1 - p, p), the absolute
    error is at most (16 n + 8 log2 N + 32) * 2**-53 for n coordinates and
    joint support N: under 1e-13 for n <= 12 within the default budget.
    Identical sides give exactly 0.0 on either path: no outcome passes the
    strict ratio test, and every difference P_b - Q_b is 0.
    """
    half_a, half_b = map(_live, _halves(rows, sizes, _split(sizes)))
    if half_a.shape[1] == 1:
        terms = half_a[0, 0] * half_b[0]
        terms -= half_a[1, 0] * half_b[1]
        return min(1.0, _scan_total(np.maximum(0.0, terms, out=terms)))
    with np.errstate(divide="ignore"):
        ratio_b = _log_ratio(half_b)
        threshold_a = _log_ratio(half_a[::-1])
    order, first = _merged_order(ratio_b, threshold_a)
    # Row |B| - first of the suffix sums, as (P-sum, Q-sum) pairs.
    sums = _tails(half_b, order).reshape(-1, 2).take(order.size - first, axis=0)
    terms = half_a[0] * sums[:, 0]
    terms -= half_a[1] * sums[:, 1]
    np.maximum(0.0, terms, out=terms)
    # Unclamped, a disjoint pair can exceed 1 by a few ulps, inside the error bound.
    return min(1.0, _scan_total(terms))


def _exact_pair_tv(pair: FiniteProductPair, budget_log2: int | None) -> float:
    """The body of both enumeration entries: the budget rule on the support
    sizes, then the kernel on the pair's stored ``masses``, the kernel's rows
    as they are, with no copy."""
    sizes = pair.support_sizes.tolist()
    _check_budget(sizes, budget_log2)
    return _exact_tv(pair.masses, sizes)


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


def _binomial_rows(n: int, p: float, q: float) -> np.ndarray:
    """Binomial(n, p) and Binomial(n, q) masses on their Bernstein window, not
    normalized, as the two rows of one (2, W) array. Each row is 1.0 at its
    side's mode m = floor((n + 1) s), cut to the window, and filled outward by
    cumulative products of the exact mass ratios: (n - k)/(k + 1) times the
    odds s/(1 - s) upward, k/(n - k + 1) times (1 - s)/s downward. The count
    ratios serve both sides. Outward from the mode every ratio is at most 1,
    so nothing overflows and the tails underflow to exact zeros. At s = 0 or 1 the odds are 0 or inf and meet
    only an empty run, the mode being at that end of the window; a run below
    the mode needs m >= 1, so s >= 1/(n + 1) and dividing by the odds stays
    finite."""
    lo, hi = _bernstein_window(n, p, q)
    k = np.arange(lo, hi + 1, dtype=np.float64)
    up, down = (n - k[:-1]) / (k[:-1] + 1.0), k[1:] / (n - k[1:] + 1.0)
    rows = np.empty((2, k.size))
    for row, prob in zip(rows, (p, q)):
        mode = min(max(math.floor((n + 1) * prob), lo), hi) - lo
        odds = prob / (1.0 - prob) if prob < 1.0 else math.inf
        row[mode] = 1.0
        np.cumprod(up[mode:] * odds, out=row[mode + 1:])
        np.cumprod(down[:mode][::-1] / odds, out=row[:mode][::-1])
    return rows


def exact_tv_equal_marginals(n: int, p: float, q: float) -> float:
    """Exact TV for constant-parameter Bernoulli products.

    Outcome probabilities depend only on the number of ones, so this is the
    exact kernel (``_exact_tv``) on one coordinate of W states: the
    ``_binomial_rows`` masses, each row divided in place by its computed
    total (numpy's row-wise sum, the bits of each row's own sum). When the
    two sides' reaches (``_bernstein_window`` of p alone and of q alone) are
    disjoint, P holds at least 1 - 2 exp(-L) of its mass where Q holds at
    most 2 exp(-L), so TV >= 1 - 4 exp(-L) and 1.0 is returned without
    building rows.

    Otherwise the window's W = hi - lo + 1 counts are what the kernel
    enumerates, so W takes the budget rule of every exact entry
    (``_check_budget``) at the default 2**DEFAULT_BUDGET_LOG2, and a larger
    window raises EnumerationBudgetError, naming n, before any row is built.
    A window within the budget that reaches count 2**53, where doubles stop
    holding every count, raises ValueError naming n. The gap pair meets it
    past about n = 10**34, where its window, about 9 sqrt(n) counts wide,
    rounds to one count. A reach that overflows a double (n past about
    2e306) raises ValueError too. The rows and the kernel hold 48 bytes per
    count (a tracemalloc peak of 12.0 MiB at W = 2**18, n = 8.6e8 for the
    gap pair, and the same 48 just past a power of two), so a window at the
    budget, 2**26 counts (the gap pair near n = 5.6e13, past which it is
    refused), would take about 3.0 GiB.

    With W counts in the window and L = _WINDOW_NATS = 40, |value - TV| is at
    most the sum of
    - the kernel's one-coordinate term, (ceil(log2 W) + 1) 2**-53 TV,
      relative to the TV of the normalized rows: one rounded difference per
      count and their tree sum;
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
    rows = _binomial_rows(n, p, q)
    rows /= rows.sum(axis=1, keepdims=True)
    return _exact_tv(rows[:, None], [rows.shape[1]])


def marginal_tv(pair: FiniteProductPair) -> MarginalTV:
    """Per-coordinate TV distances of a product pair, each computed as half
    the l1 distance of the two marginals. ``bounds_report(pair).delta`` holds
    the Scheffé differences p - q instead. On a Bernoulli pair the two agree
    when every complement 1 - p_i and 1 - q_i is exact, as when all
    parameters are at least 1/2; where one rounds they may differ in the last
    bits (0.09999999999999999 here against 0.09999999999999998 there for
    p = 0.1, q = 0.2), as they may on other pairs."""
    deltas = 0.5 * _row_sums(np.abs(np.subtract(*_as_pair(pair).masses)))
    return MarginalTV(deltas)


def mc_tv_estimate(p, q, samples: int, confidence: float = 0.95,
                   seed: int = 0) -> TVEstimate:
    """Monte Carlo estimate of TV between Bernoulli products.

    Uses the identity TV = E_{X~P}[max(0, 1 - Q(X)/P(X))]; every sample term
    lies in [0, 1], so the half-width is the Hoeffding bound
    sqrt(ln(2/(1-confidence)) / (2*samples)). The stream is the raw PCG64
    words of ``np.random.default_rng(seed)``, in fixed-size batches of (m, n)
    uniforms, coordinate i of a sample being a one when its uniform is below
    p_i. The uniforms are not formed: ``Generator.random`` would make each
    raw 64-bit word w into u = (w >> 11) * 2**-53, so the test u < p_i is
    made exactly as the integer comparison w >> 11 < ceil(p_i * 2**53). These
    are the same draws and the same bits as comparing ``Generator.random``
    with p_i; p_i = 1 gives the cut 2**53 (always a one) and p_i = 0 the cut
    0 (never).

    Memory: one (n, m) array of outcome bits, one byte each, for the
    largest batch m = min(samples, 65536), which every batch reuses, plus
    words drawn in blocks of max(1, 131072 // n) samples: at most 1 MiB of
    words for n <= 131072 (one sample's n words past that). The blocks take
    the stream in the same order as one (m, n) draw would, and every batch
    sum is formed over the whole batch, so the block size changes no bit.
    Each block is freed before the next is drawn, and each batch's log
    ratios, which become its terms in place, before the next batch allocates
    its own, so beside the bits one block or one batch's arrays of m entries
    (its log ratios and, one coordinate at a time, the column added to them
    and take's int64 copy of the bits) is alive at a time.
    glibc gives freed memory at the top of its heap back to the system once
    it passes twice the mmap threshold, which rises to the largest block
    glibc has unmapped, and the next call faults those pages back in. A warm
    call reuses the pages of the call before it only while its footprint,
    with glibc's 128 KiB pad, stays under twice its largest array: with
    1 MiB blocks the shapes (n, samples) = (20, 20000) and (30, 10000) take
    no minor fault a call; with 512 KiB blocks, (20, 20000), whose 400 KB of
    bits are close to one block, took 193.

    Each sample's log-likelihood ratio log Q(X) - log P(X) is summed one
    coordinate at a time, left to right, from log q_i - log p_i for a one and
    log1p(-q_i) - log1p(-p_i) for a zero; the term is -expm1(min(llr, 0)),
    which stays accurate where 1 - Q/P cancels and cannot underflow. A state
    Q cannot produce (q_i = 0 hit by a one, q_i = 1 hit by a zero) has log
    ratio -inf, which marks the sample: no log ratio is +inf, so its sum stays
    -inf and its term is exactly 1. The order of every operation is fixed (no
    BLAS, whose summation order depends on the build and thread count), so
    the estimate is a pure function of (seed, samples); ``seed``, the seed of
    ``np.random.default_rng``, must be an integer in [0, 2**128).

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
    bit_gen = np.random.PCG64(int(seed))
    batch_sums = []
    done = 0
    # Outcome bits (True for a one), one row per coordinate; a batch of m
    # samples fills the first m columns block by block from the words'
    # transposed view, and each row's first m bytes are contiguous.
    bits = np.empty((pa.size, min(_MC_BATCH, samples)), dtype=bool)
    rows = max(1, _MC_BLOCK_WORDS // pa.size)
    while done < samples:
        m = min(_MC_BATCH, samples - done)
        for start in range(0, m, rows):
            words = bit_gen.random_raw((min(rows, m - start), pa.size))
            words >>= np.uint64(11)
            np.less(words.T, cuts[:, None], out=bits[:, start:start + len(words)])
            del words  # before the next block is drawn
        llr = np.zeros(m)
        for coord_bits, coord_ratios in zip(bits[:, :m].view(np.uint8), log_ratios):
            llr += coord_ratios.take(coord_bits)
        # The terms -expm1(min(llr, 0)), in place.
        np.negative(np.expm1(np.minimum(llr, 0.0, out=llr), out=llr), out=llr)
        batch_sums.append(float(llr.sum()))
        del llr  # before the next batch allocates its own
        done += m
    # The terms of an identical pair are -expm1(0) = -0.0; adding 0.0 makes
    # the value 0.0 whichever way a sum of them rounds its sign.
    value = _scan_total(np.array(batch_sums)) / samples + 0.0
    half_width = math.sqrt(math.log(2.0 / (1.0 - confidence)) / (2.0 * samples))
    return TVEstimate(value=value, half_width=half_width,
                      confidence=float(confidence), samples=samples)
