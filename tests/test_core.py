import itertools
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prodtv as tv
from oracles import (
    GAP_TV_PQ_BOUND,
    binomial_pmf_reference,
    binomial_row_bound,
    binomial_row_l1_mpmath,
    binomial_row_loop,
    equal_marginals_error_bound,
    equal_marginals_mpmath,
    exact_kernel_reference,
    gap_tv_pq_mpmath,
    mc_estimate_reference,
    mc_product_reference,
    random_bernoulli_pair,
    random_product_pair,
    scan_reference,
    tv_bernoulli_brute,
    tv_fraction,
    tv_fraction_bernoulli,
    tv_general_brute,
)

bernoulli_pairs = st.integers(1, 8).flatmap(
    lambda n: st.tuples(
        st.lists(st.floats(0, 1), min_size=n, max_size=n),
        st.lists(st.floats(0, 1), min_size=n, max_size=n),
    )
)


class TestExactBernoulli:
    def test_disjoint_support(self):
        assert tv.exact_tv_bernoulli([1.0], [0.0]) == 1.0

    def test_identical(self):
        assert tv.exact_tv_bernoulli([0.5, 0.5], [0.5, 0.5]) == 0.0

    def test_half_vs_zero(self):
        assert tv.exact_tv_bernoulli([0.5, 0.5], [0.0, 0.0]) == pytest.approx(0.75, abs=1e-15)

    def test_half_vs_one(self):
        # hand enumeration: outcomes (0,0),(0,1),(1,0) have q-mass 0 and p-mass
        # 0.25 each; outcome (1,1) has masses 0.25 vs 1.
        assert tv.exact_tv_bernoulli([0.5, 0.5], [1.0, 1.0]) == pytest.approx(0.75, abs=1e-15)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(101)
        for _ in range(200):
            p, q = random_bernoulli_pair(rng, 10)
            assert tv.exact_tv_bernoulli(p, q) == pytest.approx(
                tv_bernoulli_brute(p, q), abs=1e-12
            )

    @settings(max_examples=150, deadline=None)
    @given(bernoulli_pairs)
    def test_swap_and_joint_relabel_invariance(self, pq):
        p, q = pq
        base = tv.exact_tv_bernoulli(p, q)
        assert tv.exact_tv_bernoulli(q, p) == pytest.approx(base, abs=1e-12)
        flipped_p = [1.0 - x for x in p]
        flipped_q = [1.0 - x for x in q]
        assert tv.exact_tv_bernoulli(flipped_p, flipped_q) == pytest.approx(base, abs=1e-12)

    def test_range_and_zero_iff_identical(self):
        rng = np.random.default_rng(102)
        for _ in range(200):
            p, q = random_bernoulli_pair(rng, 8)
            value = tv.exact_tv_bernoulli(p, q)
            assert 0.0 <= value <= 1.0
            if np.max(np.abs(p - q)) > 1e-6:
                assert value > 0.0
            assert tv.exact_tv_bernoulli(p, p) == 0.0

    def test_repeat_calls_bit_identical(self):
        rng = np.random.default_rng(103)
        p, q = rng.random(14), rng.random(14)
        assert tv.exact_tv_bernoulli(p, q) == tv.exact_tv_bernoulli(p, q)

    def test_worker_count_does_not_change_bits(self):
        rng = np.random.default_rng(104)
        p, q = rng.random(19), rng.random(19)
        results = {tv.exact_tv_bernoulli(p, q, workers=w) for w in (1, 4, 8)}
        assert len(results) == 1

    def test_budget(self):
        with pytest.raises(tv.EnumerationBudgetError):
            tv.exact_tv_bernoulli([0.5] * 27, [0.4] * 27)
        with pytest.raises(tv.EnumerationBudgetError):
            tv.exact_tv_bernoulli([0.5] * 5, [0.4] * 5, budget_log2=4)
        # raising the budget re-enables the call
        assert tv.exact_tv_bernoulli([0.5] * 5, [0.4] * 5, budget_log2=5) >= 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(tv.DimensionMismatchError):
            tv.exact_tv_bernoulli([0.5, 0.5], [0.5])


class TestExactGeneral:
    def test_three_point_example(self):
        pair = tv.FiniteProductPair(([1 / 3, 1 / 3, 1 / 3],), ([1 / 2, 1 / 4, 1 / 4],))
        assert tv.exact_tv_general(pair) == pytest.approx(1 / 6, abs=1e-15)

    def test_identical_sides(self):
        pair = tv.FiniteProductPair(([0.2, 0.3, 0.5], [0.9, 0.1]),
                                    ([0.2, 0.3, 0.5], [0.9, 0.1]))
        assert tv.exact_tv_general(pair) == 0.0

    def test_disjoint_supports(self):
        pair = tv.FiniteProductPair(([1.0, 0.0], [1.0, 0.0]),
                                    ([0.0, 1.0], [0.0, 1.0]))
        assert tv.exact_tv_general(pair) == 1.0

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(105)
        for _ in range(150):
            pair = random_product_pair(rng, n_max=4, support_max=4)
            expected = tv_general_brute(
                [d.masses for d in pair.p_side], [d.masses for d in pair.q_side]
            )
            assert tv.exact_tv_general(pair) == pytest.approx(expected, abs=1e-12)

    def test_agrees_with_bernoulli_on_two_point_pairs(self):
        rng = np.random.default_rng(106)
        for _ in range(200):
            p, q = random_bernoulli_pair(rng, 12)
            pair = tv.FiniteProductPair.from_bernoulli(p, q)
            assert tv.exact_tv_general(pair) == tv.exact_tv_bernoulli(p, q)

    def test_worker_count_does_not_change_bits(self):
        rng = np.random.default_rng(107)
        pair = random_product_pair(rng, n_max=9, support_max=4, zero_prob=0.0)
        results = {tv.exact_tv_general(pair, workers=w) for w in (1, 4, 8)}
        assert len(results) == 1

    def test_budget(self):
        pair = tv.FiniteProductPair.from_bernoulli([0.5] * 8, [0.4] * 8)
        with pytest.raises(tv.EnumerationBudgetError):
            tv.exact_tv_general(pair, budget_log2=7)


class TestBudgetRule:
    """Both exact entries take the one budget rule: joint support <= 2**budget."""

    def test_support_at_budget_runs_and_above_is_refused(self):
        pair = tv.FiniteProductPair.from_bernoulli([0.5] * 3, [0.4] * 3)
        assert tv.exact_tv_general(pair, budget_log2=3) >= 0.0
        assert tv.exact_tv_bernoulli([0.5] * 3, [0.4] * 3, budget_log2=3) >= 0.0
        three = tv.FiniteProductPair(([0.2, 0.3, 0.5],) * 2, ([0.5, 0.3, 0.2],) * 2)
        with pytest.raises(tv.EnumerationBudgetError):
            tv.exact_tv_general(three, budget_log2=3)
        assert tv.exact_tv_general(three, budget_log2=4) >= 0.0

    @pytest.mark.parametrize("budget", [-1, -5])
    def test_negative_budget_refuses_both_shapes_alike(self, budget):
        p, q = [0.5, 0.2], [0.4, 0.7]
        with pytest.raises(tv.EnumerationBudgetError) as bernoulli:
            tv.exact_tv_bernoulli(p, q, budget_log2=budget)
        with pytest.raises(tv.EnumerationBudgetError) as general:
            tv.exact_tv_general(tv.FiniteProductPair.from_bernoulli(p, q), budget_log2=budget)
        assert str(bernoulli.value) == str(general.value)
        assert str(general.value) == (
            f"joint support exceeds the 2^{budget} enumeration budget (n = 2)")

    def test_support_beyond_int_string_limit_is_refused(self):
        # 2**15000 has 4516 digits, past the 4300 that str(int) accepts.
        pair = tv.FiniteProductPair.from_bernoulli([0.5] * 15000, [0.4] * 15000)
        with pytest.raises(tv.EnumerationBudgetError, match=r"\(n = 15000\)$"):
            tv.exact_tv_general(pair)
        with pytest.raises(tv.EnumerationBudgetError, match=r"\(n = 15000\)$"):
            tv.exact_tv_bernoulli([0.5] * 15000, [0.4] * 15000)

    def test_refusal_builds_no_rows(self, monkeypatch):
        monkeypatch.setattr(tv.core, "_exact_tv", lambda *args: pytest.fail("kernel reached"))
        sizes = [3] * 100_000
        pair = tv.FiniteProductPair([[0.2, 0.3, 0.5]] * len(sizes),
                                    [[0.5, 0.3, 0.2]] * len(sizes))
        with pytest.raises(tv.EnumerationBudgetError):
            tv.exact_tv_general(pair)


class TestClosedFormBudget:
    """The closed form's window W takes the same rule at the default budget,
    after the disjoint-reach shortcut and before any row is built. A window
    that doubles cannot hold, within the budget, raises ValueError naming n."""

    @pytest.fixture
    def no_rows(self, monkeypatch):
        monkeypatch.setattr(tv.core, "_binomial_rows",
                            lambda *args: pytest.fail("rows built"))

    def test_refusal_names_the_callers_n(self, no_rows):
        n = 10 ** 20
        message = f"joint support exceeds the 2^26 enumeration budget (n = {n})"
        with pytest.raises(tv.EnumerationBudgetError) as info:
            tv.gap_ratio_exact(n)
        assert str(info.value) == message
        with pytest.raises(tv.EnumerationBudgetError) as info:
            tv.exact_tv_equal_marginals(n, 0.3, 0.3)
        assert str(info.value) == message

    def test_gap_window_of_one_count_past_2_53(self, no_rows):
        """Past about 10**34 the gap pair's window rounds to one count (its
        parameters are one double from 2**54); that count is past 2**53."""
        n = 10 ** 36
        p, q = 0.5 + 0.5 / n, 0.5 - 0.5 / n
        lo, hi = tv.core._bernstein_window(n, p, q)
        assert p == q and lo == hi >= 2 ** 53
        with pytest.raises(ValueError, match=rf"^n = {n} is too large for the closed form: "
                                             "its window reaches count 2\\*\\*53"):
            tv.gap_ratio_exact(n)

    @pytest.mark.parametrize("p, q", [(0.5, 0.5), (0.0, 0.5)])  # a reach of inf, or NaN
    def test_reach_overflow_names_n(self, no_rows, p, q):
        n = 10 ** 308
        with pytest.raises(ValueError, match=rf"^n = {n} is too large for the closed form: "
                                             "the binomial window's reach overflows a double$"):
            tv.exact_tv_equal_marginals(n, p, q)

    def test_gap_reach_overflow_names_n(self, no_rows):
        n = 10 ** 308
        with pytest.raises(ValueError, match=rf"^n = {n} is too large for the closed form"):
            tv.gap_ratio_exact(n)

    def test_window_end_past_n_is_cut(self, no_rows):
        """Past 2**53 the float n * p may exceed n. p = q = 1 at n = 10**36 once
        gave two windows above [n, n] and so 1.0 for identical sides; now both
        are [n, n], and the count past 2**53 raises. Disjoint sides still
        give 1.0."""
        n = 10 ** 36
        assert tv.core._bernstein_window(n, 1.0, 1.0) == (n, n)
        with pytest.raises(ValueError, match=rf"^n = {n} is too large"):
            tv.exact_tv_equal_marginals(n, 1.0, 1.0)
        assert tv.exact_tv_equal_marginals(n, 0.0, 1.0) == 1.0

    def test_disjoint_reaches_past_the_cap_return_one(self, no_rows):
        n = 10 ** 12
        lo, hi = tv.core._bernstein_window(n, 0.3, 0.31)
        assert hi - lo + 1 > 9 * 10 ** 9  # the hull holds about 10**10 counts
        assert tv.exact_tv_equal_marginals(n, 0.3, 0.31) == 1.0

    def test_window_checked_is_the_rows_window(self, monkeypatch):
        """The window the rule is given is the hull _binomial_rows fills."""
        seen = []
        monkeypatch.setattr(tv.core, "_check_budget", lambda sizes, *args: seen.append(sizes))
        rng = np.random.default_rng(114)
        for n, p, q in [(1, 0.5, 0.5), (50, 0.0, 1.0 / 50), (10 ** 6, 0.3, 0.3001)] + [
                (int(rng.integers(1, 10 ** 6)), *rng.random(2).tolist()) for _ in range(40)]:
            if reaches_overlap(n, p, q):
                seen.clear()
                tv.exact_tv_equal_marginals(n, p, q)
                lo, hi = tv.core._bernstein_window(n, p, q)
                assert seen == [[hi - lo + 1]], (n, p, q)

    def test_window_at_the_budget_runs(self, monkeypatch):
        """A window of 2**k counts passes a budget of k and fails one of k - 1."""
        n, p = 10 ** 6, 0.3
        lo, hi = tv.core._bernstein_window(n, p, p)
        size = hi - lo + 1
        k = (size - 1).bit_length()
        monkeypatch.setattr(tv.core, "DEFAULT_BUDGET_LOG2", k)
        assert tv.exact_tv_equal_marginals(n, p, p) == 0.0
        monkeypatch.setattr(tv.core, "DEFAULT_BUDGET_LOG2", k - 1)
        with pytest.raises(tv.EnumerationBudgetError, match=rf"\(n = {n}\)$"):
            tv.exact_tv_equal_marginals(n, p, p)


def exact_error_bound(n, joint_support):
    """The exact kernel's documented absolute error bound."""
    return (16 * n + 8 * math.log2(joint_support) + 32) * 2.0 ** -53


def _bernoulli_contract_cases():
    rng = np.random.default_rng(111)
    signs = rng.choice((-1.0, 1.0), size=12)
    base = rng.uniform(0.05, 0.95, 12)
    # p_i = q_i in {0, 1} at coordinates 0, 2 (first half) and 9, 11 (second
    # half), so each half has outcomes of zero mass on both sides; 4 and 7
    # are null on one side only.
    zero_p, zero_q = rng.random(12), rng.random(12)
    zero_p[[0, 2, 9, 11]] = zero_q[[0, 2, 9, 11]] = (0.0, 1.0, 0.0, 1.0)
    zero_p[[4, 7]] = (1.0, 0.0)
    disjoint_p, disjoint_q = rng.random(12), rng.random(12)
    disjoint_p[5], disjoint_q[5] = 1.0, 0.0
    return {
        "random": (rng.random(12), rng.random(12)),
        "random_n3": (rng.random(3), rng.random(3)),
        "zero_one": (zero_p, zero_q),
        "near_identical": (base, base + 3e-11 * signs),
        "symmetric": (base, 1.0 - base),
        "disjoint": (disjoint_p, disjoint_q),
        "identical": (base, base.copy()),
        "constant": (np.full(12, 0.3), np.full(12, 0.45)),
        "constant_near": (np.full(12, 0.3), np.full(12, 0.3 + 1e-11)),
        "constant_disjoint": (np.full(7, 1.0), np.full(7, 0.0)),
        "constant_identical": (np.full(12, 0.7), np.full(12, 0.7)),
    }


BERNOULLI_CONTRACT = _bernoulli_contract_cases()


def _general_contract_cases():
    rng = np.random.default_rng(112)
    sizes = (2, 3, 4, 2, 3, 4, 2)
    rows = [rng.dirichlet(np.ones(k)) for k in sizes]
    other = [rng.dirichlet(np.ones(k)) for k in sizes]
    near = [r * np.exp(3e-11 * rng.choice((-1.0, 1.0), r.size)) for r in rows]
    shared_zero_p = [r.copy() for r in rows]
    shared_zero_q = [r.copy() for r in other]
    for i in (0, 1, 5, 6):  # a state null on both sides, in both halves
        shared_zero_p[i][0] = shared_zero_q[i][0] = 0.0
    disjoint_q = [r.copy() for r in other]
    rows_disjoint = [r.copy() for r in rows]
    rows_disjoint[3], disjoint_q[3] = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    return {
        "random": (rows, other),
        "near_identical": (rows, [r / r.sum() for r in near]),
        "shared_zero": ([r / r.sum() for r in shared_zero_p],
                        [r / r.sum() for r in shared_zero_q]),
        "disjoint": (rows_disjoint, disjoint_q),
        "identical": (rows, [r.copy() for r in rows]),
    }


GENERAL_CONTRACT = _general_contract_cases()


def _assert_within(value, exact, bound):
    assert bound <= 1e-13
    assert 0.0 <= value <= 1.0
    assert abs(Fraction(value) - exact) <= bound, (value, float(exact), bound)


@pytest.mark.filterwarnings("error::RuntimeWarning")  # e.g. NaN from log 0 - log 0
class TestErrorContract:
    """Every exact path against exact rational TV, within the documented bound."""

    @pytest.mark.parametrize("name", sorted(BERNOULLI_CONTRACT))
    def test_bernoulli_paths(self, name):
        p, q = BERNOULLI_CONTRACT[name]
        n = p.size
        exact = tv_fraction_bernoulli(p, q)
        bound = exact_error_bound(n, 2 ** n)
        values = [tv.exact_tv_bernoulli(p, q),
                  tv.exact_tv_general(tv.FiniteProductPair.from_bernoulli(p, q))]
        if name.startswith("constant"):
            values.append(tv.exact_tv_equal_marginals(n, float(p[0]), float(q[0])))
        for value in values:
            _assert_within(value, exact, bound)
        if name in ("identical", "constant_identical"):
            assert values == [0.0] * len(values)
        if name in ("disjoint", "constant_disjoint"):
            assert exact == 1
        if name in ("near_identical", "constant_near"):
            assert 1e-11 < exact < 1e-9

    @pytest.mark.parametrize("name", sorted(GENERAL_CONTRACT))
    def test_general_rows(self, name):
        pair = tv.FiniteProductPair(*map(tuple, GENERAL_CONTRACT[name]))
        p_rows = [d.masses for d in pair.p_side]
        q_rows = [d.masses for d in pair.q_side]
        exact = tv_fraction(p_rows, q_rows)
        value = tv.exact_tv_general(pair)
        bound = exact_error_bound(pair.n, pair.joint_support())
        _assert_within(value, exact, bound)
        if name == "identical":
            assert value == 0.0
        if name == "disjoint":
            # Normalized float rows sum to 1 only within rounding.
            assert abs(value - 1.0) <= bound
        if name == "near_identical":
            assert 1e-11 < exact < 1e-9


def _rows(rng, sizes):
    rows = []
    for k in sizes:
        row = rng.random(k)
        if k > 2 and rng.random() < 0.5:
            row[int(rng.integers(k))] = 0.0
        rows.append(row / row.sum())
    return tuple(rows)


class TestSplitCoverage:
    """Unbalanced support sizes put the split where one half dominates or is empty."""

    @pytest.mark.parametrize("sizes", [
        (40,) + (2,) * 7,
        (2,) * 7 + (40,),
        (2, 40, 2),
        (5,),
        (2,),
        (2, 3, 4, 3, 2, 4),
        (4, 4, 3, 2, 2, 2, 2, 3),
    ], ids=str)
    def test_matches_bruteforce(self, sizes):
        rng = np.random.default_rng(113)
        for _ in range(5):
            p_rows, q_rows = _rows(rng, sizes), _rows(rng, sizes)
            pair = tv.FiniteProductPair(p_rows, q_rows)
            expected = tv_general_brute([d.masses for d in pair.p_side],
                                        [d.masses for d in pair.q_side])
            assert tv.exact_tv_general(pair) == pytest.approx(expected, abs=1e-12)

    def test_raised_budget_reaches_n36(self):
        n, p, q = 36, 0.3, 0.36
        value = tv.exact_tv_bernoulli([p] * n, [q] * n, budget_log2=36)
        assert value == pytest.approx(tv.exact_tv_equal_marginals(n, p, q), abs=1e-12)


class TestEqualMarginals:
    def test_half_vs_zero(self):
        assert tv.exact_tv_equal_marginals(2, 0.5, 0.0) == pytest.approx(0.75, abs=1e-12)

    def test_equal_parameters(self):
        assert tv.exact_tv_equal_marginals(10, 0.3, 0.3) == 0.0

    def test_matches_bernoulli_oracle(self):
        assert tv.exact_tv_equal_marginals(3, 0.5, 0.25) == pytest.approx(
            tv.exact_tv_bernoulli([0.5] * 3, [0.25] * 3), abs=1e-12
        )

    def test_random_agreement_up_to_n20(self):
        rng = np.random.default_rng(108)
        for _ in range(60):
            n = int(rng.integers(1, 21))
            p, q = float(rng.random()), float(rng.random())
            assert tv.exact_tv_equal_marginals(n, p, q) == pytest.approx(
                tv.exact_tv_bernoulli([p] * n, [q] * n), abs=1e-10
            )

    def test_boundary_parameters(self):
        assert tv.exact_tv_equal_marginals(5, 1.0, 0.0) == 1.0
        assert tv.exact_tv_equal_marginals(1, 1.0, 1.0) == 0.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            tv.exact_tv_equal_marginals(0, 0.5, 0.5)
        with pytest.raises(ValueError):
            tv.exact_tv_equal_marginals(3, 1.5, 0.5)


def kernel(p_rows, q_rows):
    """``_exact_tv`` on per-coordinate mass rows of any lengths, zero-padded
    into the one (2, n, k_max) array it takes."""
    sizes = [len(row) for row in p_rows]
    rows = np.zeros((2, len(sizes), max(sizes)))
    for side, side_rows in zip(rows, (p_rows, q_rows)):
        for padded, row in zip(side, side_rows):
            padded[:len(row)] = row
    return tv.core._exact_tv(rows, sizes)


def kernel_on_rows(n, p, q):
    """The exact kernel on the _binomial_rows, each divided by its total."""
    rows = tv.core._binomial_rows(n, p, q)
    return kernel(*([row / row.sum()] for row in rows))


def reaches_overlap(n, p, q):
    """Whether the Bernstein reaches of p alone and of q alone meet."""
    (lo_p, hi_p), (lo_q, hi_q) = (tv.core._bernstein_window(n, s, s) for s in (p, q))
    return lo_p <= hi_q and lo_q <= hi_p


class TestEqualMarginalsWindow:
    """The windowed rows hold the full-range masses bit for bit, lie within
    the documented bound of mpmath, drop at most 2 exp(-L) per side, and the
    closed form is the kernel on them."""

    SIZES = (1, 2, 3, 7, 50, 999, 1000, 4096, 31000, 91000, 250000)

    @staticmethod
    def pairs(n, rng):
        inv = 1.0 / n
        fixed = [(inv, 0.0), (0.5 + 0.5 * inv, 0.5 - 0.5 * inv), (0.0, 1.0), (1.0, 0.0),
                 (0.3, 0.3), (5e-324, 0.0), (1e-12, 0.5), (1.0 - 1e-12, 1.0),
                 (5e-324, 1.0 - 1e-12)]
        # Odds of 0 or inf, and the smallest and largest odds between them.
        infinite = [(0.0, 0.3), (1.0, 0.3), (0.3, 0.0), (0.3, 1.0), (0.0, 0.0), (1.0, 1.0),
                    (0.0, 5e-324), (1.0, 1.0 - 1e-16)]
        drawn = [tuple(rng.random(2).tolist()) for _ in range(3)]
        near = [(x, x + 1e-3 * float(rng.random())) for x in rng.random(2).tolist()]
        return fixed + infinite + drawn + near

    @pytest.mark.parametrize("n", SIZES)
    def test_bit_identical_to_full_range(self, n):
        """Each mass on the window equals, bit for bit, a plain loop's over
        all counts 0..n: cutting to the window changes no mass."""
        rng = np.random.default_rng(130 + n)
        for p, q in self.pairs(n, rng):
            lo, hi = tv.core._bernstein_window(n, p, q)
            for row, prob in zip(tv.core._binomial_rows(n, p, q), (p, q)):
                expected = binomial_row_loop(n, prob)[lo:hi + 1]
                assert row.tobytes() == expected.tobytes(), (n, p, q, prob)

    @pytest.mark.parametrize("n", SIZES)
    def test_rows_within_bound_of_mpmath(self, n):
        """Each normalized row lies within the documented per-row bound of the
        mpmath pmf in l1, up to 4 exp(-L): the window's normalization and the
        pmf outside the side's own reach, which the oracle compares with 0."""
        rng = np.random.default_rng(130 + n)
        slack = 4.0 * math.exp(-tv.core._WINDOW_NATS)
        for p, q in self.pairs(n, rng):
            lo, _ = tv.core._bernstein_window(n, p, q)
            for row, prob in zip(tv.core._binomial_rows(n, p, q), (p, q)):
                error = binomial_row_l1_mpmath(n, prob, lo, row / row.sum())
                assert error <= binomial_row_bound(row.size) + slack, \
                    (n, p, q, prob, float(error))

    @pytest.mark.parametrize("n", SIZES)
    def test_no_nonzero_mass_outside_window(self, n):
        """The rows hold no count outside the window, and the reference mass
        there, which the rows drop, is at most 2 exp(-L) per side."""
        rng = np.random.default_rng(130 + n)
        dropped_bound = 2.0 * math.exp(-tv.core._WINDOW_NATS)
        for p, q in self.pairs(n, rng):
            lo, hi = tv.core._bernstein_window(n, p, q)
            assert 0 <= lo <= hi <= n
            assert [row.size for row in tv.core._binomial_rows(n, p, q)] == [hi - lo + 1] * 2
            for prob in (p, q):
                pmf = binomial_pmf_reference(n, prob)
                dropped = math.fsum(pmf[:lo]) + math.fsum(pmf[hi + 1:])
                assert dropped <= dropped_bound, (n, p, q, prob, dropped)

    def test_window_is_narrow_at_large_n(self):
        n = 91000
        lo, hi = tv.core._bernstein_window(n, 1.0 / n, 0.0)
        assert hi - lo < 40
        lo, hi = tv.core._bernstein_window(n, 0.5 + 0.5 / n, 0.5 - 0.5 / n)
        assert hi - lo < 2800

    @pytest.mark.parametrize("n", SIZES)
    def test_gap_ratio_bit_identical(self, n):
        """gap_ratio_exact is the gap's tv_pq, within its bound of mpmath,
        over the kernel on the symmetric pair's normalized rows, bit for bit.
        Each closed-form value is the kernel on the normalized rows, bit for
        bit, where the two reaches overlap; where they are disjoint the value
        is 1.0, within the bound of the kernel's."""
        inv = 1.0 / n
        tv_pq, exact = tv.extremal._gap_scalars(n)[0], gap_tv_pq_mpmath(n)
        assert abs(tv_pq - exact) <= GAP_TV_PQ_BOUND * exact
        expected = tv_pq / kernel_on_rows(n, 0.5 + 0.5 * inv, 0.5 - 0.5 * inv)
        assert tv.gap_ratio_exact(n).hex() == expected.hex()
        for p, q in self.pairs(n, np.random.default_rng(130 + n)):
            value, kernel = tv.exact_tv_equal_marginals(n, p, q), kernel_on_rows(n, p, q)
            if reaches_overlap(n, p, q):
                assert value.hex() == kernel.hex(), (n, p, q)
            else:
                assert value == 1.0, (n, p, q)
                assert 1.0 - kernel <= equal_marginals_error_bound(n, p, q), (n, p, q)


class TestEqualMarginalsErrorBound:
    """The closed form lies within its documented error bound of independent
    oracles: mpmath up to n = 10**7 and exact rationals for n <= 12."""

    # Pairs whose two binomials sit far apart, or at the ends of [0, 1].
    WIDE = [(0.3, 0.9), (0.0, 1.0), (1.0, 0.0), (0.3, 0.3), (5e-324, 0.0), (1e-12, 0.5),
            (1.0 - 1e-12, 1.0), (5e-324, 1.0 - 1e-12)]

    @staticmethod
    def narrow(n):
        inv = 1.0 / n
        return [(0.5 + 0.5 * inv, 0.5 - 0.5 * inv), (inv, 0.0), (0.01, 0.0101)]

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 12, 50, 999, 4096, 31000, 91000, 10 ** 5,
                                   10 ** 6, 10 ** 7])
    def test_within_bound_of_mpmath(self, n):
        pairs = self.narrow(n) + self.WIDE
        for p, q in pairs:
            value = tv.exact_tv_equal_marginals(n, p, q)
            exact = equal_marginals_mpmath(n, p, q)
            error = abs(value - exact)
            assert error <= equal_marginals_error_bound(n, p, q), (n, p, q, float(error))
            if (p, q) == pairs[1]:
                # (1/n, 0): the log-gamma masses used before lost 5.4e-9 of TV
                # at n = 10**7 to cancellation.
                assert error <= 1e-12 * exact, (n, float(error / exact))
            if (p, q) == pairs[0] and n >= 31000:
                # Far inside the bound; without the row normalization the gap
                # pair's error was 3.6e-8 of TV at n = 10**6 and 1.1e-6 at 10**7.
                assert error <= 1e-9 * exact, (n, float(error / exact))

    def test_within_bound_of_fraction_oracle(self):
        for n in (1, 2, 3, 5, 8, 12):
            for p, q in self.narrow(n) + self.WIDE + [(0.25, 0.5), (0.7, 0.1)]:
                if n > 3 and p == 5e-324:  # rationals of 2**-1074 grow slow; mpmath covers it
                    continue
                exact = tv_fraction_bernoulli([p] * n, [q] * n)
                value = tv.exact_tv_equal_marginals(n, p, q)
                assert abs(Fraction(value) - exact) <= equal_marginals_error_bound(n, p, q), \
                    (n, p, q)

    def test_memory_stays_small_at_n_1e8(self):
        import tracemalloc

        n = 10 ** 8
        tracemalloc.start()
        try:
            tv.exact_tv_equal_marginals(n, 0.5 + 0.5 / n, 0.5 - 0.5 / n)
            tv.exact_tv_equal_marginals(n, 1.0 / n, 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100e6, peak

    def test_far_pair_builds_no_rows(self):
        """Disjoint reaches return 1.0 at once; the hull of (0.3, 0.9) at
        n = 10**7 would hold 6.3e6 counts."""
        import tracemalloc

        tracemalloc.start()
        try:
            value = tv.exact_tv_equal_marginals(10 ** 7, 0.3, 0.9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == 1.0
        assert peak < 1e6, peak


class TestRowSums:
    """The two-state column add is numpy's row sum, bit for bit."""

    SPECIALS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0,
                np.inf, -np.inf, np.nan]

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_matches_sum(self, width):
        rng = np.random.default_rng(404 + width)
        every = np.array(list(itertools.product(self.SPECIALS, repeat=width)))
        mixed = rng.choice(self.SPECIALS, (500, width)) * rng.random((500, width))
        masses = np.concatenate((every, mixed, rng.random((100, width))))
        with np.errstate(invalid="ignore"):
            got, want = tv.core._row_sums(masses), masses.sum(axis=1)
        assert [float(x).hex() for x in got] == [float(x).hex() for x in want]


class TestScanTotal:
    """The kernel's O(N) total is the last element of the full scan, bit for bit."""

    @staticmethod
    def values(rng, size):
        """Nonnegative values over many magnitudes, with zeros, so that any
        change in the order of additions shows in the rounding."""
        values = rng.random(size) * 10.0 ** rng.uniform(-30.0, 0.0, size)
        values[rng.random(size) < 0.1] = 0.0
        return values

    def test_every_length_to_2099(self):
        rng = np.random.default_rng(401)
        for size in range(1, 2100):
            values = self.values(rng, size)
            assert (tv.core._scan_total(values).hex()
                    == float(scan_reference(values)[-1]).hex()), size

    @pytest.mark.parametrize("log2", range(1, 17))
    def test_around_powers_of_two(self, log2):
        rng = np.random.default_rng(402 + log2)
        for size in (2 ** log2 - 1, 2 ** log2, 2 ** log2 + 1):
            values = self.values(rng, size)
            assert (tv.core._scan_total(values).hex()
                    == float(scan_reference(values)[-1]).hex()), size

    def test_edge_values(self):
        for values in ([0.0], [5e-324], [1.0, 2.0 ** -53, 2.0 ** -53],
                       [0.0] * 7, [2.0 ** -53] * 5 + [1.0], [1e-300, 1e300, 0.0]):
            values = np.array(values)
            assert (tv.core._scan_total(values).hex()
                    == float(scan_reference(values)[-1]).hex()), values

    @pytest.mark.parametrize("size", [1, 2, 3, 1023, 1024, 1025, 2 ** 13 - 1, 2 ** 13 + 1])
    def test_every_prefix(self, size):
        """Each prefix of the full scan is the total of the values up to it."""
        values = self.values(np.random.default_rng(405 + size), size)
        scan = scan_reference(values)
        for i in range(size):
            assert tv.core._scan_total(values[:i + 1]).hex() == float(scan[i]).hex(), (size, i)

    @staticmethod
    def tie_heavy_pair(rng, n):
        """A Bernoulli pair whose half-outcomes share many ratios: parameters
        0 or 1 with q equal or nearby, a few repeated values, or q = 1 - p."""
        kind = int(rng.integers(3))
        if kind == 0:
            pa = rng.integers(0, 2, n).astype(float)
            nudge = rng.choice([0.0, 1e-12, 0.01, 0.3], n)
            return pa, np.clip(np.where(pa == 1.0, pa - nudge, pa + nudge), 0.0, 1.0)
        values = rng.random(int(rng.integers(1, 4)))
        pa = rng.choice(values, n)
        return pa, (1.0 - pa if kind == 1 else rng.choice(values, n))

    def test_kernel_bit_identical(self):
        rng = np.random.default_rng(403)
        for _ in range(300):
            pa, qa = random_bernoulli_pair(rng, 14)
            rows = (np.stack((1.0 - pa, pa), axis=1), np.stack((1.0 - qa, qa), axis=1))
            assert (kernel(*rows).hex()
                    == exact_kernel_reference(*rows).hex()), (pa, qa)
        for _ in range(300):
            pair = random_product_pair(rng, n_max=8, support_max=5)
            rows = ([d.masses for d in pair.p_side], [d.masses for d in pair.q_side])
            assert (kernel(*rows).hex()
                    == exact_kernel_reference(*rows).hex())
        for case, rows in GENERAL_CONTRACT.items():
            assert (kernel(*rows).hex()
                    == exact_kernel_reference(*rows).hex()), case
        # Large halves, where the order in which half A is searched matters,
        # and pairs whose half-outcomes tie in ratio.
        pairs = [(rng.random(n), rng.random(n)) for n in range(20, 25)]
        pairs += [self.tie_heavy_pair(rng, int(rng.integers(1, 25))) for _ in range(60)]
        # Halves of 2**13 outcomes (n = 26), where both take the keyed order,
        # and pairs with seven q_i in {0, 1}, whose half B ties at +inf.
        pairs += [(rng.random(26), rng.random(26)) for _ in range(3)]
        for _ in range(3):
            pa, qa = rng.random(26), rng.random(26)
            qa[rng.choice(26, 7, replace=False)] = rng.integers(0, 2, 7)
            pairs.append((pa, qa))
        # Odd n, where half B's last coordinate folds onto B's blocks alone,
        # and n = 25 and 26 pairs with repeated parameters, whose merged order
        # takes the repair.
        pairs += [(rng.random(n), rng.random(n)) for n in (23, 25)]
        for n in (25, 26):
            values = rng.random(3)
            pairs += [(np.full(n, 0.3), np.full(n, 0.4)),
                      (rng.choice(values, n), rng.choice(values, n))]
        for pa, qa in pairs:
            rows = (np.stack((1.0 - pa, pa), axis=1), np.stack((1.0 - qa, qa), axis=1))
            assert (kernel(*rows).hex()
                    == exact_kernel_reference(*rows).hex()), (pa, qa)

    def test_kernel_bit_identical_three_state_and_mixed_rows(self, monkeypatch):
        """Uniform three-state rows fold both halves as one block; at n = 11
        the rounded log2 sizes put the split at 6, so half A has the last
        coordinate to fold alone. Rows of mixed sizes fold as one block where
        the halves' first coordinates have the same sizes ([3, 2, 4] twice,
        split at 3), and each half alone where they do not. Some states are
        null on both sides, so outcomes are dropped."""
        rng = np.random.default_rng(408)
        for n in range(1, 12):
            rows = rng.dirichlet(np.ones(3), (2, n))
            null = rng.random((n, 3)) < 0.15
            null[np.arange(n), rng.integers(3, size=n)] = False  # each row keeps a state
            rows[:, null] = 0.0
            rows /= rows.sum(axis=2, keepdims=True)
            assert (tv.core._exact_tv(rows, [3] * n).hex()
                    == exact_kernel_reference(*rows).hex()), rows
        fold, steps_folded = tv.core._fold, []

        def counting_fold(block, rows, sizes):
            steps_folded.append((len(block), len(sizes)))
            return fold(block, rows, sizes)

        monkeypatch.setattr(tv.core, "_fold", counting_fold)
        for sizes, together in (([2, 3, 4, 2, 3, 4, 2, 5], False), ([5, 1, 3, 2, 2, 3, 4], False),
                                ([3, 2, 4, 3, 2, 4], True), ([3, 3, 2, 3, 3, 4], False),
                                ([3, 2, 4, 3, 2, 4, 2], True)):
            for null_state in (False, True):
                p_rows, q_rows = ([rng.dirichlet(np.ones(k)) for k in sizes] for _ in range(2))
                if null_state:  # state 0 of each half's end null on both sides
                    for row in (p_rows[0], q_rows[0], p_rows[-1], q_rows[-1]):
                        row[0] = 0.0
                        row /= row.sum()
                pair = tv.FiniteProductPair(p_rows, q_rows)
                steps_folded.clear()
                value = tv.core._exact_tv(pair.masses, sizes)
                assert ((4, 3) in steps_folded) == together, (sizes, steps_folded)
                assert value.hex() == exact_kernel_reference(
                    [d.masses for d in pair.p_side], [d.masses for d in pair.q_side]).hex(), sizes

    @pytest.mark.parametrize("width", [1, 2, 3, 1024, 1025, 2 ** 13 + 1, 12619])
    def test_one_coordinate_bit_identical(self, width):
        """One coordinate leaves half A one outcome, whose value is the tree
        sum of the positive parts (P_b - Q_b)+. Binomial rows cut to ``width``
        counts (12619 is the whole window) in ascending ratio order, p > q,
        and in descending order, p < q, match the reference, whose scan is
        full."""
        p_row, q_row = tv.core._binomial_rows(2 * 10 ** 6, 0.3, 0.2995)
        start = (p_row.size - width) // 2
        p_row, q_row = (row[start:start + width] / row[start:start + width].sum()
                        for row in (p_row, q_row))
        with np.errstate(divide="ignore"):
            assert (np.diff(np.log(p_row) - np.log(q_row)) >= 0.0).all()  # the identity order
        for rows in (([p_row], [q_row]), ([q_row], [p_row])):
            assert kernel(*rows).hex() == exact_kernel_reference(*rows).hex()

    def test_one_coordinate_general_bit_identical(self):
        """General one-coordinate rows with states null on both sides, on P's
        side only (-inf ratios), on Q's side only (+inf ratios), and states of
        equal masses, whose ratio 0 ties with the threshold."""
        rng = np.random.default_rng(406)
        for size in (1, 2, 3, 5, 64, 1024, 1025, 3000) * 8:
            rows = rng.dirichlet(np.ones(size), 2) * rng.random((2, size)) ** 3
            null = rng.random((2, size)) < rng.choice([0.0, 0.2, 0.6])
            null[:, rng.integers(size)] = False  # each row keeps a state
            rows[null] = 0.0
            p_row, q_row = rows / rows.sum(axis=1, keepdims=True)
            tied = rng.random(size) < rng.choice([0.0, 0.3])
            q_row[tied] = p_row[tied]
            assert (kernel([p_row], [q_row]).hex()
                    == exact_kernel_reference([p_row], [q_row]).hex()), (size, p_row, q_row)

    @staticmethod
    def assert_one_coordinate_relative_error(p_row, q_row, prefix=()):
        """The kernel on the rows, behind ``prefix`` coordinates of one live
        state each, is within (ceil(log2 W) + 1) 2**-53 of the rows' TV,
        relatively: the Fraction sum of (P_k - Q_k)+ over the stored masses,
        W the count of states live on either side."""
        value = kernel([*prefix, p_row], [*prefix, q_row])
        exact = sum(Fraction(p) - Fraction(q)
                    for p, q in zip(p_row.tolist(), q_row.tolist()) if p > q)
        width = int(((p_row > 0.0) | (q_row > 0.0)).sum())
        bound = (math.ceil(math.log2(width)) + 1) * Fraction(2) ** -53 * exact
        assert abs(Fraction(value) - exact) <= bound, (width, value, float(exact))
        return value

    @pytest.mark.parametrize("n", [10 ** 3, 10 ** 4, 10 ** 5])
    def test_one_coordinate_relative_error_binomial(self, n):
        """The closed form's normalized rows for (p, p +- g), g from 1e-2 to
        1e-13. Where the reaches overlap the closed form is the kernel on
        them; the subtraction of two suffix sums the one-outcome half took
        before was 4.4e-7 off, relatively, at (10**5, 0.5, 0.5 + 1e-12)."""
        for gap in 10.0 ** -np.arange(2, 14):
            for p in (0.5, 0.1):
                for q in (p + gap, p - gap):
                    p_row, q_row = (row / row.sum() for row in tv.core._binomial_rows(n, p, q))
                    value = self.assert_one_coordinate_relative_error(p_row, q_row)
                    if reaches_overlap(n, p, q):
                        assert tv.exact_tv_equal_marginals(n, p, q) == value, (n, p, q)

    def test_one_coordinate_relative_error_general(self):
        """Random rows of 1 to 3000 states with states null on both sides or
        on one, and tied masses: alone, where split is 0, and behind
        coordinates whose one live state holds 1.0, where half A's one live
        outcome has P_a = Q_a = 1.0 at split > 0."""
        rng = np.random.default_rng(409)
        for size in (1, 2, 3, 5, 64, 1024, 1025, 3000) * 4:
            rows = rng.dirichlet(np.ones(size), 2) * rng.random((2, size)) ** 3
            null = rng.random((2, size)) < rng.choice([0.0, 0.2, 0.6])
            null[:, rng.integers(size)] = False  # each row keeps a state
            rows[null] = 0.0
            p_row, q_row = rows / rows.sum(axis=1, keepdims=True)
            tied = rng.random(size) < rng.choice([0.0, 0.3])
            q_row[tied] = p_row[tied]
            for prefix in ((), ([0.0, 1.0],), ([0.0, 1.0], [1.0, 0.0, 0.0])):
                self.assert_one_coordinate_relative_error(p_row, q_row, prefix)

    def test_closed_form_runs_no_scan(self, monkeypatch):
        """The closed form's kernel call takes the one-outcome path, which
        takes no log, sort or scan."""
        for name in ("_pair_scan", "_log_ratio", "_stable_order"):
            monkeypatch.setattr(tv.core, name, lambda *args, name=name: pytest.fail(name))
        for n in (1, 2, 7, 1000, 10 ** 6):
            assert tv.gap_ratio_exact(n) >= 1.0
            for p, q in [(1.0 / n, 0.0), (0.3, 0.3), (0.3, 0.31), (0.9, 0.1)]:
                assert 0.0 <= tv.exact_tv_equal_marginals(n, p, q) <= 1.0

    def test_exact_entries_reach_no_product_block(self, monkeypatch):
        """Every exact entry hands the kernel one padded array, whose halves
        fold in ``_halves``: ragged, uniform and one-coordinate pairs, and
        the closed form's one coordinate."""
        monkeypatch.setattr(tv.core, "_product_block",
                            lambda *args: pytest.fail("_product_block called"))
        ragged = tv.FiniteProductPair([[0.25, 0.75], [0.2, 0.3, 0.5], [0.1, 0.2, 0.3, 0.4]],
                                      [[0.5, 0.5], [0.0, 0.6, 0.4], [0.25] * 4])
        uniform = tv.FiniteProductPair([[0.2, 0.3, 0.5]] * 4, [[0.5, 0.3, 0.2]] * 4)
        single = tv.FiniteProductPair([[0.2, 0.3, 0.5]], [[0.5, 0.3, 0.2]])
        for pair in (ragged, uniform, single):
            assert 0.0 < tv.exact_tv_general(pair) <= 1.0
        for p, q in (([0.3, 0.6, 0.9], [0.5, 0.5, 0.1]), ([0.3], [0.6])):
            assert 0.0 < tv.exact_tv_bernoulli(p, q) <= 1.0
        for n in (1, 7, 1000):
            assert 0.0 < tv.exact_tv_equal_marginals(n, 0.3, 0.31) <= 1.0


def _bits(values):
    """A float64 array's bits, so that arrays compare hex for hex."""
    return np.asarray(values, dtype=np.float64).view(np.uint64)


class TestPairScan:
    """Half B's P and Q suffix sums come from one scan of the two columns
    interleaved behind a zero row; each column is, bit for bit, the scan of
    that column alone."""

    @staticmethod
    def columns(rng, size):
        """Two columns of nonnegative values over 30 decades, with zeros and
        subnormals, so that any change in the order of additions shows in
        the rounding."""
        values = rng.random((2, size)) * 10.0 ** rng.uniform(-30.0, 0.0, (2, size))
        values[rng.random((2, size)) < 0.1] = 0.0
        subnormal = rng.random((2, size)) < 0.05
        values[subnormal] = 5e-324 * rng.integers(1, 2 ** 52, subnormal.sum())
        return values

    @staticmethod
    def assert_columns_scanned(values):
        scanned = tv.core._pair_scan(values.T.reshape(-1)).reshape(-1, 2)
        for j in range(2):
            assert np.array_equal(_bits(scanned[:, j]), _bits(scan_reference(values[j]))), \
                (values.shape[1], j)

    def test_every_length_to_2100(self):
        rng = np.random.default_rng(411)
        for size in range(1, 2101):
            self.assert_columns_scanned(self.columns(rng, size))

    @pytest.mark.parametrize("log2", range(1, 17))
    def test_around_powers_of_two(self, log2):
        rng = np.random.default_rng(412 + log2)
        for size in (2 ** log2 - 1, 2 ** log2, 2 ** log2 + 1):
            self.assert_columns_scanned(self.columns(rng, size))

    def test_edge_values(self):
        for column in ([0.0], [5e-324], [1.0, 2.0 ** -53, 2.0 ** -53], [0.0] * 7,
                       [2.0 ** -53] * 5 + [1.0], [1e-300, 1e300, 0.0]):
            column = np.array(column)
            self.assert_columns_scanned(np.stack((column, column[::-1])))

    @pytest.mark.parametrize("size", [1, 2, 3, 7, 8, 9, 1000, 1024, 1025, 2 ** 13, 2 ** 13 + 1])
    def test_tails_are_the_suffix_sums_behind_a_zero_row(self, size):
        """Row r of the tails, at 2 r and 2 r + 1, holds what the kernel with
        two scans read at sorted index N - r, the zero row the empty suffix."""
        rng = np.random.default_rng(420 + size)
        block, order = self.columns(rng, size), rng.permutation(size)
        tails = tv.core._tails(block, order)
        at = 2 * (size - np.arange(size + 1))
        assert tails.shape == (2 * (size + 1),)
        for j in range(2):
            want = np.append(scan_reference(block[j][order][::-1])[::-1], 0.0)
            assert np.array_equal(_bits(tails[at + j]), _bits(want)), j

    @staticmethod
    def argmin_split(sizes):
        log_sizes = np.concatenate(([0.0], np.cumsum([math.log2(k) for k in sizes])))
        return int(np.argmin(np.abs(2.0 * log_sizes - log_sizes[-1])))

    @pytest.mark.parametrize("sizes", [
        [2] * 25, [2] * 26, [3, 2, 4] * 5, [3] * 11, [1], [1, 1, 1], [5], [40] + [2] * 7,
        [2] * 7 + [40], [2, 40, 2], [1000, 3, 3, 1000], [6, 6, 6, 6, 5, 7]], ids=str)
    def test_split_is_the_first_nearest_half(self, sizes):
        assert tv.core._split(sizes) == self.argmin_split(sizes)

    def test_split_on_random_sizes(self):
        rng = np.random.default_rng(413)
        for _ in range(3000):
            choices = rng.choice([1, 2, 3, 4, 5, 6, 7, 8, 12, 40, 1000], int(rng.integers(1, 5)))
            sizes = rng.choice(choices, int(rng.integers(1, 40))).tolist()
            assert tv.core._split(sizes) == self.argmin_split(sizes), sizes

    @pytest.mark.parametrize("n", [24, 26])
    def test_kernel_peak_memory(self, n):
        """The kernel's traced peak is at most 115.5 bytes per half-outcome,
        2**(n/2) of them: 3% above the 112.2-112.6 bytes of the kernel with a
        scan per column (450 KiB at n = 24, 898 KiB at n = 26). A kernel that
        kept both halves' (2, N) blocks of logs alive took 144 bytes at
        n = 26."""
        p, q = np.random.default_rng(414 + n).random((2, n))
        pair = tv.FiniteProductPair.from_bernoulli(p, q)
        tracemalloc.start()
        try:
            tv.core._exact_tv(pair.masses, [2] * n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 115.5 * 2 ** (n // 2), peak


def _order_cases():
    """(values, branch of _stable_order) pairs over its three branches for
    large halves, sorted and reversed values among them, and the argsort of
    small ones."""
    rng = np.random.default_rng(404)
    size = 1 << 13
    base = rng.random(size // 2)
    # Neighbours that agree in all but the last bit, the larger one first.
    low_bits = np.empty(size)
    low_bits[0::2] = np.nextafter(base, np.inf)
    low_bits[1::2] = base
    with_nan = rng.normal(size=size)
    with_nan[rng.choice(size, 9, replace=False)] = np.nan
    # One NaN, whose key ties with no other: the order's last value.
    one_nan = rng.normal(size=size)
    one_nan[rng.integers(size)] = np.nan
    ascending = np.sort(rng.normal(size=size) * 1e3)
    cases = {
        "exact ties": (rng.choice(rng.normal(size=5), size), "keyed"),
        "infinite ties": (rng.choice([-np.inf, np.inf, -2.5, 0.0, 7.0], size), "keyed"),
        "random 2**13": (rng.normal(size=size) * 10.0 ** rng.uniform(-3, 3, size), "keyed"),
        "reversed": (ascending[::-1].copy(), "keyed"),
        "just past argsort": (rng.random(1025), "keyed"),
        "dropped low bits differ": (low_bits, "repaired"),
        "signed zeros": (rng.choice([0.0, -0.0, 1.0], size), "keyed"),
        "nan": (with_nan, "fallback"),
        "one nan": (one_nan, "fallback"),
        "sorted": (ascending, "keyed"),
        "sorted with ties": (np.sort(rng.choice([-np.inf, 0.0, 1.5, np.inf], size)), "keyed"),
        "length 1": (np.array([0.3]), "argsort"),
        "length 1024": (rng.random(1024), "argsort"),
    }
    cases["reversed with ties"] = (cases["sorted with ties"][0][::-1].copy(), "keyed")
    return cases


ORDER_CASES = _order_cases()


def _kernel_halves(pa, qa):
    """Half B's log ratios and half A's thresholds, as the kernel forms them,
    for the Bernoulli pair (pa, qa)."""
    rows = np.stack((np.stack((1.0 - pa, pa), axis=1), np.stack((1.0 - qa, qa), axis=1)))
    half_a, half_b = tv.core._halves(rows, [2] * pa.size, pa.size // 2)
    with np.errstate(divide="ignore"):
        return (np.log(half_b[0]) - np.log(half_b[1]),
                np.log(half_a[1]) - np.log(half_a[0]))


def _merged_cases():
    """(half B's ratios, half A's thresholds, branch of _stable_order) for the
    merged order: ties between the halves, near-ties in the keys' dropped low
    bits, signed zeros, NaN of either sign, and merged sizes around
    _ARGSORT_MAX."""
    rng = np.random.default_rng(407)
    size = 1 << 12
    shared = rng.normal(size=6)
    base = rng.random(size)
    with_nan = rng.normal(size=(2, size))
    with_nan[0, rng.choice(size, 5, replace=False)] = np.nan
    with_nan[1, rng.choice(size, 5, replace=False)] = np.copysign(np.nan, -1.0)
    # A run of four keys that agree but for their index bits: equal values
    # in index order, then a smaller one, then an equal one from half A.
    run_b, run_a = rng.random(size), rng.random(size)
    tie = run_b[0]
    run_b[[size // 4, size // 2, 3 * size // 4]] = tie, tie, np.nextafter(tie, 0.0)
    run_a[size // 2] = tie
    # One negative NaN, whose key ties with no other: the order's first value.
    negative_nan = rng.normal(size=(2, size))
    negative_nan[0, rng.integers(size)] = np.copysign(np.nan, -1.0)
    return {
        "exact ties across halves": (rng.choice(shared, size), rng.choice(shared, size), "keyed"),
        "infinities on both halves": (rng.choice([-np.inf, np.inf, 0.5], size),
                                      rng.choice([-np.inf, np.inf, -0.5, 0.5], size), "keyed"),
        # A's threshold one ulp below B's ratio: the keys put B's first.
        "low-bit near-ties": (base, np.nextafter(base, -np.inf), "repaired"),
        "tied run, equal and unequal": (run_b, run_a, "repaired"),
        "constant pair, n = 26": (*_kernel_halves(np.full(26, 0.3), np.full(26, 0.4)),
                                  "repaired"),
        "signed zeros": (rng.choice([0.0, -0.0, 1.0], size), rng.choice([-0.0, 0.0, -1.0], size),
                         "keyed"),
        "nan of either sign": (*with_nan, "fallback"),
        "one negative nan": (*negative_nan, "fallback"),
        "random, B twice A": (rng.normal(size=2 * size), rng.normal(size=size), "keyed"),
        "random pair, n = 26": (*_kernel_halves(rng.random(26), rng.random(26)), "keyed"),
        "merged 1024": (rng.random(512), rng.random(512), "argsort"),
        "merged 1025": (rng.random(513), rng.random(512), "keyed"),
        "merged 1025, ties": (rng.choice(shared, 513), rng.choice(shared, 512), "keyed"),
    }


MERGED_CASES = _merged_cases()


class TestKernelOrder:
    """Half B's order equals np.argsort(kind="stable") element for element
    whichever branch gives it, alone or merged with half A's thresholds, and
    each branch is taken."""

    @staticmethod
    def ordered_with_branch(monkeypatch, name, *args):
        """The core function ``name`` on args, and the branch of _stable_order
        it took."""
        calls, inputs = [], []
        stable, keyed, argsort = tv.core._stable_order, tv.core._keyed_order, np.argsort
        with monkeypatch.context() as patch:
            patch.setattr(tv.core, "_stable_order",
                          lambda values: inputs.append(values) or stable(values))
            patch.setattr(tv.core, "_keyed_order",
                          lambda *args: calls.append("keyed") or keyed(*args))
            patch.setattr(np, "argsort", lambda values, *args, **kwargs: calls.append(
                "argsort" if any(values is v for v in inputs) else "repair")
                or argsort(values, *args, **kwargs))
            result = getattr(tv.core, name)(*args)
        branches = {("argsort",): "argsort", ("keyed",): "keyed",
                    ("keyed", "repair"): "repaired", ("keyed", "argsort"): "fallback"}
        return result, branches[tuple(calls)]

    @pytest.mark.parametrize("case", ORDER_CASES)
    def test_equals_stable_argsort(self, monkeypatch, case):
        values, branch = ORDER_CASES[case]
        want = np.argsort(values, kind="stable")
        order, taken = self.ordered_with_branch(monkeypatch, "_stable_order", values)
        assert taken == branch
        assert order.dtype == want.dtype and np.array_equal(order, want)

    @pytest.mark.parametrize("case", MERGED_CASES)
    def test_merged_order(self, monkeypatch, case):
        """B's order is its own stable argsort, and each threshold's suffix
        index is its searchsorted in B's sorted ratios, side="right"."""
        ratio_b, threshold_a, branch = MERGED_CASES[case]
        (order, first), taken = self.ordered_with_branch(
            monkeypatch, "_merged_order", ratio_b, threshold_a)
        assert taken == branch
        want = np.argsort(ratio_b, kind="stable")
        assert order.dtype == want.dtype and np.array_equal(order, want)
        assert np.array_equal(first, np.searchsorted(ratio_b[want], threshold_a, side="right"))

    def test_every_branch_taken(self):
        assert {branch for _, branch in ORDER_CASES.values()} == {
            "keyed", "repaired", "fallback", "argsort"}
        assert {branch for *_, branch in MERGED_CASES.values()} == {
            "keyed", "repaired", "fallback", "argsort"}

    @pytest.mark.parametrize("case", ORDER_CASES)
    def test_keyed_order(self, case):
        """The keyed order is a permutation, and the stable argsort's unless
        two values differ only in the keys' dropped low bits; -0.0 is keyed
        as 0.0, so signed zeros keep their index order."""
        values, _ = ORDER_CASES[case]
        order = tv.core._keyed_order(values)
        assert np.array_equal(np.sort(order), np.arange(values.size))
        if case != "dropped low bits differ":
            assert np.array_equal(order, np.argsort(values, kind="stable"))


class TestArgumentChecks:
    """Every positive-integer, scalar-range and parameter-vector check keeps its
    ValueError message."""

    @pytest.mark.parametrize("call, message", [
        (lambda: tv.exact_tv_equal_marginals(0, 0.5, 0.5),
         "n must be a positive integer, got 0"),
        (lambda: tv.exact_tv_equal_marginals(2.0, 0.5, 0.5),
         "n must be a positive integer, got 2.0"),
        (lambda: tv.gap_instance(-3), "n must be a positive integer, got -3"),
        (lambda: tv.gap_ratio_exact("4"), "n must be a positive integer, got '4'"),
        (lambda: tv.mc_tv_estimate([0.5], [0.5], samples=0),
         "samples must be a positive integer, got 0"),
        (lambda: tv.exact_tv_equal_marginals(3, 1.5, 0.5), "p = 1.5 outside [0, 1]"),
        (lambda: tv.exact_tv_equal_marginals(3, 0.5, -0.1), "q = -0.1 outside [0, 1]"),
        (lambda: tv.exact_tv_equal_marginals(3, None, 0.5), "p must be a real number, got None"),
        (lambda: tv.exact_tv_equal_marginals(3, "0.5", 0.5),
         "p must be a real number, got '0.5'"),
        (lambda: tv.exact_tv_equal_marginals(3, [0.5], 0.5),
         "p must be a real number, got [0.5]"),
        (lambda: tv.exact_tv_equal_marginals(3, 0.5, None), "q must be a real number, got None"),
        (lambda: tv.exact_tv_equal_marginals(3, 0.5, "0.5"),
         "q must be a real number, got '0.5'"),
        (lambda: tv.exact_tv_equal_marginals(3, 0.5, [0.5]),
         "q must be a real number, got [0.5]"),
        (lambda: tv.ProbVector([0.5, 1.2]), f"params[1] = {np.float64(1.2)!r} outside [0, 1]"),
        (lambda: tv.ProbVector([-0.1]), f"params[0] = {np.float64(-0.1)!r} outside [0, 1]"),
        (lambda: tv.ProbVector([0.5, float("nan")]), "params contains non-finite entries"),
        (lambda: tv.ProbVector([float("inf")]), "params contains non-finite entries"),
        (lambda: tv.ProbVector([2.0, float("-inf")]), "params contains non-finite entries"),
        (lambda: tv.ProbVector([]), "params must be a non-empty 1-D vector"),
        (lambda: tv.ProbVector([[0.5]]), "params must be a non-empty 1-D vector"),
        (lambda: tv.MarginalTV([0.25, 1.0 + 1e-9]),
         f"deltas[1] = {np.float64(1.0 + 1e-9)!r} outside [0, 1]"),
        (lambda: tv.MarginalTV([float("nan")]), "deltas contains non-finite entries"),
        (lambda: tv.mc_tv_estimate([0.5], [0.5], samples=True),
         "samples must be a positive integer, got True"),
        (lambda: tv.exact_tv_equal_marginals(True, 0.5, 0.5),
         "n must be a positive integer, got True"),
        (lambda: tv.mc_tv_estimate([0.5], [0.5], 10, seed=1.5),
         "seed must be an integer in [0, 2**128), got 1.5"),
        (lambda: tv.mc_tv_estimate([0.5], [0.5], 10, seed="3"),
         "seed must be an integer in [0, 2**128), got '3'"),
        (lambda: tv.mc_tv_estimate([0.5], [0.5], 10, seed=True),
         "seed must be an integer in [0, 2**128), got True"),
        (lambda: tv.mc_tv_estimate([0.5], [0.5], 10, seed=-1),
         "seed must be an integer in [0, 2**128), got -1"),
        (lambda: tv.mc_tv_estimate([0.5], [0.5], 10, seed=2 ** 128),
         f"seed must be an integer in [0, 2**128), got {2 ** 128}"),
        (lambda: tv.mc_tv_estimate([0.5], [0.5], 10, seed=np.int64(-2)),
         f"seed must be an integer in [0, 2**128), got {np.int64(-2)!r}"),
    ])
    def test_messages(self, call, message):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message

    @pytest.mark.parametrize("call", [
        lambda n: tv.exact_tv_equal_marginals(n, 0.5, 0.5),
        tv.gap_ratio_exact,
        tv.gap_instance,
    ], ids=["exact_tv_equal_marginals", "gap_ratio_exact", "gap_instance"])
    @pytest.mark.parametrize("n", [2 ** 1024, 10 ** 309, 2 ** 1024 - 2 ** 970, 2 ** 5000],
                             ids=["2**1024", "10**309", "2**1024-2**970", "2**5000"])
    def test_size_past_float_range(self, call, n):
        """No float holds n (2**1024 - 2**970 rounds up to 2**1024), so each
        entry refuses it with a ValueError naming n, not an OverflowError."""
        with pytest.raises(ValueError) as info:
            call(n)
        assert str(info.value) == ("n is past the float range (about 2**1024), "
                                   f"got an integer of {n.bit_length()} bits")

    def test_largest_size_in_float_range_accepted(self):
        n = 2 ** 1024 - 2 ** 970 - 1  # rounds down to the largest double
        assert tv.core._positive_int(n, "n") == n
        assert float(n) == np.finfo(np.float64).max

    @pytest.mark.parametrize("budget", [2.9, float("inf"), float("nan"), True, "3"])
    def test_budget_must_be_an_integer(self, budget):
        message = f"budget_log2 must be an integer or None, got {budget!r}"
        pair = tv.FiniteProductPair([[0.5, 0.5]], [[0.2, 0.8]])
        for call in (lambda: tv.exact_tv_bernoulli([0.5], [0.2], budget_log2=budget),
                     lambda: tv.exact_tv_general(pair, budget_log2=budget)):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == message

    def test_numpy_integers_accepted(self):
        n = np.int64(6)
        assert tv.gap_instance(n).n == 6
        assert tv.gap_ratio_exact(n) == tv.gap_ratio_exact(6)
        assert (tv.exact_tv_equal_marginals(n, 0.3, 0.6)
                == tv.exact_tv_equal_marginals(6, 0.3, 0.6))
        assert tv.mc_tv_estimate([0.5], [0.2], samples=np.int64(10)).samples == 10
        pair = tv.FiniteProductPair([[0.5, 0.5]], [[0.2, 0.8]])
        for budget in (np.int64(1), np.uint8(1), 1):
            assert tv.exact_tv_bernoulli([0.5], [0.2], budget_log2=budget) == 0.3
            assert tv.exact_tv_general(pair, budget_log2=budget) == 0.3
        with pytest.raises(tv.EnumerationBudgetError):
            tv.exact_tv_bernoulli([0.5, 0.5], [0.2, 0.2], budget_log2=np.int64(1))
        p, q = [0.5, 0.3, 0.9], [0.1, 0.3, 0.2]
        assert (tv.mc_tv_estimate(p, q, 5000, seed=np.int64(7))
                == tv.mc_tv_estimate(p, q, 5000, seed=7))
        assert (tv.mc_tv_estimate(p, q, 5000, seed=np.uint64(2 ** 64 - 1))
                == tv.mc_tv_estimate(p, q, 5000, seed=2 ** 64 - 1))


class TestMarginalTV:
    def test_bernoulli_marginals(self):
        pair = tv.FiniteProductPair.from_bernoulli([0.9, 0.5], [0.1, 0.5])
        delta = tv.marginal_tv(pair)
        assert delta.deltas == pytest.approx([0.8, 0.0], abs=1e-12)

    def test_identical_marginals(self):
        pair = tv.FiniteProductPair(([0.2, 0.8], [0.5, 0.5]), ([0.2, 0.8], [0.5, 0.5]))
        assert tv.marginal_tv(pair).deltas == pytest.approx([0.0, 0.0], abs=0)

    def test_three_point_example(self):
        pair = tv.FiniteProductPair(([1 / 3, 1 / 3, 1 / 3],), ([1 / 2, 1 / 4, 1 / 4],))
        assert tv.marginal_tv(pair).deltas == pytest.approx([1 / 6], abs=1e-15)
        # Disjoint rows whose half-l1 rounds above 1 read exactly 1.0.
        pair = tv.FiniteProductPair(
            ([0.38505273120688543, 0.6149472687931146, 0, 0, 0, 0],),
            ([0, 0, 0.09248836572029655, 0.6601624635384684, 0.0018435210769654337,
              0.24550564966426958],))
        assert 0.5 * np.abs(pair.p_masses - pair.q_masses).sum() == 1.0000000000000002
        assert tv.marginal_tv(pair).deltas.tolist() == [1.0]

    def test_bernoulli_deltas_agree_when_complements_exact(self):
        """Half the l1 distance and the Scheffe difference are the same value
        when every 1 - p_i and 1 - q_i is exact, as for parameters >= 1/2."""
        rng = np.random.default_rng(110)
        p, q = 0.5 + 0.5 * rng.uniform(size=(2, 1000))
        pair = tv.FiniteProductPair.from_bernoulli(p, q)
        assert (tv.marginal_tv(pair).deltas.tobytes()
                == tv.bounds_report(pair).delta.deltas.tobytes())

    def test_bernoulli_deltas_differ_when_a_complement_rounds(self):
        """0.9 = 1 - 0.1 and 0.8 = 1 - 0.2 round, so the two sums differ."""
        pair = tv.FiniteProductPair.from_bernoulli([0.1], [0.2])
        assert tv.marginal_tv(pair).deltas.tolist() == [0.09999999999999999]
        assert tv.bounds_report(pair).delta.deltas.tolist() == [0.09999999999999998]
        rng = np.random.default_rng(111)
        p = rng.uniform(0.0, 0.5, 1000)
        q = p + rng.choice([-1e-9, 1e-9], p.size)
        pair = tv.FiniteProductPair.from_bernoulli(p, q)
        assert (tv.marginal_tv(pair).deltas != tv.bounds_report(pair).delta.deltas).any()

    def test_norm_ordering(self):
        rng = np.random.default_rng(109)
        for _ in range(100):
            delta = tv.MarginalTV(rng.random(int(rng.integers(1, 12))))
            n = len(delta)
            assert delta.linf <= delta.l2 + 1e-12
            assert delta.l2 <= delta.l1 + 1e-12
            assert delta.l1 <= n * delta.linf + 1e-12


class TestValidation:
    def test_prob_vector_length(self):
        assert len(tv.ProbVector([0.5, 0.25, 1.0])) == 3
        assert len(tv.ProbVector(0.5)) == 1

    def test_prob_vector_range(self):
        with pytest.raises(tv.InvalidDistributionError):
            tv.ProbVector([0.5, 1.2])
        with pytest.raises(tv.InvalidDistributionError):
            tv.ProbVector([-0.1])
        with pytest.raises(tv.InvalidDistributionError):
            tv.ProbVector([float("nan")])
        with pytest.raises(tv.InvalidDistributionError):
            tv.ProbVector([])

    @pytest.mark.parametrize("values", [[[0.2, 0.3, 0.5], [0.6, 0.4]], [0.2, [0.3]],
                                        ["a", 0.5], [{}, 0.5]])
    def test_prob_vector_not_a_vector_of_numbers(self, values):
        with pytest.raises(tv.InvalidDistributionError,
                           match=r"^params must be a non-empty 1-D vector$"):
            tv.ProbVector(values)

    def test_finite_dist(self):
        with pytest.raises(tv.InvalidDistributionError):
            tv.FiniteDist([0.5, -0.1, 0.6])
        with pytest.raises(tv.InvalidDistributionError):
            tv.FiniteDist([0.5, 0.4])  # sums to 0.9
        dist = tv.FiniteDist([0.5, 0.5 + 1e-10])
        assert dist.masses.sum() == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("row", [[1e308, 1e308], [1e308, 1e308, 1e308]])
    def test_overflowing_total_raises_the_typed_error(self, row):
        # Two states add as columns, three or more in a reduction; neither
        # overflow may surface as a RuntimeWarning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(tv.InvalidDistributionError, match=r"masses sum to inf, not 1"):
                tv.FiniteDist(row)
            with pytest.raises(tv.InvalidDistributionError, match=r"^P\[0\]: masses sum to inf"):
                tv.FiniteProductPair([row], [[1.0] + [0.0] * (len(row) - 1)])

    def test_pair_shape_checks(self):
        with pytest.raises(tv.DimensionMismatchError):
            tv.FiniteProductPair(([0.5, 0.5],), ([0.5, 0.5], [0.5, 0.5]))
        with pytest.raises(tv.InvalidDistributionError):
            tv.FiniteProductPair(([0.5, 0.5],), ([0.2, 0.3, 0.5],))
        with pytest.raises(tv.InvalidDistributionError):
            tv.FiniteProductPair((), ())


class TestUnitIntervalVector:
    """Parameter vectors: entries within the slack are clipped, the input is copied."""

    def test_slack_is_clipped_and_signed_zero_kept(self):
        params = tv.ProbVector([-1e-13, 1.0 + 1e-13, 0.5]).params
        assert params.tolist() == [0.0, 1.0, 0.5]
        assert not np.signbit(params[0])
        for values in ([-0.0, 0.5], [-0.0, 1.0 + 1e-13]):
            assert np.signbit(tv.ProbVector(values).params[0])

    def test_params_never_alias_the_input(self):
        for values in (np.array([0.2, 0.4]), np.array([0.2, 1.0 + 1e-13]),
                       np.array(0.3), np.array([0.2, 0.4], dtype=np.float32)):
            params = tv.ProbVector(values).params
            assert not np.shares_memory(params, values)
            assert params.dtype == np.float64 and params.ndim == 1


class TestDataclassEquality:
    """Dataclasses holding arrays compare by identity instead of raising."""

    def test_equality_does_not_raise(self):
        pair = tv.FiniteProductPair.from_bernoulli([0.8, 0.1], [0.6, 0.3])
        makers = [
            lambda: tv.ProbVector([0.5, 0.5]),
            lambda: tv.FiniteDist([0.5, 0.5]),
            lambda: tv.MarginalTV([0.1, 0.2]),
            lambda: tv.scheffe_reduce(pair),
            lambda: tv.channel_matrix(0.8, 0.6),
            lambda: tv.symmetrize([0.8], [0.6]),
            lambda: tv.gap_instance(4),
            lambda: tv.RademacherInstance([1.0, 2.0], 0.5),
        ]
        for make in makers:
            first, second = make(), make()
            assert first == first
            assert not first == second
            assert first != second


class TestArrayForm:
    @staticmethod
    def assert_one_array(pair):
        """One read-only, C-contiguous (2, n, k_max) array, whose two sides
        are p_masses and q_masses as views of it."""
        masses = pair.masses
        assert masses.shape == (2, pair.n, masses.shape[2]) and masses.dtype == np.float64
        assert masses.flags.c_contiguous and not masses.flags.writeable
        for side, view in enumerate((pair.p_masses, pair.q_masses)):
            assert view.base is masses
            assert np.shares_memory(view, masses[side]) or not masses.size
            assert view.flags.c_contiguous and not view.flags.writeable
            assert view.tobytes() == masses[side].tobytes()

    def test_every_pair_is_one_array(self):
        pair = tv.FiniteProductPair(([0.2, 0.3, 0.5], [0.9, 0.1], [1.0]),
                                    ([0.5, 0.25, 0.25], [0.5, 0.5], [1.0]))
        self.assert_one_array(pair)
        self.assert_one_array(tv.FiniteProductPair.from_bernoulli([0.1, 0.7], [0.3, 0.3]))
        for mask in ([True, False, True], [False, True, False], [False] * 3):
            taken = pair._take(np.array(mask))
            self.assert_one_array(taken)
            assert taken.p_masses.tobytes() == pair.p_masses[mask].tobytes()
            assert taken.q_masses.tobytes() == pair.q_masses[mask].tobytes()
            assert taken.support_sizes.tolist() == pair.support_sizes[mask].tolist()

    def test_kernel_reads_the_stored_array(self, monkeypatch):
        """Both enumeration entries hand the kernel the pair's own masses, not
        a copy."""
        seen = []
        kernel = tv.core._exact_tv

        def spy(rows, sizes):
            seen.append(rows)
            return kernel(rows, sizes)

        monkeypatch.setattr(tv.core, "_exact_tv", spy)
        pair = tv.FiniteProductPair(([0.2, 0.8], [0.1, 0.6, 0.3]), ([0.5, 0.5], [0.3, 0.3, 0.4]))
        tv.exact_tv_general(pair)
        assert seen.pop() is pair.masses
        made = []
        build = tv.FiniteProductPair.from_bernoulli
        monkeypatch.setattr(tv.FiniteProductPair, "from_bernoulli",
                            lambda p, q: made.append(build(p, q)) or made[-1])
        tv.exact_tv_bernoulli([0.9, 0.2], [0.4, 0.6])
        assert seen.pop() is made.pop().masses

    @pytest.mark.parametrize("k", range(1, 13))
    def test_row_sums_of_both_sides(self, k):
        """One _row_sums over the (2, n, k) array is each side's numpy row sum."""
        rng = np.random.default_rng(130 + k)
        masses = rng.random((2, 300, k)) * rng.choice([-0.0, 0.0, 1.0, 1e-300], (2, 300, k))
        masses[:, :20] = -0.0
        got = tv.core._row_sums(masses)
        for side in range(2):
            assert got[side].tobytes() == masses[side].sum(axis=1).tobytes()

    def test_padded_read_only_arrays(self):
        pair = tv.FiniteProductPair(([0.2, 0.3, 0.5], [0.9, 0.1]),
                                    ([0.5, 0.25, 0.25], [0.5, 0.5]))
        assert pair.p_masses.shape == pair.q_masses.shape == (2, 3)
        assert pair.support_sizes.tolist() == [3, 2]
        assert pair.p_masses[1, 2] == pair.q_masses[1, 2] == 0.0
        for arr in (pair.p_masses, pair.q_masses, pair.support_sizes):
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            pair.p_masses[0, 0] = 1.0

    @pytest.mark.parametrize("values", [[0.2, 0.7], [1.0 + 1e-13, -1e-13]],
                             ids=["in-range", "clipped"])
    def test_vectors_are_read_only(self, values):
        source = np.array(values)
        for arr in (tv.ProbVector(source).params, tv.MarginalTV(source).deltas):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.5
        assert source.flags.writeable  # the input is copied, not frozen

    def test_sides_round_trip_bit_for_bit(self):
        rng = np.random.default_rng(120)
        pair = random_product_pair(rng, n_max=6, support_max=5)
        for side, masses in ((pair.p_side, pair.p_masses), (pair.q_side, pair.q_masses)):
            for i, dist in enumerate(side):
                assert dist.masses.tobytes() == masses[i, :len(dist)].tobytes()
                assert not masses[i, len(dist):].any()

    def test_rows_equal_one_by_one_validation(self):
        rng = np.random.default_rng(121)
        rows = [rng.random(int(k)) for k in rng.integers(1, 8, size=40)]
        rows = [row / row.sum() for row in rows]
        pair = tv.FiniteProductPair(rows, rows)
        for i, row in enumerate(rows):
            expected = tv.FiniteDist(row).masses
            assert pair.p_masses[i, :row.size].tobytes() == expected.tobytes()

    def test_errors_name_side_and_coordinate(self):
        with pytest.raises(tv.InvalidDistributionError, match=r"Q\[1\]: masses sum to"):
            tv.FiniteProductPair(([0.5, 0.5], [1.0]), ([0.5, 0.5], [0.7]))
        with pytest.raises(tv.InvalidDistributionError, match=r"P\[2\]: masses\[1\]"):
            tv.FiniteProductPair(([1.0], [1.0], [1.2, -0.2]), ([1.0], [1.0], [0.5, 0.5]))
        with pytest.raises(tv.InvalidDistributionError, match=r"P\[0\]: masses contains"):
            tv.FiniteProductPair(([float("nan"), 1.0],), ([0.5, 0.5],))
        with pytest.raises(tv.InvalidDistributionError, match="sequence of 1-D mass rows"):
            tv.FiniteProductPair(([0.5, 0.5],), 7)
        # A flat side is not n one-state rows.
        with pytest.raises(tv.InvalidDistributionError,
                           match=r"^P must be a sequence of 1-D mass rows$"):
            tv.FiniteProductPair([0.2, 0.8], [0.5, 0.5])
        with pytest.raises(tv.InvalidDistributionError,
                           match=r"^P must be a sequence of 1-D mass rows$"):
            tv.FiniteProductPair([1.0, 1.0], [1.0, 1.0])
        for scalar in (0.5, 1.0):
            with pytest.raises(tv.InvalidDistributionError,
                               match=r"^masses must be a non-empty 1-D vector$"):
                tv.FiniteDist(scalar)
        with pytest.raises(tv.InvalidDistributionError,
                           match=r"^a product pair needs at least one coordinate$"):
            tv.FiniteProductPair([], [])

    @pytest.mark.parametrize("p_side, q_side, error, message", [
        # P's row errors come before Q's, whether Q's rows parse or not.
        (([0.5, 0.6],), "rows", tv.InvalidDistributionError,
         r"^P\[0\]: masses sum to 1\.1, not 1$"),
        (([0.5, 0.5], [0.7]), ([0.5, 0.5], [1.0]), tv.InvalidDistributionError,
         r"^P\[1\]: masses sum to 0\.7, not 1$"),
        # Q's row errors come before a mismatch of the two sides.
        (([0.5, 0.5],), ([0.5, 0.5], [0.9]), tv.InvalidDistributionError,
         r"^Q\[1\]: masses sum to 0\.9, not 1$"),
        (([0.5, 0.5],), ([0.2, 0.3, -0.5],), tv.InvalidDistributionError,
         r"^Q\[0\]: masses\[2\] = np\.float64\(-0\.5\) is negative$"),
        (([0.5, 0.5],), ([0.5, 0.5], [1.0]), tv.DimensionMismatchError,
         r"^p_side has 1 coordinates, q_side has 2$"),
        (([0.5, 0.5], [1.0]), ([1.0], [0.5, 0.5]), tv.InvalidDistributionError,
         r"^coordinate 0: support sizes differ \(2 vs 1\)$"),
        # Rows with no len(), ragged nesting and a generator do not parse.
        (([0.5, [0.5]],), ([0.5, 0.5],), tv.InvalidDistributionError,
         r"^P must be a sequence of 1-D mass rows$"),
        (([0.5, 0.5], [[0.5, 0.5]]), ([0.5, 0.5], [1.0]), tv.InvalidDistributionError,
         r"^P must be a sequence of 1-D mass rows$"),
        ((row for row in ([0.5, 0.5],)), ([0.5, 0.5],), tv.InvalidDistributionError,
         r"^P must be a sequence of 1-D mass rows$"),
        (np.full((2, 2, 2), 0.5), ([0.5, 0.5], [0.5, 0.5]), tv.InvalidDistributionError,
         r"^P must be a sequence of 1-D mass rows$"),
        (np.empty((0, 5)), np.empty((0, 5)), tv.InvalidDistributionError,
         r"^a product pair needs at least one coordinate$"),
    ])
    def test_errors_keep_their_order(self, p_side, q_side, error, message):
        """Both sides are filled into one array, P's rows first; each side's
        errors come as they would from that side alone."""
        with pytest.raises(error, match=message):
            tv.FiniteProductPair(p_side, q_side)

    def test_every_input_form_fills_the_same_array(self):
        """Lists, arrays, FiniteDist rows and ragged rows all give the bytes
        of one-by-one validation, padded with zeros."""
        rng = np.random.default_rng(124)
        rect = rng.dirichlet(np.ones(3), 50)
        ragged = [rng.dirichlet(np.ones(int(k))) for k in rng.integers(1, 6, 50)]
        for rows in (rect, rect.tolist(), list(rect), [tv.FiniteDist(row) for row in rect],
                     ragged, [row.tolist() for row in ragged], np.array(ragged, dtype=object)):
            pair = tv.FiniteProductPair(rows, rows)
            for i, row in enumerate(rows):
                want = tv.FiniteDist(row).masses
                for side in (pair.p_masses, pair.q_masses):
                    assert side[i, :want.size].tobytes() == want.tobytes()
                    assert not side[i, want.size:].any()
            assert pair.masses.flags.owndata and pair.masses.flags.c_contiguous

    EDGE_PARAMS = [0.0, -0.0, 1.0, 5e-324, 1e-300, 2.0 ** -53, 1.0 - 2.0 ** -53, 0.5,
                   np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0),
                   -1e-12, 1.0 + 1e-12, -5e-13, 1.0 + 5e-13]  # the last four are clipped

    @staticmethod
    def assert_same_arrays(built, validated):
        for name in ("masses", "p_masses", "q_masses", "support_sizes"):
            a, b = getattr(built, name), getattr(validated, name)
            assert (a.dtype, a.shape, a.flags.writeable, a.flags.c_contiguous) == (
                b.dtype, b.shape, b.flags.writeable, b.flags.c_contiguous), name
            assert a.tobytes() == b.tobytes(), name

    def test_from_bernoulli_equals_validated_rows(self):
        """from_bernoulli skips the row validation; its arrays are what the
        constructor makes of the same rows, byte for byte."""
        rng = np.random.default_rng(122)
        edge = np.array(self.EDGE_PARAMS)
        cases = [(edge, edge[::-1].copy()), (edge, rng.permutation(edge))]
        cases += [(rng.random(n), rng.random(n)) for n in (1, 2, 7, 1000)]
        cases += [(rng.choice(edge, 50), rng.random(50) ** 40) for _ in range(20)]
        for p, q in cases:
            pa, qa = tv.ProbVector(p).params, tv.ProbVector(q).params
            validated = tv.FiniteProductPair(np.stack((1.0 - pa, pa), axis=1),
                                             np.stack((1.0 - qa, qa), axis=1))
            self.assert_same_arrays(tv.FiniteProductPair.from_bernoulli(p, q), validated)

    def test_complement_sums_to_one(self):
        """The rounding argument of from_bernoulli, on edge and random x."""
        rng = np.random.default_rng(123)
        x = np.concatenate([tv.ProbVector(self.EDGE_PARAMS).params, rng.random(10 ** 5),
                            rng.random(10 ** 4) * 2.0 ** -60, 1.0 - rng.random(10 ** 4) * 2.0 ** -40])
        assert np.all((1.0 - x) + x == 1.0)

    def test_joint_support_beyond_int64(self):
        # An int64 product of 64 twos wraps to 0, which would pass any budget.
        pair = tv.FiniteProductPair.from_bernoulli([0.5] * 64, [0.4] * 64)
        assert pair.joint_support() == 2 ** 64
        assert type(pair.joint_support()) is int
        with pytest.raises(tv.EnumerationBudgetError):
            tv.exact_tv_general(pair)


class TestMonteCarlo:
    def test_identical_pair_is_exactly_zero(self):
        rng = np.random.default_rng(110)
        for p in (rng.random(6), [0.0, 1.0, 0.25], [1e-300, 1.0 - 1e-16]):
            value = tv.mc_tv_estimate(p, p, samples=1000, seed=5).value
            assert value == 0.0
            assert math.copysign(1.0, value) == 1.0  # never -0.0

    def test_disjoint_pair_is_exactly_one(self):
        est = tv.mc_tv_estimate([1.0], [0.0], samples=1000, seed=9)
        assert est.value == 1.0
        # Every draw has a one where q = 0 or a zero where q = 1.
        est = tv.mc_tv_estimate([1.0, 0.0, 0.5], [0.0, 1.0, 0.5], samples=70_000, seed=9)
        assert est.value == 1.0

    def test_half_width_formula(self):
        est = tv.mc_tv_estimate([0.5], [0.5], samples=4000, confidence=0.9, seed=1)
        assert est.half_width == pytest.approx(
            math.sqrt(math.log(2.0 / 0.1) / (2.0 * 4000)), abs=1e-15
        )

    def test_bit_reproducible(self):
        first = tv.mc_tv_estimate([0.5, 0.5], [0.0, 0.0], samples=50_000, seed=3)
        second = tv.mc_tv_estimate([0.5, 0.5], [0.0, 0.0], samples=50_000, seed=3)
        assert first.value == second.value
        p, q = np.random.default_rng(31).random((2, 50))
        values = {tv.mc_tv_estimate(p, q, samples=70_000, seed=3).value for _ in range(3)}
        assert len(values) == 1

    def test_estimates_near_oracle(self):
        for seed in range(5):
            est = tv.mc_tv_estimate([0.5, 0.5], [0.0, 0.0], samples=100_000, seed=seed)
            assert abs(est.value - 0.75) <= est.half_width

    def test_zero_probability_coordinates_are_safe(self):
        est = tv.mc_tv_estimate([0.0, 1.0, 0.5], [0.3, 0.7, 0.5], samples=2000, seed=2)
        assert 0.0 <= est.value <= 1.0

    def test_clamped_interval(self):
        est = tv.mc_tv_estimate([1.0], [0.0], samples=10, seed=0)
        assert est.upper == 1.0
        assert est.lower == pytest.approx(1.0 - est.half_width)

    @pytest.mark.parametrize("n, samples", [(1, 5000), (7, 4000), (40, 3000), (300, 1000),
                                            (1000, 400), (3, 70_000), (3, 200_000)])
    def test_matches_product_reference(self, n, samples):
        # Far pairs (independent parameters) and near pairs (gaps of about
        # 1/sqrt(n)); 70000 samples cross one batch boundary, 200000 three.
        rng = np.random.default_rng(n)
        p = rng.random(n)
        for q in (rng.random(n), np.clip(p + rng.normal(0.0, 0.5 / math.sqrt(n), n), 0.0, 1.0)):
            seed = int(rng.integers(1 << 31))
            est = tv.mc_tv_estimate(p, q, samples=samples, seed=seed)
            assert est.value == pytest.approx(mc_product_reference(p, q, samples, seed),
                                              rel=0.0, abs=1e-12)

    @pytest.mark.parametrize("p, q", [
        ([0.0, 1.0, 0.5], [0.3, 0.7, 0.5]),
        ([0.3, 0.7, 0.5], [0.0, 1.0, 0.5]),  # Q cannot produce some draws
        ([0.0, 1.0, 0.0, 1.0], [0.0, 1.0, 0.0, 1.0]),
        ([0.0, 1.0], [1.0, 0.0]),
        ([0.2, 0.6, 0.9], [0.2 + 1e-9, 0.6 - 1e-9, 0.9 + 1e-12]),
        ([0.5, 1e-300, 1.0 - 1e-16], [0.5, 0.0, 1.0]),
    ], ids=["p-edges", "q-edges", "identical-edges", "disjoint", "near-identical",
            "impossible-rare"])
    def test_edge_pairs_match_product_reference(self, p, q):
        est = tv.mc_tv_estimate(p, q, samples=5000, seed=8)
        assert 0.0 <= est.value <= 1.0
        assert est.value == pytest.approx(mc_product_reference(p, q, 5000, 8),
                                          rel=0.0, abs=1e-12)

    @pytest.mark.parametrize("n, samples", [
        (1, 1), (300, 1), (4, 65535), (5, 65536), (6, 65537), (3, 131073), (300, 700),
        (60, 3000), (65536, 3), (65537, 2), (3, 65536 + 21846), (5, 65536 + 1000),
        (2, 65537), (3, 43691), (7, 18725)])
    def test_matches_generator_reference_bit_for_bit(self, n, samples):
        # The edge parameters sit at either end of the comparison: 0 and 1 are
        # never and always a one, 5e-324 only when w >> 11 is 0, and 1 - 1e-16
        # unless w >> 11 is 2**53 - 1. Words are drawn in blocks of
        # max(1, 131072 // n) samples: two at n = 65536 and one at 65537; in
        # the last three cases a block is one batch (n = 2) or the last block
        # holds one sample (n = 3 and 7). The others also cover the edges of
        # blocks of max(1, 65536 // n): at n = 3 a block held 21845, so each
        # batch ended one row into a block, and at n = 5 the last batch of
        # 1000 was shorter than one block of 13107.
        rng = np.random.default_rng(1000 + n + samples)
        for _ in range(3):
            p, q = rng.random(n), rng.random(n)
            for side in (p, q):
                edge = rng.random(n) < 0.3
                side[edge] = rng.choice([0.0, 1.0, 5e-324, 1.0 - 1e-16], int(edge.sum()))
            same = rng.random(n) < 0.3
            q[same] = p[same]
            seed = int(rng.integers(1 << 31))
            assert (tv.mc_tv_estimate(p, q, samples=samples, seed=seed).value.hex()
                    == mc_estimate_reference(p, q, samples, seed).hex()), (n, samples, seed)

    @pytest.mark.parametrize("n, samples, limit", [
        (1000, 20_000, 20_000 * 1000 + 2 * 2 ** 20),
        (400, 100_000, 65536 * 400 + 4 * 2 ** 20)])
    def test_memory_is_one_byte_per_bit_plus_a_block_of_words(self, n, samples, limit):
        # The largest batch's outcome bits as bytes, which the last batch
        # reuses, at most 1 MiB of words at a time, and a few float64
        # arrays of one batch's length (512 KiB each at 65536 samples). At
        # n = 1000 one batch's words drawn at once would be 160 MB, and at
        # n = 400 a second array for the last batch's bits 13.8 MB.
        p, q = np.random.default_rng(130).random((2, n))
        tracemalloc.start()
        try:
            tv.mc_tv_estimate(p, q, samples=samples, seed=4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= limit, peak

    @pytest.mark.parametrize("n, samples", [(20, 20_000), (3, 200_000), (400, 100_000)])
    def test_one_block_of_words_and_one_batch_at_a_time(self, n, samples):
        # Above the outcome bits: one block of words, or one batch's arrays of
        # m entries, never two of either. Drawing a block before freeing the one
        # before it took 1026 KiB above the bits at (20, 20000) with 512 KiB
        # blocks, and two batches' arrays overlapped at (3, 200000).
        m = min(samples, tv.core._MC_BATCH)
        p, q = np.random.default_rng(131).random((2, n))
        tracemalloc.start()
        try:
            tv.mc_tv_estimate(p, q, samples=samples, seed=4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= n * m + 8 * tv.core._MC_BLOCK_WORDS + 16 * m + 64 * 1024, peak

    def test_impossible_states_count_as_one(self):
        # Q cannot produce a one in the first coordinate; elsewhere P = Q, so
        # the estimate is the share of draws with that one: over two batches,
        # the uniforms of np.random.default_rng(seed) below 0.25, drawn row
        # by row, at seeds across the seed range.
        for seed in (12, 0, np.uint64(2 ** 64 - 1), 2 ** 128 - 1):
            est = tv.mc_tv_estimate([0.25, 0.6], [0.0, 0.6], samples=70_000, seed=seed)
            ones = np.random.default_rng(seed).random((70_000, 2))[:, 0] < 0.25
            assert est.value == np.count_nonzero(ones) / 70_000, seed

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            tv.mc_tv_estimate([0.5], [0.5], samples=0)
        with pytest.raises(ValueError):
            tv.mc_tv_estimate([0.5], [0.5], samples=10, confidence=1.0)
        with pytest.raises(tv.DimensionMismatchError):
            tv.mc_tv_estimate([0.5], [0.5, 0.5], samples=10)
