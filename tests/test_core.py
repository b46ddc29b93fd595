import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prodtv as tv
from oracles import (
    random_bernoulli_pair,
    random_product_pair,
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
            assert tv.exact_tv_general(pair) == pytest.approx(
                tv.exact_tv_bernoulli(p, q), abs=1e-12
            )

    def test_worker_count_does_not_change_bits(self):
        rng = np.random.default_rng(107)
        pair = random_product_pair(rng, n_max=9, support_max=4, zero_prob=0.0)
        results = {tv.exact_tv_general(pair, workers=w) for w in (1, 4, 8)}
        assert len(results) == 1

    def test_budget(self):
        pair = tv.FiniteProductPair.from_bernoulli([0.5] * 8, [0.4] * 8)
        with pytest.raises(tv.EnumerationBudgetError):
            tv.exact_tv_general(pair, budget_log2=7)


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

    def test_norm_ordering(self):
        rng = np.random.default_rng(109)
        for _ in range(100):
            delta = tv.MarginalTV(rng.random(int(rng.integers(1, 12))))
            n = len(delta)
            assert delta.linf <= delta.l2 + 1e-12
            assert delta.l2 <= delta.l1 + 1e-12
            assert delta.l1 <= n * delta.linf + 1e-12


class TestValidation:
    def test_prob_vector_range(self):
        with pytest.raises(tv.InvalidDistributionError):
            tv.ProbVector([0.5, 1.2])
        with pytest.raises(tv.InvalidDistributionError):
            tv.ProbVector([-0.1])
        with pytest.raises(tv.InvalidDistributionError):
            tv.ProbVector([float("nan")])
        with pytest.raises(tv.InvalidDistributionError):
            tv.ProbVector([])

    def test_finite_dist(self):
        with pytest.raises(tv.InvalidDistributionError):
            tv.FiniteDist([0.5, -0.1, 0.6])
        with pytest.raises(tv.InvalidDistributionError):
            tv.FiniteDist([0.5, 0.4])  # sums to 0.9
        dist = tv.FiniteDist([0.5, 0.5 + 1e-10])
        assert dist.masses.sum() == pytest.approx(1.0, abs=1e-15)

    def test_pair_shape_checks(self):
        with pytest.raises(tv.DimensionMismatchError):
            tv.FiniteProductPair(([0.5, 0.5],), ([0.5, 0.5], [0.5, 0.5]))
        with pytest.raises(tv.InvalidDistributionError):
            tv.FiniteProductPair(([0.5, 0.5],), ([0.2, 0.3, 0.5],))
        with pytest.raises(tv.InvalidDistributionError):
            tv.FiniteProductPair((), ())


class TestMonteCarlo:
    def test_identical_pair_is_exactly_zero(self):
        rng = np.random.default_rng(110)
        p = rng.random(6)
        est = tv.mc_tv_estimate(p, p, samples=1000, seed=5)
        assert est.value == 0.0

    def test_disjoint_pair_is_exactly_one(self):
        est = tv.mc_tv_estimate([1.0], [0.0], samples=1000, seed=9)
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

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            tv.mc_tv_estimate([0.5], [0.5], samples=0)
        with pytest.raises(ValueError):
            tv.mc_tv_estimate([0.5], [0.5], samples=10, confidence=1.0)
        with pytest.raises(tv.DimensionMismatchError):
            tv.mc_tv_estimate([0.5], [0.5, 0.5], samples=10)
