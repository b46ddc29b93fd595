import dataclasses
import math
import re

import numpy as np
import pytest
from scipy.special import rel_entr

import prodtv as tv
from prodtv import bounds as bounds_module
from oracles import (
    bounds_report_reference,
    joint_masses,
    kl_error_bound,
    kl_mpmath,
    loop_reference,
    random_bernoulli_pair,
    random_product_pair,
)
from prodtv.bounds import (_kl_divergence, _left_sum, _min_mass_products, _product,
                           _rel_entr)


class TestConstants:
    def test_chain_relations(self):
        c = tv.LOWER_BOUND_CONSTANTS
        assert c.c_final <= c.c_chain / 2.0
        assert c.c_chain <= c.c_concave * c.c_exp + 1e-4
        assert c.c_exp == pytest.approx(2.0 - 2.0 * math.exp(-0.5), abs=0)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            tv.LOWER_BOUND_CONSTANTS.c_final = 0.5


class TestTrivialBracket:
    def test_basic(self):
        assert tv.trivial_bracket([0.1, 0.2]) == pytest.approx((0.2, 0.3), abs=1e-12)

    def test_zero(self):
        assert tv.trivial_bracket([0.0, 0.0, 0.0]) == (0.0, 0.0)

    def test_l1_clamped(self):
        lower, upper = tv.trivial_bracket([0.6, 0.7])
        assert lower == pytest.approx(0.7)
        assert upper == 1.0


class TestL2LowerBound:
    def test_basic(self):
        expected = 0.1798 * math.hypot(0.2, 0.2)
        assert tv.l2_lower_bound([0.2, 0.2]) == pytest.approx(expected, abs=1e-15)

    def test_zero(self):
        assert tv.l2_lower_bound([0.0, 0.0]) == 0.0

    def test_clamped_at_one(self):
        assert tv.l2_lower_bound([1.0] * 9) == pytest.approx(0.1798, abs=1e-15)

    def test_sound_on_random_pairs(self):
        rng = np.random.default_rng(301)
        for _ in range(500):
            p, q = random_bernoulli_pair(rng, 12)
            exact = tv.exact_tv_bernoulli(p, q)
            assert exact >= tv.l2_lower_bound(np.abs(p - q)) - 1e-12


class TestSymmetricUpperBounds:
    def test_l2_single_coordinate(self):
        assert tv.symmetric_l2_upper_bound([0.75]) == pytest.approx(0.5, abs=1e-15)
        assert tv.exact_tv_bernoulli([0.75], [0.25]) == pytest.approx(0.5, abs=1e-15)

    def test_l2_balanced_is_zero(self):
        assert tv.symmetric_l2_upper_bound([0.5] * 6) == 0.0

    def test_l2_quarter_shift(self):
        n = 4
        p = [0.5 + 1.0 / (2 * n)] * n
        assert tv.symmetric_l2_upper_bound(p) == pytest.approx(0.5, abs=1e-12)
        assert tv.exact_tv_bernoulli(p, [0.5 - 1.0 / (2 * n)] * n) <= 0.5 + 1e-12

    def test_l2_clamped_at_one(self):
        assert tv.symmetric_l2_upper_bound([1.0] * 9) == 1.0

    def test_affinity_balanced_is_zero(self):
        assert tv.symmetric_affinity_upper_bound([0.5, 0.5]) == 0.0

    def test_affinity_point_nine(self):
        assert tv.symmetric_affinity_upper_bound([0.9]) == pytest.approx(0.8, abs=1e-12)
        assert tv.exact_tv_bernoulli([0.9], [0.1]) == pytest.approx(0.8, abs=1e-15)

    def test_affinity_degenerate_coordinate(self):
        assert tv.symmetric_affinity_upper_bound([1.0, 0.7]) == 1.0
        assert tv.symmetric_affinity_upper_bound([0.0]) == 1.0

    def test_affinity_exact_at_single_coordinate(self):
        rng = np.random.default_rng(302)
        for _ in range(300):
            p = float(rng.random())
            exact = tv.exact_tv_bernoulli([p], [1.0 - p])
            assert tv.symmetric_affinity_upper_bound([p]) == pytest.approx(exact, abs=1e-12)

    def test_both_sound_on_random_symmetric_pairs(self):
        rng = np.random.default_rng(303)
        for _ in range(300):
            n = int(rng.integers(1, 13))
            p = rng.random(n)
            exact = tv.exact_tv_bernoulli(p, 1.0 - p)
            assert exact <= tv.symmetric_l2_upper_bound(p) + 1e-12
            assert exact <= tv.symmetric_affinity_upper_bound(p) + 1e-12

    def test_chain_lower_bound_on_symmetric_pairs(self):
        # 0.3597 * min(||2p-1||_2, 1/2) lower-bounds the symmetric TV
        rng = np.random.default_rng(304)
        c = tv.LOWER_BOUND_CONSTANTS.c_chain
        for _ in range(300):
            n = int(rng.integers(1, 13))
            p = rng.random(n)
            exact = tv.exact_tv_bernoulli(p, 1.0 - p)
            gap = float(np.linalg.norm(2.0 * p - 1.0))
            assert exact >= c * min(gap, 0.5) - 1e-9


class TestHellingerBracket:
    def test_identical(self):
        pair = tv.FiniteProductPair.from_bernoulli([0.3, 0.7], [0.3, 0.7])
        assert tv.hellinger_bracket(pair) == (0.0, 0.0)

    def test_disjoint_single_coordinate(self):
        pair = tv.FiniteProductPair.from_bernoulli([1.0], [0.0])
        lower, upper = tv.hellinger_bracket(pair)
        assert lower == pytest.approx(1.0, abs=1e-12)
        assert upper == pytest.approx(1.0, abs=1e-12)

    def test_contains_exact_tv_on_half_vs_zero_pair(self):
        pair = tv.FiniteProductPair.from_bernoulli([0.5, 0.5], [0.0, 0.0])
        lower, upper = tv.hellinger_bracket(pair)
        assert lower - 1e-12 <= 0.75 <= upper + 1e-12

    def test_product_identity_matches_joint_computation(self):
        rng = np.random.default_rng(305)
        for _ in range(200):
            pair = random_product_pair(rng, n_max=5, support_max=4)
            jp = joint_masses([d.masses for d in pair.p_side])
            jq = joint_masses([d.masses for d in pair.q_side])
            h_sq_joint = float(((np.sqrt(jp) - np.sqrt(jq)) ** 2).sum())
            lower, upper = tv.hellinger_bracket(pair)
            assert lower == pytest.approx(0.5 * h_sq_joint, abs=1e-10)
            expected_upper = math.sqrt(h_sq_joint) * math.sqrt(max(0.0, 1 - h_sq_joint / 4))
            assert upper == pytest.approx(expected_upper, abs=1e-10)

    def test_contains_exact_tv(self):
        rng = np.random.default_rng(306)
        for _ in range(300):
            pair = random_product_pair(rng)
            exact = tv.exact_tv_general(pair)
            lower, upper = tv.hellinger_bracket(pair)
            assert lower - 1e-12 <= exact <= upper + 1e-12


class TestKLBracket:
    def test_identical_pair(self):
        pair = tv.FiniteProductPair.from_bernoulli([0.3], [0.3])
        lower, upper = tv.kl_bracket(pair)
        assert upper == 0.0
        assert lower == 0.0  # P_min = 0.3 < 1/2, so the lower bound is emitted

    def test_support_mismatch_gives_upper_one(self, monkeypatch):
        # A state with Q = 0 < P makes KL infinite before any term is formed.
        def refuse(*args):
            raise AssertionError("_rel_entr called")
        monkeypatch.setattr(bounds_module, "_rel_entr", refuse)
        for p_masses, q_masses in [
                ([[0.5, 0.5]], [[1.0, 0.0]]),
                ([[0.25, 0.75], [0.2, 0.3, 0.5]], [[0.5, 0.5], [0.0, 0.6, 0.4]]),
                ([[1e-300, 1.0]], [[0.0, 1.0]])]:
            pair = tv.FiniteProductPair(p_masses, q_masses)
            assert tv.kl_bracket(pair) == (None, 1.0)

    def test_small_shift_instance(self):
        pair = tv.FiniteProductPair.from_bernoulli([0.6, 0.6], [0.5, 0.5])
        kl = 2.0 * (0.6 * math.log(1.2) + 0.4 * math.log(0.8))
        lower, upper = tv.kl_bracket(pair)
        assert upper == pytest.approx(math.sqrt(kl / 2.0), abs=1e-12)
        exact = tv.exact_tv_bernoulli([0.6, 0.6], [0.5, 0.5])
        assert lower is not None and lower - 1e-12 <= exact <= upper + 1e-12

    def test_negative_kl_sum_names_its_value(self):
        # Both terms of the first coordinate are subnormal, and their rounded
        # sum is below 0, which no true KL is.
        pair = tv.FiniteProductPair.from_bernoulli([5e-324, 0.5], [1e-300, 0.5])
        kl = _kl_divergence(pair)
        assert kl < 0.0
        message = f"KL sum of the stored masses is {kl!r}, below 0"
        with pytest.raises(ValueError, match=re.escape(message)):
            tv.kl_bracket(pair)

    def test_underflowing_q_min_names_the_lower_bound(self):
        # Q_min = 1e-300 * 1e-300 underflows to 0.0 while P_min = 0.25 passes
        # the gate, so the lower bound's 1 / m has no value (ROADMAP item 1).
        pair = tv.FiniteProductPair.from_bernoulli([0.5, 0.5], [1e-300, 1e-300])
        message = ("the KL lower bound KL / (2 log(1/m)) divides by zero: the joint minimum "
                   "mass m = min(P_min, Q_min) is Q_min, which underflows to 0.0 (P_min = 0.25)")
        with pytest.raises(ZeroDivisionError, match=f"^{re.escape(message)}$"):
            tv.kl_bracket(pair)

    def test_gate_requires_small_p_min(self):
        # P_min = 0.5 fails the strict gate even though KL is finite
        pair = tv.FiniteProductPair.from_bernoulli([0.5], [0.4])
        lower, _ = tv.kl_bracket(pair)
        assert lower is None

    def test_gate_requires_positive_p_min(self):
        pair = tv.FiniteProductPair.from_bernoulli([1.0], [0.9])
        lower, upper = tv.kl_bracket(pair)
        assert lower is None
        assert upper <= 1.0

    def test_state_of_mass_zero_on_both_sides_gates(self):
        # A state that both sides give mass 0 makes P_min 0, so no lower bound;
        # it must not be taken for padding. Without it the bound is emitted.
        p_rows = [[0.5, 0.5, 0.0], [0.3, 0.7], [0.2, 0.3, 0.5]]
        q_rows = [[0.4, 0.6, 0.0], [0.35, 0.65], [0.25, 0.3, 0.45]]
        lower, upper = tv.kl_bracket(tv.FiniteProductPair(p_rows, q_rows))
        assert lower is None
        assert (lower, upper) == loop_reference(p_rows, q_rows)["kl"]
        p_rows[0], q_rows[0] = [0.5, 0.5], [0.4, 0.6]
        lower, upper = tv.kl_bracket(tv.FiniteProductPair(p_rows, q_rows))
        assert lower is not None
        assert (lower, upper) == loop_reference(p_rows, q_rows)["kl"]

    def test_additivity_matches_joint_computation(self):
        rng = np.random.default_rng(307)
        for _ in range(200):
            pair = random_product_pair(rng, n_max=5, support_max=4, zero_prob=0.0)
            jp = joint_masses([d.masses for d in pair.p_side])
            jq = joint_masses([d.masses for d in pair.q_side])
            kl_joint = float(rel_entr(jp, jq).sum())
            _, upper = tv.kl_bracket(pair)
            assert upper == pytest.approx(min(1.0, math.sqrt(kl_joint / 2.0)), abs=1e-10)

    def test_bracket_vs_exact_tv(self):
        rng = np.random.default_rng(308)
        emitted = 0
        for _ in range(400):
            pair = random_product_pair(rng)
            exact = tv.exact_tv_general(pair)
            lower, upper = tv.kl_bracket(pair)
            assert exact <= upper + 1e-12
            if lower is not None:
                emitted += 1
                assert lower <= exact + 1e-9
        assert emitted > 50  # the gate should actually pass sometimes


U = 2.0 ** -53
SMALLEST = 2.0 ** -1074


def _term_mpmath(x, y):
    """x log(x/y) at the floats x and y, in mpmath, as a float."""
    return float(kl_mpmath([[x]], [[y]])[0])


class TestKLAgainstMpmath:
    """The KL terms and sum against mpmath, within kl_bracket's documented bound.

    np.log is SIMD-dispatched: on AVX-512 hosts numpy runs its own vectorized
    log, elsewhere libm's, so the KL's last bits can differ between CPUs, as
    upper_affinity's already can. The bound allows logs off by 4 ulps, so it
    holds on either.
    """

    # Ratios x/y at and next to the branch points 1/2 and 2, subnormal and
    # overflowing ratios, zero masses on either side and equal masses.
    EDGES = [(0.5, 1.0), (1.0, 2.0), (0.25, 0.125), (0.3, 0.15),
             (np.nextafter(0.5, 1.0), 1.0), (np.nextafter(0.5, 0.0), 1.0),
             (np.nextafter(1.0, 2.0), 0.5), (np.nextafter(1.0, 0.0), 0.5),
             (1.0, 1e-310), (1e-310, 1.0), (0.7, 1e-300), (1e-300, 0.7),
             (5e-324, 1.0), (2.0 ** -1022, 1.0), (1.0, 2.0 ** -1022),
             (0.0, 0.4), (0.0, 0.0), (0.4, 0.0), (0.4, 0.4), (1.0, 1.0)]

    def check_pair(self, pair):
        got = _kl_divergence(pair)
        want, scale = kl_mpmath(pair.p_masses, pair.q_masses)
        if want == math.inf:
            assert got == math.inf
            return
        bound = kl_error_bound(pair.n, pair.p_masses.shape[1], scale)
        assert abs(got - float(want)) <= bound, (got, float(want), bound)

    def test_edge_terms(self):
        x, y = (np.array(v, dtype=float) for v in zip(*self.EDGES))
        got = _rel_entr(x, y)
        for a, b, term in zip(x.tolist(), y.tolist(), got.tolist()):
            want = _term_mpmath(a, b)
            if a == 0.0:
                assert term == 0.0 and not math.copysign(1.0, term) < 0.0
            elif b == 0.0:
                assert term == math.inf
            else:
                assert abs(term - want) <= 24 * U * abs(want) + SMALLEST, (a, b, term, want)

    def test_terms_agree_with_scipy_rel_entr(self):
        # Same zeros and infinities as scipy's rel_entr, and values within the
        # documented 24 ulps plus scipy's own rounding (libm logs, 1 ulp).
        rng = np.random.default_rng(340)
        x = np.concatenate([rng.random(4000), rng.random(4000) ** 30,
                            [a for a, _ in self.EDGES]])
        y = np.concatenate([rng.random(4000), rng.random(4000) ** 30,
                            [b for _, b in self.EDGES]])
        x[::9] = 0.0
        y[::13] = 0.0
        got, want = _rel_entr(x, y), rel_entr(x, y)
        if math.isinf(rel_entr(1.0, 1e-310)):
            # A scipy without the log1p and log x - log y branches computes
            # x*log(x/y) alone: compare it where that is the branch taken.
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                ratio = x / y
            far = ((np.finfo(np.float64).tiny < ratio) & (ratio < np.inf)
                   & ~((0.5 < ratio) & (ratio < 2.0)))
            keep = far | (x == 0.0) | (y == 0.0)
            got, want = got[keep], want[keep]
        assert np.array_equal(np.isinf(got), np.isinf(want))
        finite = np.isfinite(want)
        got, want = got[finite], want[finite]
        assert np.all(np.abs(got - want) <= 32 * U * np.abs(want) + SMALLEST)

    def test_each_term_alone_is_bit_identical(self):
        x, y = (np.array(v, dtype=float) for v in zip(*self.EDGES))
        rows = _rel_entr(np.tile(x, (3, 1)), np.tile(y, (3, 1)))
        alone = [_rel_entr(x[i:i + 1], y[i:i + 1])[0] for i in range(x.size)]
        assert rows.tobytes() == np.tile(alone, (3, 1)).tobytes()

    def test_edge_pairs(self):
        for p_rows, q_rows in [
            ([[1.0, 0.0]], [[1e-310, 1.0]]),        # x/y overflows
            ([[1e-310, 1.0]], [[1.0, 1e-310]]),     # and is subnormal
            ([[0.5, 0.5, 0.0]], [[0.25, 0.75, 0.0]]),  # x/y = 2 exactly, and 0/0
            ([[0.25, 0.75]], [[0.5, 0.5]]),         # x/y = 1/2 exactly
            ([[0.2, 0.3, 0.5], [0.6, 0.4]], [[0.2, 0.3, 0.5], [0.6, 0.4]]),  # identical
            ([[0.0, 1.0], [0.3, 0.7]], [[0.5, 0.5], [0.0, 1.0]]),  # y = 0 < x: inf
        ]:
            self.check_pair(tv.FiniteProductPair(p_rows, q_rows))

    def test_random_pairs(self):
        rng = np.random.default_rng(341)
        for _ in range(150):
            self.check_pair(random_product_pair(rng, n_max=8, support_max=7))
        for gap in (1e-2, 1e-5, 1e-9, 1e-12):
            for n in (1, 5, 40):
                p = rng.uniform(0.1, 0.9, n)
                q = p + gap * rng.choice((-1.0, 1.0), n)
                self.check_pair(tv.FiniteProductPair.from_bernoulli(p, q))

    def test_padded_rows_with_tiny_masses(self):
        rng = np.random.default_rng(342)
        for _ in range(60):
            p_rows, q_rows = _random_rows(rng, int(rng.integers(1, 20)), 7)
            for rows in (p_rows, q_rows):
                for row in rows[::4]:
                    row[-1] = 1e-300
                    row /= row.sum()
            self.check_pair(tv.FiniteProductPair(p_rows, q_rows))


def _old_row_min(masses, sizes):
    return masses.min(axis=1, where=np.arange(masses.shape[1]) < sizes[:, None],
                      initial=np.inf)


def _fold_product(values):
    product = 1.0
    for v in values.tolist():
        product *= v
    return product


class TestOrderFreeReductions:
    """The column-wise reductions and folds against the expressions they
    replaced, bit for bit."""

    def pairs(self, rng, k_max):
        for _ in range(200):
            p_rows, q_rows = _random_rows(rng, int(rng.integers(1, 41)), k_max)
            for rows in (p_rows, q_rows):
                for row in rows[::5]:
                    row[int(rng.integers(row.size))] = 1e-300
                    row /= row.sum()
            yield tv.FiniteProductPair(p_rows, q_rows)

    @pytest.mark.parametrize("k_max", [7, 12])
    def test_min_mass_products_and_active_set(self, k_max):
        rng = np.random.default_rng(343 + k_max)
        gated = 0
        for pair in self.pairs(rng, k_max):
            sizes = pair.support_sizes
            states = np.arange(pair.p_masses.shape[1]) < sizes[:, None]
            got = _min_mass_products(pair, states)
            want = [_fold_product(_old_row_min(masses, sizes))
                    for masses in (pair.p_masses, pair.q_masses)]
            assert [v.hex() for v in got] == [v.hex() for v in want]
            # kl_bracket's mask: P's positive masses, when P has no state of mass 0.
            if np.count_nonzero(pair.p_masses > 0.0) == sizes.sum():
                gated += 1
                assert _min_mass_products(pair, pair.p_masses > 0.0) == got
            _assert_active_set_is_positive_p(pair)
        assert 0 < gated < 200  # both kinds of P occur

    def test_active_set_on_edge_inputs(self):
        """bounds_report reads the active coordinates as p > 0: a coordinate
        has a favored state exactly when its favored P-mass is positive, also
        at subnormal masses, long rows, identical rows and one-ulp gaps."""
        tiny = 5e-324
        one_less = np.nextafter(1.0, 0.0)
        pairs = [
            tv.FiniteProductPair([[tiny, 1.0]], [[0.0, 1.0]]),
            tv.FiniteProductPair([[0.0, 1.0]], [[tiny, 1.0]]),
            tv.FiniteProductPair([[tiny, tiny, 1.0]], [[tiny, 0.0, 1.0]]),
            tv.FiniteProductPair([np.eye(12)[3]], [np.eye(12)[3]]),
            tv.FiniteProductPair([[0.5, 0.5], [0.25, 0.75]], [[0.5, 0.5], [0.25, 0.75]]),
        ]
        for p, q in [([0.0, 1.0, tiny, one_less, 0.5], [tiny, one_less, 0.0, 1.0, 0.5]),
                     ([tiny, 2 * tiny, 0.3], [0.0, tiny, np.nextafter(0.3, 1.0)]),
                     ([1.0, 0.0, 0.0], [1.0, 0.0, 1.0])]:
            pairs += [tv.FiniteProductPair.from_bernoulli(p, q),
                      tv.FiniteProductPair.from_bernoulli(q, p)]
        rng = np.random.default_rng(347)
        for _ in range(300):
            k = int(rng.integers(2, 17))  # numpy sums rows of 8 or more pairwise
            p_rows, q_rows = [], []
            for _ in range(int(rng.integers(1, 6))):
                p = rng.random(k) * (rng.random(k) < 0.6)
                if not p.any():
                    p[0] = 1.0
                p = p / p.sum()
                kind = int(rng.integers(4))
                if kind == 0:  # identical rows
                    q = p.copy()
                elif kind == 1:  # one ulp apart on some states
                    q = np.where(rng.random(k) < 0.5, np.nextafter(p, 1.0), p)
                elif kind == 2:  # subnormal masses on the zero states
                    q = np.where(p == 0.0, tiny * rng.integers(0, 3, k), p)
                else:
                    q = p * np.exp(rng.normal(0.0, 1e-3, k))
                p_rows.append(p)
                q_rows.append(q / q.sum())
            pairs.append(tv.FiniteProductPair(p_rows, q_rows))
        inactive = 0
        for pair in pairs:
            inactive += np.count_nonzero(~_assert_active_set_is_positive_p(pair))
        assert inactive > 0  # coordinates without a favored state occur

    def test_empty_pair(self):
        pair = tv.FiniteProductPair([[0.5, 0.5]], [[0.5, 0.5]])._take(np.array([False]))
        assert _min_mass_products(pair, pair.p_masses > 0.0) == [1.0, 1.0]
        assert _product(np.array([])) == 1.0 and _left_sum(np.array([])) == 0.0

    def test_product_and_sum_fold_left_to_right(self):
        # From 8 values numpy's sum adds pairwise, and a fold would differ.
        rng = np.random.default_rng(345)
        for n in (1, 2, 7, 8, 9, 100, 1000):
            factors, terms = rng.uniform(0.5, 1.5, n), rng.uniform(-1.0, 1.0, n)
            product, total = 1.0, 0.0
            for f, t in zip(factors.tolist(), terms.tolist()):
                product *= f
                total += t
            assert _product(factors) == product
            assert _left_sum(terms) == total
        for zeros in ([-0.0], [-0.0, -0.0], [-0.0, 0.0]):
            assert math.copysign(1.0, _left_sum(np.array(zeros))) == 1.0


class TestBoundsReport:
    def test_identical_pair(self):
        pair = tv.FiniteProductPair.from_bernoulli([0.3, 0.6], [0.3, 0.6])
        report = tv.bounds_report(pair)
        assert report.best_upper == 0.0
        assert report.best_lower == 0.0
        assert report.lower_trivial == 0.0
        assert report.lower_l2 == 0.0
        assert report.lower_hellinger == 0.0
        assert report.ratio is None

    def test_gap_instance_report(self):
        pair = tv.FiniteProductPair.from_bernoulli([0.25] * 4, [0.0] * 4)
        report = tv.bounds_report(pair)
        assert report.lower_l2 == pytest.approx(0.1798 * 0.5, abs=1e-12)
        assert report.best_lower >= 0.1798 * 0.5 - 1e-12
        assert report.upper_trivial == 1.0
        exact = tv.exact_tv_bernoulli([0.25] * 4, [0.0] * 4)
        assert exact == pytest.approx(1.0 - 0.75 ** 4, abs=1e-12)
        assert report.best_lower - 1e-9 <= exact <= report.best_upper + 1e-9

    def test_symmetric_instance_emits_symmetric_bounds(self):
        pair = tv.FiniteProductPair.from_bernoulli([0.625] * 4, [0.375] * 4)
        report = tv.bounds_report(pair)
        assert report.upper_symmetric == pytest.approx(0.5, abs=1e-12)
        assert report.upper_affinity is not None
        assert report.best_upper <= 0.5 + 1e-12

    def test_asymmetric_instance_has_no_symmetric_bounds(self):
        pair = tv.FiniteProductPair.from_bernoulli([0.8, 0.7], [0.1, 0.4])
        report = tv.bounds_report(pair)
        assert report.upper_symmetric is None
        assert report.upper_affinity is None

    def test_general_support_gets_no_symmetric_bounds(self):
        # reduces to p=0.6, q=0.4 (symmetric numbers) but the coordinate is
        # three-point, so the reduction is lossy and the bound must not appear
        pair = tv.FiniteProductPair(
            ([0.6, 0.2, 0.2],), ([0.4, 0.3, 0.3],)
        )
        report = tv.bounds_report(pair)
        assert report.upper_symmetric is None

    def test_sandwich_on_random_bernoulli_pairs(self):
        rng = np.random.default_rng(309)
        for _ in range(300):
            p, q = random_bernoulli_pair(rng, 12)
            report = tv.bounds_report(tv.FiniteProductPair.from_bernoulli(p, q))
            exact = tv.exact_tv_bernoulli(p, q)
            assert report.best_lower - 1e-9 <= exact <= report.best_upper + 1e-9
            assert 0.0 <= report.best_lower <= report.best_upper <= 1.0

    def test_sandwich_on_random_general_pairs(self):
        rng = np.random.default_rng(310)
        for _ in range(300):
            pair = random_product_pair(rng)
            report = tv.bounds_report(pair)
            exact = tv.exact_tv_general(pair)
            assert report.best_lower - 1e-9 <= exact <= report.best_upper + 1e-9

    def test_padding_with_identical_coordinate_changes_nothing(self):
        rng = np.random.default_rng(311)
        fields = ["lower_trivial", "lower_l2", "lower_hellinger", "lower_kl",
                  "upper_trivial", "upper_hellinger", "upper_pinsker",
                  "upper_symmetric", "upper_affinity", "best_lower", "best_upper"]
        for _ in range(100):
            pair = random_product_pair(rng, n_max=4, support_max=3)
            shared = tv.FiniteDist(rng.dirichlet(np.ones(3)))
            padded = tv.FiniteProductPair(pair.p_side + (shared,),
                                          pair.q_side + (shared,))
            base, grown = tv.bounds_report(pair), tv.bounds_report(padded)
            assert tv.exact_tv_general(padded) == pytest.approx(
                tv.exact_tv_general(pair), abs=1e-12
            )
            for name in fields:
                a, b = getattr(base, name), getattr(grown, name)
                if a is None or b is None:
                    assert a == b
                else:
                    assert b == pytest.approx(a, abs=1e-12), name
            assert grown.delta.l1 == pytest.approx(base.delta.l1, abs=1e-12)
            assert grown.delta.l2 == pytest.approx(base.delta.l2, abs=1e-12)

    def test_padding_preserves_symmetric_bounds(self):
        pair = tv.FiniteProductPair.from_bernoulli([0.625] * 3, [0.375] * 3)
        padded = tv.FiniteProductPair.from_bernoulli([0.625] * 3 + [0.4],
                                                     [0.375] * 3 + [0.4])
        base, grown = tv.bounds_report(pair), tv.bounds_report(padded)
        assert grown.upper_symmetric == pytest.approx(base.upper_symmetric, abs=1e-12)
        assert grown.upper_affinity == pytest.approx(base.upper_affinity, abs=1e-12)

    def test_bound_dicts_follow_the_table_order(self):
        report = tv.bounds_report(tv.FiniteProductPair.from_bernoulli([0.7, 0.4], [0.3, 0.6]))
        assert list(report.lower_bounds()) == ["trivial", "l2", "hellinger", "kl"]
        assert list(report.upper_bounds()) == ["trivial", "hellinger", "pinsker",
                                               "symmetric", "affinity"]
        identical = tv.bounds_report(tv.FiniteProductPair.from_bernoulli([0.3], [0.3]))
        assert list(identical.lower_bounds()) == ["trivial", "l2", "hellinger"]
        assert set(identical.upper_bounds().values()) == {0.0}
        # Ties go to the earliest bound of the table.
        assert identical.best_lower_source == identical.best_upper_source == "trivial"

    def test_fields_are_the_table_of_bounds(self):
        assert [f.name for f in dataclasses.fields(tv.BoundsReport)] == [
            "delta", "reduction",
            "lower_trivial", "lower_l2", "lower_hellinger", "lower_kl",
            "upper_trivial", "upper_hellinger", "upper_pinsker", "upper_symmetric",
            "upper_affinity",
            "best_lower", "best_lower_source", "best_upper", "best_upper_source",
        ]

    @pytest.mark.parametrize("p, q, symmetric", [([0.7, 0.4], [0.3, 0.6], True),
                                                 ([0.7, 0.4], [0.2, 0.6], False)])
    def test_each_family_is_called_by_its_module_name(self, monkeypatch, p, q, symmetric):
        # A wrapper put in place of a family's module attribute must see the
        # call, as a per-family timer that patches the module does.
        calls = {}

        def counting(name, family):
            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return family(*args, **kwargs)
            return wrapper

        families = ["trivial_bracket", "l2_lower_bound", "hellinger_bracket", "kl_bracket",
                    "symmetric_l2_upper_bound", "symmetric_affinity_upper_bound"]
        for name in families:
            monkeypatch.setattr(bounds_module, name, counting(name, getattr(bounds_module, name)))
        report = tv.bounds_report(tv.FiniteProductPair.from_bernoulli(p, q))
        expected = families if symmetric else families[:4]
        assert calls == dict.fromkeys(expected, 1)
        assert (report.upper_symmetric is not None) is symmetric

    @pytest.mark.parametrize("bracket, message", [
        ((math.nan, 0.5), "lower_hellinger is nan"),
        ((0.1, math.nan), "upper_hellinger is nan"),
        ((0.1, math.inf), "upper_hellinger is inf")])
    def test_non_finite_bound_names_its_field(self, monkeypatch, bracket, message):
        # max(0.0, nan) is 0.0 and min(1.0, nan) is 1.0, so a NaN would
        # otherwise reach a best bound clamped into [0, 1].
        monkeypatch.setattr(bounds_module, "hellinger_bracket", lambda pair: bracket)
        pair = tv.FiniteProductPair.from_bernoulli([0.7, 0.4], [0.2, 0.6])
        with pytest.raises(ValueError, match=f"^{message}, not a finite bound$"):
            tv.bounds_report(pair)

    @pytest.mark.parametrize("family, value, message", [
        ("kl_bracket", (math.nan, 0.5), "lower_kl is nan"),
        ("l2_lower_bound", math.nan, "lower_l2 is nan"),
        ("symmetric_affinity_upper_bound", math.nan, "upper_affinity is nan")])
    def test_non_finite_family_names_its_field(self, monkeypatch, family, value, message):
        """The report built without its constructor still refuses a family's
        NaN by name, on a symmetric pair where every family is called."""
        monkeypatch.setattr(bounds_module, family, lambda arg: value)
        pair = tv.FiniteProductPair.from_bernoulli([0.7, 0.4], [0.3, 0.6])
        with pytest.raises(ValueError, match=f"^{message}, not a finite bound$"):
            tv.bounds_report(pair)

    @pytest.mark.xfail(strict=True, reason="lower_hellinger reads 0.5000000000000001 above "
                       "upper_trivial 0.5; ROADMAP item 7's outward rounding fixes it")
    def test_bracket_holds_without_slack(self):
        pair = tv.FiniteProductPair([[0.5, 0.5, 0.0]], [[0.0, 0.5, 0.5]])
        report = tv.bounds_report(pair)
        exact = tv.exact_tv_general(pair)
        assert exact == 0.5
        assert report.best_lower <= exact <= report.best_upper

    def test_ratio(self):
        pair = tv.FiniteProductPair.from_bernoulli([0.9], [0.2])
        report = tv.bounds_report(pair)
        assert report.ratio == pytest.approx(report.best_upper / report.best_lower)


def _hex(value):
    return value.hex() if isinstance(value, float) else value


EDGES = [0.0, 1.0, 1e-300, 1.0 - 1e-16]


class TestReportAssembly:
    """bounds_report builds its frozen report without the dataclass
    constructor's per-field assignments; the report is the one the
    constructor makes of the same fields."""

    @staticmethod
    def reports():
        rng = np.random.default_rng(418)
        for n in (1, 3, 8, 20):
            yield tv.bounds_report(tv.FiniteProductPair.from_bernoulli(
                *random_bernoulli_pair(rng, n)))
            p = rng.random(n)
            yield tv.bounds_report(tv.FiniteProductPair.from_bernoulli(p, 1.0 - p))
        for _ in range(20):
            yield tv.bounds_report(random_product_pair(rng, zero_prob=0.3))
        yield tv.bounds_report(tv.FiniteProductPair.from_bernoulli([0.3, 0.6], [0.3, 0.6]))
        yield tv.bounds_report(tv.FiniteProductPair.from_bernoulli(
            [0.0, 1.0, 5e-324, 1.0 - 2.0 ** -53], [1.0, 0.5, 0.0, 0.5]))

    def test_equals_the_constructors_report(self):
        names = [f.name for f in dataclasses.fields(tv.BoundsReport)]
        for report in self.reports():
            built = tv.BoundsReport(**{name: getattr(report, name) for name in names})
            assert [_hex(getattr(report, name)) for name in names] == [
                _hex(getattr(built, name)) for name in names]
            assert report == built and hash(report) == hash(built)
            assert repr(report) == repr(built)
            for side in ("lower", "upper"):
                got = getattr(report, f"{side}_bounds")()
                assert [(k, _hex(v)) for k, v in got.items()] == [
                    (k, _hex(v)) for k, v in getattr(built, f"{side}_bounds")().items()]
                assert list(got) == [name[len(side) + 1:] for name in names
                                     if name.startswith(side + "_")
                                     and getattr(report, name) is not None]
            assert report.best_lower_source in report.lower_bounds()
            assert report.best_upper_source in report.upper_bounds()

    def test_report_is_frozen(self):
        report = tv.bounds_report(tv.FiniteProductPair.from_bernoulli([0.7, 0.4], [0.2, 0.6]))
        for name in ("best_lower", "lower_kl", "delta"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(report, name, 0.0)
        for part, name in ((report.delta, "deltas"), (report.reduction, "p"),
                           (report.reduction.p, "params")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(part, name, None)
        assert not report.delta.deltas.flags.writeable

    def test_delta_is_a_validated_vector(self):
        """The Scheffé differences skip MarginalTV's check; they are what it
        makes of them, bit for bit."""
        for report in self.reports():
            red = report.reduction
            assert report.delta.deltas.tobytes() == tv.MarginalTV(
                red.p.params - red.q.params).deltas.tobytes()


class TestIdenticalSidesTakeTheGeneralPath:
    """The report against the body that handled identical sides on their own
    branch: every field, both sources and the deltas, bit for bit."""

    def check(self, pair):
        report = tv.bounds_report(pair)
        deltas, fields = bounds_report_reference(pair)
        assert [_hex(x) for x in report.delta.deltas.tolist()] == [
            _hex(x) for x in deltas.tolist()]
        for name, value in fields.items():
            assert _hex(getattr(report, name)) == _hex(value), name
        return report

    def test_identical_bernoulli_pairs(self):
        rng = np.random.default_rng(340)
        for p in [[x] for x in EDGES] + [EDGES, [0.3, 0.6]] + [
                rng.random(int(rng.integers(1, 30))) for _ in range(50)]:
            report = self.check(tv.FiniteProductPair.from_bernoulli(p, p))
            assert report.best_lower == report.best_upper == 0.0

    def test_identical_general_pairs(self):
        rng = np.random.default_rng(341)
        for _ in range(50):
            rows = [rng.dirichlet(np.ones(int(k))) for k in rng.integers(3, 7, size=int(
                rng.integers(1, 8)))]
            if rng.random() < 0.5:
                rows[0][int(rng.integers(len(rows[0])))] = 0.0
                rows[0] /= rows[0].sum()
            report = self.check(tv.FiniteProductPair(rows, rows))
            assert report.best_upper == 0.0

    def test_padded_symmetric_pairs(self):
        rng = np.random.default_rng(342)
        for _ in range(50):
            p = rng.random(int(rng.integers(1, 6)))
            pad = [rng.dirichlet(np.ones(int(k))) for k in rng.integers(2, 5, size=2)]
            p_rows = [np.array([1.0 - x, x]) for x in p] + pad
            q_rows = [np.array([x, 1.0 - x]) for x in p] + pad
            report = self.check(tv.FiniteProductPair(p_rows, q_rows))
            assert (report.upper_symmetric is None) == np.all(p == 0.5)

    def test_edge_parameters(self):
        for p in EDGES:
            for q in EDGES:
                self.check(tv.FiniteProductPair.from_bernoulli([p, 0.5], [q, 0.5]))
                self.check(tv.FiniteProductPair.from_bernoulli([p, q], [q, p]))

    def test_random_pairs(self):
        rng = np.random.default_rng(343)
        for _ in range(200):
            self.check(tv.FiniteProductPair.from_bernoulli(*random_bernoulli_pair(rng, 20)))
            self.check(random_product_pair(rng))

    def test_disjoint_pair_keeps_best_lower_below_best_upper(self):
        # lower_hellinger rounds to 1.0000000000000002 here; upper_trivial is 1.0.
        report = self.check(tv.FiniteProductPair([[0.891, 0.109, 0, 0]],
                                                 [[0, 0, 0.532, 0.468]]))
        assert report.lower_hellinger > 1.0
        assert report.best_lower <= report.best_upper


def _assert_active_set_is_positive_p(pair) -> np.ndarray:
    """Assert that a coordinate has a favored state exactly when its reduced
    p is positive, and return that active set."""
    red = tv.scheffe_reduce(pair)
    active = red.favored.any(axis=1)
    assert np.array_equal(active, red.p.params > 0.0)
    return active


def _random_rows(rng, n, k_max):
    """Rows of 2 to k_max states; Q tilts P, and some states of P or Q are 0."""
    p_rows, q_rows = [], []
    for k in rng.integers(2, k_max + 1, size=n):
        p = rng.random(int(k))
        if rng.random() < 0.2:
            p[int(rng.integers(k))] = 0.0
        q = p * np.exp(rng.normal(0.0, 0.5, int(k))) if rng.random() < 0.8 else p.copy()
        j = int(rng.integers(k))
        if rng.random() < 0.02 and q.sum() > q[j]:
            q[j] = 0.0
        p_rows.append(p / p.sum())
        q_rows.append(q / q.sum())
    return p_rows, q_rows


class TestArrayFormMatchesLoops:
    """The array forms against per-coordinate loops over the same rows."""

    def check(self, p_rows, q_rows, abs_tol):
        pair = tv.FiniteProductPair(p_rows, q_rows)
        ref = loop_reference(p_rows, q_rows)
        red = tv.scheffe_reduce(pair)
        assert red.witness_sets == ref["witness_sets"]
        got = [tv.marginal_tv(pair).deltas, red.p.params, red.q.params,
               tv.hellinger_bracket(pair), tv.kl_bracket(pair)]
        want = [ref["deltas"], ref["p"], ref["q"], ref["hellinger"], ref["kl"]]
        for a, b in zip(got, want):
            a = [np.nan if x is None else x for x in a]
            b = [np.nan if x is None else x for x in b]
            if abs_tol == 0.0:
                assert np.array_equal(a, b, equal_nan=True)
            else:
                np.testing.assert_allclose(a, b, rtol=0.0, atol=abs_tol)

    def test_bit_identical_up_to_seven_states(self):
        # Rows narrower than 8 are summed left to right either way.
        rng = np.random.default_rng(330)
        for _ in range(300):
            self.check(*_random_rows(rng, int(rng.integers(1, 41)), 7), abs_tol=0.0)

    def test_wider_rows_within_rounding(self):
        # Numpy sums 8 or more values pairwise, so a zero-padded row may be
        # added in another order than the row alone: a few units of 2**-53
        # per sum, far inside this tolerance.
        rng = np.random.default_rng(331)
        for _ in range(200):
            self.check(*_random_rows(rng, int(rng.integers(1, 41)), 12), abs_tol=1e-13)
