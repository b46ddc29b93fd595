import math

import numpy as np
import pytest

import prodtv as tv
from oracles import (GAP_RATIO_LOWER_BOUND, GAP_TV_PQ_BOUND, gap_tv_pq_mpmath, sign_sum_loop,
                     tv_bernoulli_brute)
from prodtv.core import _product_block


class TestGapInstance:
    def test_n_one(self):
        inst = tv.gap_instance(1)
        assert inst.tv_pq == 1.0
        assert inst.tv_pq_prime_upper == 1.0
        assert inst.ratio_lower == 1.0

    def test_n_two(self):
        inst = tv.gap_instance(2)
        assert inst.tv_pq == pytest.approx(0.75, abs=1e-15)
        assert inst.tv_pq_prime_upper == pytest.approx(2 ** -0.5, abs=1e-15)
        assert inst.ratio_lower == pytest.approx(0.75 * 2 ** 0.5, abs=1e-12)

    def test_n_four(self):
        inst = tv.gap_instance(4)
        assert inst.tv_pq == pytest.approx(0.68359375, abs=1e-15)
        assert inst.tv_pq_prime_upper == 0.5
        assert inst.ratio_lower == pytest.approx(1.3671875, abs=1e-12)

    def test_equal_l2_norms(self):
        for n in (1, 2, 3, 7, 50, 999):
            inst = tv.gap_instance(n)
            norm_pq = float(np.linalg.norm(inst.p.params - inst.q.params))
            norm_prime = float(np.linalg.norm(inst.p_prime.params - inst.q_prime.params))
            assert norm_pq == pytest.approx(n ** -0.5, abs=1e-12)
            assert norm_prime == pytest.approx(n ** -0.5, abs=1e-12)

    def test_closed_form_matches_bruteforce(self):
        for n in range(1, 13):
            inst = tv.gap_instance(n)
            assert inst.tv_pq == pytest.approx(
                tv_bernoulli_brute(inst.p.params, inst.q.params), abs=1e-12
            )

    def test_closed_form_matches_enumeration_oracle(self):
        for n in range(1, 17):
            inst = tv.gap_instance(n)
            assert inst.tv_pq == pytest.approx(
                tv.exact_tv_bernoulli(inst.p, inst.q), abs=1e-10
            )

    def test_tv_pq_stays_above_limit(self):
        for n in list(range(1, 200)) + [10 ** 3, 10 ** 4, 10 ** 6]:
            assert tv.gap_instance(n).tv_pq >= 0.63

    def test_symmetric_pair_tv_below_upper(self):
        for n in (1, 2, 5, 16, 200):
            inst = tv.gap_instance(n)
            exact = tv.exact_tv_equal_marginals(
                n, float(inst.p_prime.params[0]), float(inst.q_prime.params[0])
            )
            assert exact <= inst.tv_pq_prime_upper + 1e-12

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            tv.gap_instance(0)
        with pytest.raises(ValueError):
            tv.gap_instance(-3)


class TestGapClosedForm:
    """tv_pq and ratio_lower of _gap_scalars lie within their documented
    relative bounds of mpmath, on every n up to 3000 and on log-spaced n up
    to 10**17, where the power form (1 - 1/n)**n loses every bit."""

    SIZES = list(range(1, 3001)) + sorted({int(x) for x in np.logspace(np.log10(3001), 17, 4000)})

    def test_within_bound_of_mpmath(self):
        import mpmath

        for n in self.SIZES:
            tv_pq, upper, ratio_lower = tv.extremal._gap_scalars(n)
            exact = gap_tv_pq_mpmath(n)
            assert abs(tv_pq - exact) <= GAP_TV_PQ_BOUND * exact, n
            assert upper == n ** -0.5
            ratio = exact * mpmath.sqrt(n)
            assert abs(ratio_lower - ratio) <= GAP_RATIO_LOWER_BOUND * ratio, n

    def test_n_one_and_two_are_exact(self):
        assert tv.extremal._gap_scalars(1) == (1.0, 1.0, 1.0)
        assert tv.extremal._gap_scalars(2)[0] == 0.75

    def test_past_the_power_form(self):
        # (1 - 1/n)**n rounds to 1 here, so the power form gave tv_pq = 0.0.
        assert tv.extremal._gap_scalars(2 * 10 ** 16)[0] == 0.6321205588285577


class TestGapRatioExact:
    def test_n_one(self):
        assert tv.gap_ratio_exact(1) == 1.0

    def test_exceeds_bound_based_ratio(self):
        for n in (2, 4, 9, 33):
            assert tv.gap_ratio_exact(n) >= tv.gap_instance(n).ratio_lower - 1e-12

    def test_n_hundred(self):
        assert tv.gap_ratio_exact(100) >= 0.63 * 10.0

    def test_scaling_band(self):
        # regression band frozen from observed values; the lower edge is the
        # 1 - 1/e floor of the numerator
        for n in (16, 64, 256, 1024, 4096, 10 ** 4):
            scaled = tv.gap_ratio_exact(n) / math.sqrt(n)
            assert 0.63 <= scaled <= 1.2

    def test_strictly_increasing_on_powers(self):
        values = [tv.gap_ratio_exact(n) for n in (4, 16, 64)]
        assert values[0] < values[1] < values[2]


class TestRademacherInstance:
    def test_normalizes_weights_and_threshold(self):
        inst = tv.RademacherInstance([3.0, 4.0], 5.0)
        assert inst.weights == pytest.approx([0.6, 0.8], abs=1e-15)
        assert inst.threshold == pytest.approx(1.0, abs=1e-15)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            tv.RademacherInstance([], 1.0)
        with pytest.raises(ValueError):
            tv.RademacherInstance([0.5, 0.0], 1.0)
        with pytest.raises(ValueError):
            tv.RademacherInstance([-0.5], 1.0)
        with pytest.raises(ValueError):
            tv.RademacherInstance([0.5], 0.0)


    @pytest.mark.parametrize("weights, threshold, message", [
        ([1e200, 1e200], 1.0, "the weights' l2 norm overflows or underflows, to inf"),
        ([1e-200, 1e-200], 1.0, "the weights' l2 norm overflows or underflows, to 0.0"),
        ([1e10, 1e10], 1e-320, "threshold 1e-320 / l2 norm 14142135623.730951 underflows to 0"),
    ], ids=["norm-overflows", "norm-underflows", "threshold-underflows"])
    def test_rejects_unscalable_inputs(self, weights, threshold, message):
        with pytest.raises(ValueError) as info:
            tv.RademacherInstance(weights, threshold)
        assert str(info.value) == message

    def test_extreme_finite_norms_keep_their_bits(self):
        for weights, threshold in (([1e-150, 3e-150], 2e-150), ([1e150, 3e150], 2e150)):
            arr = np.array(weights)
            scale = math.sqrt(float(np.square(arr).sum()))
            inst = tv.RademacherInstance(weights, threshold)
            assert inst.weights.tolist() == (arr / scale).tolist()
            assert inst.threshold == threshold / scale
            assert tv.lowther_check(inst)[2] <= tv.LOWTHER_RATIO_BOUND


class TestLowtherCheck:
    def test_single_weight(self):
        lhs, rhs, ratio = tv.lowther_check(tv.RademacherInstance([1.0], 1.0))
        assert (lhs, rhs, ratio) == (1.0, 1.0, 1.0)

    def test_two_equal_weights(self):
        inst = tv.RademacherInstance([2 ** -0.5, 2 ** -0.5], 1.0)
        lhs, rhs, ratio = tv.lowther_check(inst)
        assert lhs == pytest.approx(1.0, abs=1e-12)
        assert rhs == pytest.approx(0.5, abs=1e-12)
        assert ratio == pytest.approx(2.0, abs=1e-12)

    def test_large_threshold_uses_z(self):
        inst = tv.RademacherInstance([0.6, 0.8], 100.0)
        lhs, _, _ = tv.lowther_check(inst)
        assert lhs == pytest.approx(1.0, abs=1e-12)

    def test_ratio_bounded_on_random_sweep(self):
        rng = np.random.default_rng(501)
        for _ in range(2000):
            n = int(rng.integers(1, 13))
            weights = 1.0 - rng.random(n)
            threshold = float(rng.uniform(0.05, 2.5))
            _, _, ratio = tv.lowther_check(tv.RademacherInstance(weights, threshold))
            assert ratio <= tv.LOWTHER_RATIO_BOUND + 1e-9
            assert ratio <= 2.187 + 1e-9

    def test_sign_sums_match_a_plain_loop(self):
        # Bit i of a sum's index is coordinate i's sign (1 for +), the newest
        # coordinate outermost; every pattern is checked up to n = 10, and 300
        # random ones above, up to the cap.
        rng = np.random.default_rng(503)
        for n in range(1, 21):
            weights = 10.0 ** rng.uniform(-8, 5, n)
            sums = _product_block(np.stack((-weights, weights), axis=1), np.add)
            assert sums.shape == (2 ** n,)
            patterns = range(2 ** n) if n <= 10 else rng.integers(0, 2 ** n, 300).tolist()
            for m in patterns:
                assert sums[m] == sign_sum_loop(weights.tolist(), m), (n, m)

    def test_rhs_matches_a_plain_loop(self):
        rng = np.random.default_rng(504)
        for _ in range(200):
            inst = tv.RademacherInstance(1.0 - rng.random(int(rng.integers(1, 11))),
                                         float(rng.uniform(0.05, 2.5)))
            sums = np.array([sign_sum_loop(inst.weights.tolist(), m) for m in range(2 ** inst.n)])
            rhs = float(np.minimum(np.abs(sums), inst.threshold).mean())
            assert tv.lowther_check(inst)[1] == rhs

    def test_enumeration_cap(self):
        inst = tv.RademacherInstance([1.0] * 21, 1.0)
        with pytest.raises(tv.EnumerationBudgetError,
                           match=r"2\^20 enumeration budget \(n = 21\)"):
            tv.lowther_check(inst)
        assert tv.lowther_check(tv.RademacherInstance([1.0] * 20, 1.0))[2] > 0.0

    def test_bound_constant_value(self):
        assert tv.LOWTHER_RATIO_BOUND == pytest.approx(2.1876726, abs=1e-6)
