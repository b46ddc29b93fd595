import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prodtv as tv
from oracles import channel_matrix_reference, random_bernoulli_pair

unit = st.floats(0, 1)


class TestSymmetrize:
    def test_already_symmetric(self):
        sym = tv.symmetrize([0.9], [0.1])
        assert sym.gamma_hat == pytest.approx([0.8], abs=1e-12)
        assert sym.p_hat.params == pytest.approx([0.9], abs=1e-12)
        assert sym.q_hat.params == pytest.approx([0.1], abs=1e-12)

    def test_generic_pair(self):
        sym = tv.symmetrize([0.8], [0.6])
        assert sym.gamma_hat == pytest.approx([0.2 / 1.4], abs=1e-12)
        assert sym.p_hat.params == pytest.approx([4 / 7], abs=1e-12)
        assert sym.q_hat.params == pytest.approx([3 / 7], abs=1e-12)

    def test_equal_parameters(self):
        sym = tv.symmetrize([0.3, 0.3], [0.3, 0.3])
        assert np.all(sym.gamma_hat == 0.0)
        assert np.all(sym.p_hat.params == 0.5)
        assert np.all(sym.q_hat.params == 0.5)

    def test_symmetric_inputs_are_fixed_points(self):
        rng = np.random.default_rng(401)
        p = 0.5 + 0.5 * rng.random(8)  # p >= 1/2
        q = 1.0 - p
        sym = tv.symmetrize(p, q)
        assert np.all(sym.p_hat.params == p)
        assert np.all(sym.q_hat.params == q)

    @settings(max_examples=300, deadline=None)
    @given(unit, unit)
    def test_gap_shrinks_by_at_most_half(self, p, q):
        sym = tv.symmetrize([p], [q])
        assert sym.gamma_hat[0] >= 0.5 * abs(p - q)
        assert sym.q_hat.params[0] == pytest.approx(1.0 - sym.p_hat.params[0], abs=1e-15)

    def test_joint_tv_never_increases(self):
        rng = np.random.default_rng(402)
        for _ in range(300):
            p, q = random_bernoulli_pair(rng, 12)
            sym = tv.symmetrize(p, q)
            original = tv.exact_tv_bernoulli(p, q)
            image = tv.exact_tv_bernoulli(sym.p_hat, sym.q_hat)
            assert original >= image - 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(tv.DimensionMismatchError):
            tv.symmetrize([0.5], [0.5, 0.5])


class TestChannelMatrix:
    def test_generic_pair(self):
        ch = tv.channel_matrix(0.8, 0.6)
        assert ch.rows == pytest.approx(
            np.array([[5 / 7, 2 / 7], [0.0, 1.0]]), abs=1e-12
        )

    def test_disjoint_pair_is_identity(self):
        ch = tv.channel_matrix(1.0, 0.0)
        assert np.array_equal(ch.rows, np.eye(2))

    def test_equal_balanced_parameters(self):
        # the algebraic limit of the matrix formula at p = q = 1/2
        ch = tv.channel_matrix(0.5, 0.5)
        assert np.array_equal(ch.rows, np.eye(2))
        assert ch.push_prob_one(0.5) == pytest.approx(0.5, abs=1e-15)

    def test_equal_skewed_parameters(self):
        ch = tv.channel_matrix(0.8, 0.8)
        assert ch.push_prob_one(0.8) == pytest.approx(0.5, abs=1e-12)

    def test_swapped_arguments_relabel(self):
        base = tv.channel_matrix(0.9, 0.7)
        swapped = tv.channel_matrix(0.1, 0.3)
        assert np.array_equal(swapped.rows, base.rows[::-1])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            tv.channel_matrix(1.2, 0.5)
        with pytest.raises(ValueError):
            tv.channel_matrix(0.5, -0.1)

    def test_parameters_share_the_bernoulli_slack(self):
        # within 1e-12 of [0, 1] a parameter is clipped onto it, as in ProbVector
        assert np.array_equal(tv.channel_matrix(1.0 + 1e-13, -1e-13).rows,
                              tv.channel_matrix(1.0, 0.0).rows)
        with pytest.raises(tv.InvalidDistributionError):
            tv.channel_matrix(1.0 + 1e-11, 0.5)

    @settings(max_examples=300, deadline=None)
    @given(unit, unit)
    def test_rows_are_stochastic(self, p, q):
        ch = tv.channel_matrix(p, q)
        assert np.all(ch.rows >= 0.0)
        assert np.all(ch.rows <= 1.0)
        assert ch.rows.sum(axis=1) == pytest.approx([1.0, 1.0], abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(unit, unit)
    def test_pushforwards(self, p, q):
        ch = tv.channel_matrix(p, q)
        gamma = tv.symmetrize([p], [q]).gamma_hat[0]
        assert ch.push_prob_one(p) == pytest.approx(0.5 + gamma / 2.0, abs=1e-12)
        assert ch.push_prob_one(q) == pytest.approx(0.5 - gamma / 2.0, abs=1e-12)

    def test_pushforwards_on_boundary_grid(self):
        grid = np.linspace(0.0, 1.0, 41)
        for p in grid:
            for q in grid:
                ch = tv.channel_matrix(float(p), float(q))
                gamma = tv.symmetrize([p], [q]).gamma_hat[0]
                assert abs(ch.push_prob_one(float(p)) - (0.5 + gamma / 2)) <= 1e-12
                assert abs(ch.push_prob_one(float(q)) - (0.5 - gamma / 2)) <= 1e-12


class TestApplyChannelProduct:
    def test_consistency_with_scalar_pieces(self):
        p, q = [0.9, 0.8], [0.1, 0.6]
        sym, channels = tv.apply_channel_product(p, q)
        assert sym.gamma_hat == pytest.approx([0.8, 0.2 / 1.4], abs=1e-12)
        assert len(channels) == 2
        for i, ch in enumerate(channels):
            scalar = tv.channel_matrix(p[i], q[i])
            assert np.array_equal(ch.rows, scalar.rows)
            assert ch.push_prob_one(p[i]) == pytest.approx(
                sym.p_hat.params[i], abs=1e-12
            )
            assert ch.push_prob_one(q[i]) == pytest.approx(
                sym.q_hat.params[i], abs=1e-12
            )

    def test_equal_pair_gives_limit_channels(self):
        sym, channels = tv.apply_channel_product([0.4, 0.4], [0.4, 0.4])
        assert np.all(sym.p_hat.params == 0.5)
        for ch in channels:
            assert np.array_equal(ch.rows, tv.channel_matrix(0.4, 0.4).rows)


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()  # also tells 0.0 from -0.0


# Pairs with p < q, p = q and p + q = 1, parameters of 0 and 1, and tiny or
# near-1 parameters, where one branch of the construction divides by ~0.
_EDGE_VALUES = (0.0, 1.0, 0.5, 0.3, 0.7, 1e-300, 5e-324, 1e-16, 1.0 - 1e-16, 1.0 - 2 ** -53)
EDGE_PAIRS = [(p, q) for p in _EDGE_VALUES for q in _EDGE_VALUES] + [
    (x, 1.0 - x) for x in np.linspace(0.0, 1.0, 101)] + [
    (1.0 - x, x) for x in np.linspace(0.0, 1.0, 101)]


class TestArrayConstructionMatchesScalarReference:
    """The (n, 2, 2) construction gives the scalar reference's rows bit for bit."""

    @staticmethod
    def reference(p, q):
        return np.stack([channel_matrix_reference(pi, qi) for pi, qi in zip(p, q)])

    @staticmethod
    def array_rows(p, q):
        _, channels = tv.apply_channel_product(p, q)
        return np.stack([ch.rows for ch in channels])

    def test_grid(self):
        grid = np.linspace(0.0, 1.0, 201)
        p, q = (axis.ravel() for axis in np.meshgrid(grid, grid))
        assert_same_bits(self.array_rows(p, q), self.reference(p, q))

    def test_random_pairs_at_n_ten_thousand(self):
        rng = np.random.default_rng(405)
        p, q = rng.random(10 ** 4), rng.random(10 ** 4)
        q[::7] = p[::7]
        assert_same_bits(self.array_rows(p, q), self.reference(p, q))

    def test_edges(self):
        p, q = np.array(EDGE_PAIRS).T
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the branch not taken must not warn
            rows = self.array_rows(p, q)
        assert_same_bits(rows, self.reference(p, q))

    def test_scalar_calls_are_the_one_row_case(self):
        for p, q in EDGE_PAIRS:
            assert_same_bits(tv.channel_matrix(p, q).rows, channel_matrix_reference(p, q))


class TestChannel2x2Validation:
    def test_rejects_bad_shape(self):
        with pytest.raises(tv.InvalidDistributionError,
                           match=r"^rows must be 2x2, got shape \(2, 3\)$"):
            tv.Channel2x2(np.ones((2, 3)))
        with pytest.raises(tv.InvalidDistributionError,
                           match=r"^rows must be 2x2, got shape \(1, 2, 2\)$"):
            tv.Channel2x2(np.ones((1, 2, 2)))

    def test_rejects_non_stochastic(self):
        with pytest.raises(tv.InvalidDistributionError,
                           match=r"^channel rows sum to array\(\[1\.4, 1\. \]\), not 1$"):
            tv.Channel2x2(np.array([[0.7, 0.7], [0.5, 0.5]]))
        with pytest.raises(tv.InvalidDistributionError,
                           match=r"^channel entries outside \[0, 1\]: array\(\[\[ 1\.2, -0\.2\]"):
            tv.Channel2x2(np.array([[1.2, -0.2], [0.5, 0.5]]))

    def test_rejects_nan(self):
        with pytest.raises(tv.InvalidDistributionError, match="rows sum to"):
            tv.Channel2x2(np.array([[np.nan, 0.0], [0.5, 0.5]]))
