import numpy as np
import pytest

import prodtv as tv
from oracles import random_bernoulli_pair, random_product_pair


def test_three_point_example():
    pair = tv.FiniteProductPair(([1 / 3, 1 / 3, 1 / 3],), ([1 / 2, 1 / 4, 1 / 4],))
    red = tv.scheffe_reduce(pair)
    assert red.witness_sets == ((1, 2),)
    assert red.p.params == pytest.approx([2 / 3], abs=1e-15)
    assert red.q.params == pytest.approx([1 / 2], abs=1e-15)


def test_identical_sides_collapse_to_zero():
    pair = tv.FiniteProductPair(([0.2, 0.8], [0.5, 0.5]), ([0.2, 0.8], [0.5, 0.5]))
    red = tv.scheffe_reduce(pair)
    assert red.witness_sets == ((), ())
    assert np.all(red.p.params == 0.0)
    assert np.all(red.q.params == 0.0)


def test_two_point_pair_is_fixed():
    pair = tv.FiniteProductPair.from_bernoulli([0.7, 0.2], [0.3, 0.1])
    red = tv.scheffe_reduce(pair)
    assert red.witness_sets == ((1,), (1,))
    assert red.p.params == pytest.approx([0.7, 0.2], abs=1e-15)
    assert red.q.params == pytest.approx([0.3, 0.1], abs=1e-15)


def test_two_point_pair_relabels_when_q_larger():
    pair = tv.FiniteProductPair.from_bernoulli([0.2], [0.6])
    red = tv.scheffe_reduce(pair)
    # state 0 is the favored one, so the reduction reports 1-p vs 1-q
    assert red.witness_sets == ((0,),)
    assert red.p.params == pytest.approx([0.8], abs=1e-15)
    assert red.q.params == pytest.approx([0.4], abs=1e-15)


def test_marginal_tv_is_preserved():
    rng = np.random.default_rng(201)
    for _ in range(200):
        pair = random_product_pair(rng)
        red = tv.scheffe_reduce(pair)
        deltas = tv.marginal_tv(pair).deltas
        assert red.p.params - red.q.params == pytest.approx(deltas, abs=1e-12)
        assert np.all(red.p.params >= red.q.params)


def test_joint_tv_never_increases():
    rng = np.random.default_rng(202)
    for _ in range(200):
        pair = random_product_pair(rng)
        assert pair.joint_support() <= 2 ** 12
        red = tv.scheffe_reduce(pair)
        full = tv.exact_tv_general(pair)
        assert full >= tv.exact_tv_bernoulli(red.p, red.q) - 1e-12


def test_idempotent_on_reduced_pairs():
    rng = np.random.default_rng(203)
    for _ in range(100):
        pair = random_product_pair(rng)
        red = tv.scheffe_reduce(pair)
        again = tv.scheffe_reduce(tv.FiniteProductPair.from_bernoulli(red.p, red.q))
        assert again.p.params == pytest.approx(red.p.params, abs=1e-15)
        assert again.q.params == pytest.approx(red.q.params, abs=1e-15)


def test_idempotence_up_to_relabeling_for_raw_bernoulli():
    rng = np.random.default_rng(204)
    for _ in range(100):
        p, q = random_bernoulli_pair(rng, 8)
        red = tv.scheffe_reduce(tv.FiniteProductPair.from_bernoulli(p, q))
        expected_p = np.where(p >= q, p, 1.0 - p)
        expected_q = np.where(p >= q, q, 1.0 - q)
        # coordinates with p == q collapse to (0, 0) by the strict-inequality rule
        ties = p == q
        expected_p[ties] = 0.0
        expected_q[ties] = 0.0
        assert red.p.params == pytest.approx(expected_p, abs=1e-15)
        assert red.q.params == pytest.approx(expected_q, abs=1e-15)


def _reduced_pairs():
    """Random, edge-value and general pairs, and a row whose favored masses
    sum to one ulp above 1."""
    rng = np.random.default_rng(205)
    edges = np.array([0.0, 1.0, 5e-324, 1.0 - 2.0 ** -53])
    for n in (1, 5, 40):
        yield tv.FiniteProductPair.from_bernoulli(*random_bernoulli_pair(rng, n))
        yield tv.FiniteProductPair.from_bernoulli(rng.choice(edges, n), rng.choice(edges, n))
    for _ in range(50):
        yield random_product_pair(rng, zero_prob=0.3)
    yield tv.FiniteProductPair(
        [[0.4325152177214142, 0.5637771777263074, 0.0037076045522782953, 0.0], [0.5, 0.5]],
        [[0.0, 0.0, 0.0, 1.0], [0.5, 0.5]])


def test_reduced_params_are_probvector_params():
    """The reduction's p and q are ProbVector's validated copies of the
    favored sums, bit for bit, without a second validation: in [0, 1] as
    summed, or clipped to 1 from just above."""
    clipped = 0
    for pair in _reduced_pairs():
        red = tv.scheffe_reduce(pair)
        sums = np.where(red.favored, pair.masses, 0.0).sum(axis=-1)
        clipped += int(np.count_nonzero(sums > 1.0))
        for params, side_sums in ((red.p.params, sums[0]), (red.q.params, sums[1])):
            assert params.tobytes() == tv.ProbVector(side_sums).params.tobytes()
            assert not params.flags.writeable
            with pytest.raises(ValueError):
                params[0] = 0.5
    assert clipped == 1
