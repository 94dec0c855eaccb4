import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from altgen.embeddings import ShiftVector
from altgen.geometry import CubeGeometry
from altgen.walks import (WALK_BLOCK, ExactDistribution, _block_draws, _walk_blocks,
                          binomial_sigma, doeblin_contraction_check, full_sweep,
                          mixing_time_points, point_walk_batch,
                          sample_stream, tuple_walk, urn_bound, urn_mc)
from oracles import reference_tuple_walk


def _same_weights(a, b):
    # a.num / a.den == b.num / b.den entry by entry, by cross-multiplying
    return np.array_equal(a.num * b.den, b.num * a.den)


def test_uniform_fixed_by_averaging():
    model = CubeGeometry(1, 2)
    u = ExactDistribution(model, np.ones(model.N, dtype=np.int64), model.N)
    for axis in (1, 2):
        assert u.axis_average(axis).tv_to_uniform() == 0
        assert _same_weights(u.axis_average(axis), u)


def test_axis_average_idempotent():
    model = CubeGeometry(1, 2)
    rng = np.random.default_rng(0)
    w = rng.integers(0, 1000, size=model.N)
    once = ExactDistribution(model, w, w.sum()).axis_average(2)
    assert _same_weights(once, once.axis_average(2))
    e = ExactDistribution.point_mass(model, 3).axis_average(1)
    again = e.axis_average(1)
    assert [Fraction(n, e.den) for n in e.num] == \
        [Fraction(n, again.den) for n in again.num]


def test_full_sweep_exactly_uniform():
    model = CubeGeometry(1, 2)
    for start in (0, 17, 48):
        d = full_sweep(ExactDistribution.point_mass(model, start))
        assert d.tv_to_uniform() == 0
    # any distribution, not only point masses
    num = [i % 5 for i in range(model.N)]
    total = sum(num)
    d = ExactDistribution(model, num, total)
    assert full_sweep(d).tv_to_uniform() == 0


def test_exact_weights_refuse_the_int64_range():
    # the distance to uniform sums terms up to den * N, twice over; a
    # denominator past that range is refused, never wrapped
    model = CubeGeometry(1, 2)
    den = 2**63 // (2 * model.N)
    num = np.zeros(model.N, dtype=np.int64)
    num[0] = den - 1
    num[1] = 1
    d = ExactDistribution(model, num, den)
    assert d.tv_to_uniform() == Fraction(abs((den - 1) * 49 - den) + abs(49 - den)
                                         + 47 * den, 2 * 49 * den)
    num[0] = den
    with pytest.raises(ValueError, match="int64"):
        ExactDistribution(model, num, den + 1)
    with pytest.raises(ValueError, match="int64"):
        d.axis_average(1)
    point = ExactDistribution.point_mass(model, 0)
    assert point.num.dtype == np.int64
    assert full_sweep(point).den == 49


def test_mass_preserved():
    model = CubeGeometry(1, 6)
    rng = np.random.default_rng(1)
    w = rng.integers(0, 10, size=model.N)
    d = ExactDistribution(model, w, w.sum())
    for axis in range(1, 7):
        d = d.axis_average(axis)
        assert int(d.num.sum()) == d.den
    assert d.tv_to_uniform() == 0


def test_composition_of_samples_is_group_addition():
    model = CubeGeometry(1, 2)
    rng = sample_stream(1, 0)
    a, b = (rng.integers(0, model.K, size=7) for _ in range(2))
    assert (ShiftVector(model, 2, a + b).materialize()
            == ShiftVector(model, 2, a).materialize() * ShiftVector(model, 2, b).materialize())


def test_tuple_distinctness_preserved():
    model = CubeGeometry(1, 6)
    start = np.array([0, 1, 7, 50, 117648])
    b1 = tuple_walk(model, start, seed=2, samples=50)  # a require checks each step
    assert 0 <= b1 <= 1


def _line_sharing_start(model, h):
    # the verify suite's start: points differing only on axes 4 and 5
    return np.array([model.index((0, 0, 0, i % 7, i // 7, 0))
                     for i in range(h)])


def _assert_walk_matches_reference(model, start, seed, samples):
    q1, flags = reference_tuple_walk(model, start, seed, samples)
    blocks = _walk_blocks(model, np.asarray(start, dtype=np.int64), seed, samples)
    assert np.array_equal(np.concatenate(list(blocks)), q1)
    assert tuple_walk(model, start, seed=seed, samples=samples) == flags.sum() / samples


@pytest.mark.parametrize("h", [1, 2, 5, 9, 30])
def test_batched_walk_matches_the_per_sample_loop(h):
    model = CubeGeometry(1, 6)
    for seed in range(4):
        _assert_walk_matches_reference(model, _line_sharing_start(model, h), seed, 150)
        scattered = np.random.default_rng(seed).choice(model.N, size=h, replace=False)
        _assert_walk_matches_reference(model, scattered, seed, 150)


def test_batched_walk_matches_on_a_shared_line_start_and_block_edges():
    model = CubeGeometry(1, 6)
    _assert_walk_matches_reference(model, [0, 1, 7, 50, 117648], 2, 150)
    start = _line_sharing_start(model, 9)
    for samples in (1, WALK_BLOCK + 1):
        _assert_walk_matches_reference(model, start, 5, samples)


def _pinned_start(model, kind):
    if kind == "shared":
        return _line_sharing_start(model, 9)
    if kind == "scattered":
        return np.random.default_rng(7).choice(model.N, size=12, replace=False)
    return np.array([31415])


@pytest.mark.parametrize("kind, seed, samples, hits", [
    ("shared", 0, 2000, 1800), ("shared", 3, 2000, 1802), ("shared", 42, 2000, 1780),
    ("scattered", 1, 2000, 1676), ("h1", 2, 500, 500),
    ("shared", 5, WALK_BLOCK + 1, 921)])
def test_b1_is_pinned(kind, seed, samples, hits):
    # the b1 hit counts of the verify suite's start (h = 9, seeds 0, 3, 42),
    # a scattered start, a single point and a run one past a block
    model = CubeGeometry(1, 6)
    b1 = tuple_walk(model, _pinned_start(model, kind), seed=seed, samples=samples)
    assert b1 == hits / samples


@pytest.mark.parametrize("K", [7, 63])
def test_one_bounded_draw_call_equals_consecutive_calls(K):
    # the batched tuple walk draws each sample's values in one call and
    # relies on them being the values the per-axis calls give in turn
    for seed, index in [(0, 0), (1, 7), (12345, 999)]:
        for a, b in [(0, 5), (1, 1), (3, 8), (9, 45), (17, 160)]:
            split = sample_stream(seed, index)
            parts = np.concatenate([split.integers(0, K, size=a),
                                    split.integers(0, K, size=b)])
            whole = sample_stream(seed, index).integers(0, K, size=a + b)
            assert np.array_equal(parts, whole)


@pytest.mark.parametrize("K", [7, 63])
def test_block_draws_equal_each_samples_own_stream(K):
    # one generator rekeyed per sample must give each sample's stream;
    # the blocks start at index 0 and straddle the WALK_BLOCK edge
    for seed in (0, 3, 2**40 + 1):
        for block in (range(0, 5), range(WALK_BLOCK - 2, WALK_BLOCK + 3)):
            draws = _block_draws(seed, block, K, 18)
            for row, i in zip(draws, block):
                assert np.array_equal(row, sample_stream(seed, i).integers(0, K, size=18))


def test_tuple_walk_memory_is_flat_in_the_sample_count():
    model = CubeGeometry(1, 6)
    start = _line_sharing_start(model, 9)
    peaks = []
    for samples in (WALK_BLOCK, 50000):
        tracemalloc.start()
        try:
            tuple_walk(model, start, seed=0, samples=samples)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 2 * peaks[0], peaks


def test_point_walk_uniform_after_full_block():
    model = CubeGeometry(1, 6)
    pts = point_walk_batch(model, seed=3, samples=200000, start_point=5,
                           axes=[3, 2, 1, 6, 5, 4])
    # frequency of an arbitrary target within 4 sigma of 1/N
    p = 1 / model.N
    sigma = binomial_sigma(p, 200000)
    for target in (0, 117648, 70000):
        freq = float((pts == target).mean())
        assert abs(freq - p) <= 4 * sigma


def test_h1_exactly_uniform_via_averaging():
    # h = 1 reduces the tuple walk to the point walk, whose distribution
    # after the six averages is exactly uniform
    model = CubeGeometry(1, 2)
    d = full_sweep(ExactDistribution.point_mass(model, 11))
    assert d.tv_to_uniform() == 0


def test_b1_fraction_bound():
    model = CubeGeometry(1, 6)
    start = [model.index((0, 0, 0, i % 7, i // 7, 0)) for i in range(9)]
    b1 = tuple_walk(model, np.array(start), seed=4, samples=3000)
    bound = 1 - Fraction(81, 686)
    sigma = binomial_sigma(bound, 3000)
    assert b1 >= float(bound) - 3 * sigma


def test_doeblin_exact_values():
    rep = doeblin_contraction_check(7, 9)
    assert rep.stated_norm_bound == Fraction(262, 343)
    assert rep.contraction == Fraction(81, 343)
    assert rep.inequality_holds
    assert rep.tuple_space_size == int(np.prod([7**6 - i for i in range(9)], dtype=object))
    zero = doeblin_contraction_check(7, 0)
    assert zero.q_factor == 1 and zero.stated_norm_bound == 1


def test_doeblin_inequality_range():
    for K, h in [(7, 2), (7, 9), (7, 17), (63, 100), (31, 50), (511, 5000)]:
        assert doeblin_contraction_check(K, h).inequality_holds
    # below h = sqrt(2) the chained inequality genuinely fails
    assert not doeblin_contraction_check(7, 1).inequality_holds


def test_urn_bound_exact_and_edge_cases():
    assert urn_bound(10, 10, 10, 3) == Fraction(120, 729)
    assert urn_bound(10, 10, 10, 11) == 0
    assert urn_bound(1, 10, 5, 3) >= 1  # vacuous but valid
    with pytest.raises(ValueError):
        urn_bound(2, 3, 6, 1)


def test_urn_mc_within_bound():
    for l, k, p, q in [(10, 10, 10, 3), (5, 4, 6, 2), (3, 7, 5, 4),
                       (8, 2, 9, 2), (4, 4, 7, 3)]:
        bound = urn_bound(l, k, p, q)
        freq = urn_mc(l, k, p, q, 1500, seed=7)
        sigma = binomial_sigma(bound, 1500)
        assert freq <= float(bound) + 3 * sigma


def test_urn_mc_q_gt_p_impossible():
    assert urn_mc(10, 10, 4, 5, 200, seed=8) == 0.0


def test_stream_independence_of_batching():
    # per-sample streams: splitting the work differently changes nothing
    freqs = []
    for chunks in ((0, 1000),), ((0, 400), (400, 1000)):
        hits = 0
        for lo, hi in chunks:
            for i in range(lo, hi):
                rng = sample_stream(9, i)
                urns = rng.choice(20, size=5, replace=False)
                hits += int((urns < 10).sum()) >= 3
        freqs.append(hits)
    assert freqs[0] == freqs[1]


def test_mixing_time_monotone_and_averaging_one_step():
    model = CubeGeometry(1, 2)
    # one averaging sweep from point 0 is exactly uniform
    assert full_sweep(ExactDistribution.point_mass(model, 0)).tv_to_uniform() == 0
    from altgen.embeddings import build_SN
    from altgen.graphs import schreier_graph
    graph = schreier_graph(build_SN(1, 2))
    steps, curve = mixing_time_points(graph.matvec, model, tol=1e-6)
    assert all(curve[i + 1] <= curve[i] + 1e-12 for i in range(len(curve) - 1))
    assert curve[-1] < 1e-6
