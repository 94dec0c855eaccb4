import gc
import weakref

import numpy as np
import pytest

from altgen.embeddings import ShiftVector, build_SN
from altgen.geometry import CubeGeometry
from altgen.graphs import AxisBlockGraph, schreier_graph
from altgen.spectral import spectral_gap
from altgen.walks import ExactDistribution, full_sweep, point_walk_batch, tuple_walk
from altgen.words import conjugacy_word47, cycle_word, grid_route, tosquare_word
from oracles import point_coords


def test_basic_parameters():
    g = CubeGeometry(1, 6)
    assert g.K == 7 and g.N == 7**6 == 117649
    assert g.K % 2 == 1
    g2 = CubeGeometry(2, 3)
    assert g2.K == 63 and g2.N == 63**3


def test_big_integer_safety():
    g = CubeGeometry(7, 6)
    assert g.K == 2**21 - 1
    assert g.N == (2**21 - 1) ** 6
    assert not g.materializable


def test_codec_conventions():
    g = CubeGeometry(1, 6)
    assert g.index((0, 0, 0, 0, 0, 0)) == 0
    assert g.index((1, 0, 0, 0, 0, 0)) == 1
    # geometric series oracle for the all-max corner
    oracle = sum(6 * 7**i for i in range(6))
    assert oracle == 117648
    assert g.index((6,) * 6) == oracle


def test_codec_round_trip_exhaustive_small():
    for s, d in [(1, 2), (1, 3)]:
        g = CubeGeometry(s, d)
        for idx in range(g.N):
            assert g.index(point_coords(g, idx)) == idx


def test_codec_round_trip_sampled():
    g = CubeGeometry(1, 6)
    rng = np.random.default_rng(0)
    for idx in rng.integers(0, g.N, size=500):
        assert g.index(point_coords(g, int(idx))) == idx


def test_codec_errors():
    g = CubeGeometry(1, 2)
    with pytest.raises(ValueError):
        g.index((7, 0))
    with pytest.raises(ValueError):
        g.index((0, 0, 0))


def test_lines_partition_points():
    g = CubeGeometry(1, 3)
    for axis in (1, 2, 3):
        table = g.line_points(axis)
        assert table.shape == (49, 7)
        flat = np.sort(table.ravel())
        assert np.array_equal(flat, np.arange(g.N))
        # every line is constant off-axis and spans the axis coordinate
        for lid in range(0, 49, 7):
            coords = np.array([point_coords(g, int(x)) for x in table[lid]])
            assert set(coords[:, axis - 1]) == set(range(7))
            for j in range(3):
                if j != axis - 1:
                    assert len(set(coords[:, j])) == 1


@pytest.mark.parametrize("s, d", [(1, 3), (2, 2), (1, 4)])
def test_line_layout_agrees_with_the_scalar_codec(s, d):
    # a line of axis i is named by its other coordinates, first remaining
    # axis fastest; the oracle is point_coords and CubeGeometry.index alone
    g = CubeGeometry(s, d)
    K = g.K
    points = np.arange(g.N)
    coords = [point_coords(g, x) for x in range(g.N)]
    for axis in range(1, d + 1):
        def line_id(c):
            rest = c[:axis - 1] + c[axis:]
            return sum(v * K**j for j, v in enumerate(rest))

        lines, pos = g.line_coords(points, axis)
        assert lines.tolist() == [line_id(c) for c in coords]
        assert pos.tolist() == [c[axis - 1] for c in coords]
        for delta in (1, 3):
            on_line = pos + delta < K
            moved = g.move(points[on_line], axis, delta)
            assert np.array_equal(moved, [g.index(c[:axis - 1] + (c[axis - 1] + delta,)
                                                  + c[axis:])
                                          for c, ok in zip(coords, on_line) if ok])
        for x in (0, g.N // 2, g.N - 1):   # scalars stay Python ints
            assert g.line_coords(x, axis) == (line_id(coords[x]), coords[x][axis - 1])
        cube = g.lines(points, axis)
        assert cube.shape == (K,) * d and np.shares_memory(cube, points)
        table = cube.reshape(-1, K)
        for line in range(g.lines_per_axis):
            for c in range(K):
                x = int(table[line, c])
                assert line_id(coords[x]) == line and coords[x][axis - 1] == c
        assert np.array_equal(g.line_points(axis), table)
        assert g.line_points(axis).flags.c_contiguous


def test_cached_tables_die_with_the_geometry():
    g = CubeGeometry(1, 3)
    g.line_points(1)
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None


def test_shape_only_geometry_refuses_tables():
    g = CubeGeometry(7, 6)
    with pytest.raises(ValueError):
        g.line_points(1)
    # N = 63^4 is over the table limit, but one shift per line still fits
    model = CubeGeometry(2, 4)
    assert not model.materializable
    shift = ShiftVector(model, 1, np.ones(model.lines_per_axis, dtype=np.int64))
    with pytest.raises(ValueError, match="table limit"):
        shift.materialize()


def test_dimension_validation():
    with pytest.raises(ValueError):
        CubeGeometry(0, 6)
    with pytest.raises(ValueError):
        CubeGeometry(1, 1)


def test_the_package_builds_no_index_tables(monkeypatch):
    # the package reaches the lines through `lines`, `line_coords` and `move`
    # alone; the whole-cube tables are kept for callers outside it
    def refuse(self, axis):
        raise RuntimeError("whole-cube index table requested")

    for name in ("coord_array", "line_id_array", "line_points"):
        monkeypatch.setattr(CubeGeometry, name, refuse)
    sn = build_SN(1, 3)
    model = sn.model
    rng = np.random.default_rng(0)
    action = schreier_graph(sn)                      # materializes every generator
    blocks = AxisBlockGraph(sn)                      # the axis-block form
    assert action.is_connected() and blocks.is_connected()
    spectral_gap(blocks, method="lanczos", seed=2)
    v = rng.standard_normal(model.N)
    assert len(blocks.displacement_norms(v)) == len(sn)
    counts = sum(np.broadcast_to(c, src.shape).sum() for src, _, c in blocks.edge_counts())
    assert counts == model.N * blocks.degree
    grid_route(model, rng.permutation(model.lines_per_axis)).product()
    assert tosquare_word(model, rng.choice(model.N, size=5, replace=False)) is not None
    c0 = cycle_word(model, 1).product()
    assert conjugacy_word47(model, c0).product() == c0
    six = CubeGeometry(1, 6)
    start = np.array([six.index((0, 0, 0, i, 0, 0)) for i in range(5)])
    assert 0 <= tuple_walk(six, start, seed=1, samples=3) <= 1
    assert len(point_walk_batch(model, 3, 10, 5, [1, 2, 3])) == 10
    assert full_sweep(ExactDistribution.point_mass(model, 0)).tv_to_uniform() == 0
