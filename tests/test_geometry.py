import gc
import weakref

import numpy as np
import pytest

from altgen.geometry import CubeGeometry


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
            assert g.index(g.coords(idx)) == idx


def test_codec_round_trip_sampled():
    g = CubeGeometry(1, 6)
    rng = np.random.default_rng(0)
    for idx in rng.integers(0, g.N, size=500):
        assert g.index(g.coords(int(idx))) == idx


def test_codec_errors():
    g = CubeGeometry(1, 2)
    with pytest.raises(ValueError):
        g.index((7, 0))
    with pytest.raises(ValueError):
        g.index((0, 0, 0))
    with pytest.raises(ValueError):
        g.coords(49)


def test_lines_partition_points():
    g = CubeGeometry(1, 3)
    for axis in (1, 2, 3):
        table = g.line_points(axis)
        assert table.shape == (49, 7)
        flat = np.sort(table.ravel())
        assert np.array_equal(flat, np.arange(g.N))
        # every line is constant off-axis and spans the axis coordinate
        for lid in range(0, 49, 7):
            coords = np.array([g.coords(int(x)) for x in table[lid]])
            assert set(coords[:, axis - 1]) == set(range(7))
            for j in range(3):
                if j != axis - 1:
                    assert len(set(coords[:, j])) == 1


def test_cached_tables_die_with_the_geometry():
    g = CubeGeometry(1, 3)
    assert g.line_points(1) is g.line_points(1)
    assert not g.line_points(1).flags.writeable
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None


def test_shape_only_geometry_refuses_tables():
    g = CubeGeometry(7, 6)
    with pytest.raises(ValueError):
        g.line_points(1)


def test_dimension_validation():
    with pytest.raises(ValueError):
        CubeGeometry(0, 6)
    with pytest.raises(ValueError):
        CubeGeometry(1, 1)
