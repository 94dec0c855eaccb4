"""Each checker accepts a right output and rejects a corrupted one.

    python3 -m pytest perfbench/test_checks.py

The right outputs come from altgen on small inputs of the same shapes the
workloads use; the corruptions are the faults a wrong program could make.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
from altgen import blocks, embeddings, graphs, ring, spectral, words  # noqa: E402
from altgen.perms import Permutation  # noqa: E402
from workloads import _el3_bits  # noqa: E402


@pytest.fixture(scope="module")
def small_cube():
    """S_N(1, 3): 343 points, the smallest cube with a 4d-5 route of 7 letters."""
    model = embeddings.CubeModel(1, 3)
    return model, checks.CubeIndex(model.K, model.d)


def _records_with(records, i, shift_delta):
    out = [dict(r, shifts=list(r["shifts"])) for r in records]
    out[i]["shifts"][0] = (out[i]["shifts"][0] + shift_delta) % 7
    return out


def test_letter_matches_altgen(small_cube):
    model, cube = small_cube
    shifts = np.random.default_rng(0).integers(0, 7, size=49)
    for axis in (1, 2, 3):
        sv = embeddings.ShiftVector(model, axis, shifts)
        assert np.array_equal(cube.letter(axis, shifts), sv.materialize().table)


def test_face_route(small_cube):
    model, cube = small_cube
    sigma = np.random.default_rng(1).permutation(49)
    records = words.grid_route(model, sigma).to_records()
    assert checks.check_face_route(cube, records, sigma) == []
    assert checks.check_face_route(cube, records[:-1], sigma)
    bad_sigma = sigma.copy()
    bad_sigma[[0, 1]] = bad_sigma[[1, 0]]
    assert checks.check_face_route(cube, records, bad_sigma)
    nonzero = next(i for i, r in enumerate(records) if any(r["shifts"]))
    assert checks.check_face_route(cube, _records_with(records, nonzero, 1),
                                   sigma)


def test_cycle_word(small_cube):
    model, cube = small_cube
    length, a = words.standard_cycle_length(model.K, model.d)
    word = words.cycle_word(model, a)
    table = word.product().table
    records = word.to_records()
    assert checks.check_cycle_word(cube, records, table) == []
    assert checks.check_cycle_word(cube, _records_with(records, 0, 3), table)
    assert checks.check_cycle_word(cube, records * 4, table)   # too many letters


def test_block_factors():
    rng = np.random.default_rng(2)
    table = rng.permutation(50)
    if checks.parity(table):
        table[[0, 1]] = table[[1, 0]]
    factors, windows = blocks.block_factor(Permutation(table), 10)
    tables = [f.table.copy() for f in factors]
    assert checks.check_block_factors(table, 10, tables, windows) == []
    # dropping a factor breaks the product
    assert checks.check_block_factors(table, 10, tables[1:], windows)
    # an odd factor
    odd = [t.copy() for t in tables]
    w = windows[0]
    odd[0][[w[0], w[1]]] = odd[0][[w[1], w[0]]]
    assert any("odd" in p for p in checks.check_block_factors(table, 10, odd, windows))
    # an even factor reaching outside every window
    wide = [t.copy() for t in tables]
    wide[0] = np.arange(50)
    wide[0][[0, 49, 25]] = [49, 25, 0]
    assert any("window" in p for p in checks.check_block_factors(table, 10, wide, windows))
    # too many factors
    assert checks.check_block_factors(table, 10, tables * 3, windows)


def test_gem_word():
    rng = np.random.default_rng(3)
    g = ring.random_el3(1, 30, rng)
    word = ring.gem_factor(g)
    target = _el3_bits(g)
    letters = [_el3_bits(x) for x in word.letters]
    assert checks.check_gem_word(letters, target) == []
    assert checks.check_gem_word(letters[1:], target)
    flipped = [x.copy() for x in letters]
    flipped[0][5, 0, 1] ^= 1
    assert checks.check_gem_word(flipped, target)
    assert checks.check_gem_word(letters * 2, target)   # longer than 17


def test_generators_and_spectrum():
    genset = embeddings.build_SN(1, 2)
    tables = np.array([p.table for p in genset.permutations()])
    audit = checks.audit(tables)
    assert audit.problems == [] and audit.orbits() == 1
    # a 3-cycle is not an involution, a transposition is odd
    bad = tables.copy()
    bad[0] = np.arange(49)
    bad[0][[0, 1, 2]] = [1, 2, 0]
    assert any("square" in p for p in checks.audit(bad).problems)
    bad[0] = np.arange(49)
    bad[0][[0, 1]] = [1, 0]
    assert any("odd" in p for p in checks.audit(bad).problems)
    # the axis-1 generators alone keep each of the 7 axis-1 lines apart
    assert checks.audit(tables[:36]).orbits() == 7

    graph = graphs.schreier_graph(genset)
    rep = spectral.spectral_gap(graph, method="dense")
    T = audit.adjacency()
    assert np.allclose(T.toarray(), graph.to_dense())
    vals, vecs = np.linalg.eigh(T.toarray())
    assert checks.check_eigenpair(T, vals[-2], vecs[:, -2]) == []
    assert checks.check_eigenpair(T, vals[-2] + 1e-3, vecs[:, -2])
    assert checks.check_eigenpair(T, vals[-1], vecs[:, -1])   # the constant vector
    assert abs(checks.dense_gap(T) - rep.gap) < 1e-12
    assert checks.check_gap(rep.gap, rep.cheeger_upper) == []
    assert checks.check_gap(-rep.gap, rep.cheeger_upper)
    assert checks.check_gap(rep.gap, rep.gap / 4)


def test_cycle_count():
    assert checks.cycle_count(np.arange(5)) == 5
    assert checks.cycle_count(np.array([1, 2, 0, 4, 3])) == 2
    assert checks.parity(np.array([1, 0, 2])) == 1
