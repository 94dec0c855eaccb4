import itertools

import numpy as np
import pytest

from altgen.blocks import color_regular_bipartite
from altgen.embeddings import ShiftVector
from altgen.geometry import CubeGeometry
from altgen.perms import Permutation
from altgen.words import (WordInE, butterfly_factor, comb_tree_lines,
                          conjugacy_word47, cycle_word, face_restriction,
                          grid_route, standard_cycle_length, tosquare_word)


def test_edge_coloring_regular_random():
    rng = np.random.default_rng(0)
    for deg, n in [(7, 11), (4, 6), (5, 9), (2, 4), (1, 8), (6, 10)]:
        # random degree-regular bipartite multigraph: union of deg matchings
        left, right = [], []
        for _ in range(deg):
            perm = rng.permutation(n)
            left.extend(range(n))
            right.extend(perm.tolist())
        colors = color_regular_bipartite(left, right, n, n, deg)
        for side, nodes in ((left, n), (right, n)):
            seen = {}
            for e, node in enumerate(side):
                key = (node, colors[e])
                assert key not in seen, "color repeated at a node"
                seen[key] = e


def test_butterfly_exhaustive_2x3():
    for tbl in itertools.permutations(range(6)):
        g = Permutation(np.array(tbl))
        a, b, c = butterfly_factor(g, 2, 3)
        assert a * b * c == g
        for p in range(6):
            assert a(p) // 2 == p // 2 and c(p) // 2 == p // 2
            assert b(p) % 2 == p % 2


def test_butterfly_identity_and_column_supported():
    e = Permutation.identity(12)
    a, b, c = butterfly_factor(e, 3, 4)
    assert a.is_identity() and b.is_identity() and c.is_identity()
    # a permutation already moving only within columns comes back as the b part
    g = Permutation(np.array([3, 4, 5, 0, 1, 2, 9, 10, 11, 6, 7, 8]))
    for p in range(12):
        assert g(p) % 3 == p % 3  # column-supported for a 3-row grid
    a, b, c = butterfly_factor(g, 3, 4)
    assert a * b * c == g


@pytest.mark.skipif("not __import__('os').environ.get('ALTGEN_SLOW')",
                    reason="exhaustive 3x3 sweep only in the slow suite")
def test_butterfly_exhaustive_3x3_slow():
    for tbl in itertools.permutations(range(9)):
        g = Permutation(np.array(tbl))
        a, b, c = butterfly_factor(g, 3, 3)
        assert a * b * c == g


def test_butterfly_random_grids():
    rng = np.random.default_rng(1)
    for rows, cols in [(4, 4), (5, 3), (7, 7), (2, 9)]:
        for _ in range(10):
            g = Permutation.random(rows * cols, rng)
            a, b, c = butterfly_factor(g, rows, cols)
            assert a * b * c == g


def test_grid_route_identity_letter_pattern():
    # the identity still uses the full 4d-5 letters; off-face action is free
    model = CubeGeometry(1, 6)
    sigma = np.arange(7**5, dtype=np.int64)
    word = grid_route(model, sigma)
    assert len(word) == 19
    assert word.axes() == [1, 2, 1, 3, 1, 4, 1, 5, 1, 6, 1, 5, 1, 4, 1, 3, 1, 2, 1]
    got = word.product().table[np.arange(7**5) * 7]
    assert (got % 7 == 0).all()
    assert np.array_equal(got // 7, sigma)


def test_grid_route_exact_on_face():
    model = CubeGeometry(1, 6)
    rng = np.random.default_rng(2)
    for _ in range(3):
        sigma = rng.permutation(7**5).astype(np.int64)
        word = grid_route(model, sigma)
        assert len(word) == 19
        got = word.product().table[np.arange(7**5) * 7]
        assert (got % 7 == 0).all()
        assert np.array_equal(got // 7, sigma)


def test_grid_route_letters_hold_one_byte_per_line():
    model = CubeGeometry(1, 6)
    word = grid_route(model, np.random.default_rng(4).permutation(7**5))
    assert sum(letter.shifts.nbytes for letter in word.letters) <= 19 * 7**5


def test_grid_route_small_dimension():
    model = CubeGeometry(1, 2)
    rng = np.random.default_rng(3)
    for _ in range(20):
        sigma = rng.permutation(7).astype(np.int64)
        word = grid_route(model, sigma)
        assert len(word) == 3 and word.axes() == [1, 2, 1]
        got = word.product().table[np.arange(7) * 7]
        assert np.array_equal(got // 7, sigma) and (got % 7 == 0).all()


def test_tosquare_single_point_always_succeeds():
    model = CubeGeometry(1, 2)
    for pt in range(0, 49, 5):
        res = tosquare_word(model, [pt])
        assert res is not None
        g, h = res
        moved = h.materialize().table[g.materialize().table[pt]]
        assert moved % 7 == 0


def test_tosquare_face_subset():
    model = CubeGeometry(1, 6)
    pts = (np.arange(10) * 7)  # already on the face
    res = tosquare_word(model, pts)
    assert res is not None
    g, h = res
    final = h.materialize().table[g.materialize().table[pts]]
    assert (model.coord_array(1)[final] == 0).all()


def test_tosquare_random_sets():
    model = CubeGeometry(1, 6)
    rng = np.random.default_rng(4)
    successes = 0
    for _ in range(10):
        pts = rng.choice(model.N, size=500, replace=False)
        res = tosquare_word(model, pts)
        if res is None:
            continue
        successes += 1
        g, h = res
        final = h.materialize().table[g.materialize().table[np.sort(pts)]]
        assert (model.coord_array(1)[final] == 0).all()
        assert len(np.unique(final)) == 500
    assert successes >= 8  # measured, not asserted at 1; tiny sets rarely fail


def test_comb_tree_capacity():
    model = CubeGeometry(1, 6)
    with pytest.raises(ValueError):
        comb_tree_lines(model, 2801)  # the strict bound excludes the full comb
    lines = comb_tree_lines(model, 2800)
    assert len(lines) == 2800


def test_cycle_word_small_counts():
    model = CubeGeometry(1, 6)
    for a in (1, 2, 9, 60):
        word = cycle_word(model, a)
        assert len(word) <= 5
        p = word.product()
        assert p.cycle_type()[0] == 1 + a * 6


def test_cycle_word_standard_length():
    model = CubeGeometry(1, 6)
    L, a = standard_cycle_length(7, 6)
    assert (L, a) == (2875, 479)
    word = cycle_word(model, a)
    p = word.product()
    assert p.cycle_type()[0] == 2875
    assert (model.coord_array(1)[p.support()] == 0).all()
    # odd cycle length means an even permutation
    assert p.parity == 0


def test_conjugacy_word47_roundtrip():
    model = CubeGeometry(1, 6)
    rng = np.random.default_rng(5)
    succ = 0
    for _ in range(4):
        pts = rng.choice(model.N, size=2875, replace=False)
        order = rng.permutation(2875)
        c = Permutation.from_cycles(model.N, [[int(pts[i]) for i in order]])
        word = conjugacy_word47(model, c)
        if word is None:
            continue
        succ += 1
        assert len(word) <= 47
        assert word.product() == c
        for letter in word.letters:
            assert 1 <= letter.axis <= 6
    assert succ >= 2


def test_conjugacy_word47_standard_cycle():
    # conjugating the standard cycle to itself stays within the length bound
    model = CubeGeometry(1, 6)
    c0 = cycle_word(model, 479).product()
    word = conjugacy_word47(model, c0)
    assert word is not None and len(word) <= 47
    assert word.product() == c0


def test_conjugacy_word47_materializes_no_letter_twice(monkeypatch):
    # two face-moving letters and the standard cycle's letters, once each
    model = CubeGeometry(1, 6)
    rng = np.random.default_rng(5)
    pts = rng.choice(model.N, size=2875, replace=False)
    c = Permutation.from_cycles(model.N, [pts[rng.permutation(2875)].tolist()])
    calls = []
    materialize = ShiftVector.materialize

    def counted(self):
        calls.append(self)
        return materialize(self)

    monkeypatch.setattr(ShiftVector, "materialize", counted)
    word = conjugacy_word47(model, c)
    assert word is not None
    assert len(calls) <= 7
    assert len({id(letter) for letter in calls}) == len(calls)
    monkeypatch.undo()
    assert word.product() == c


def test_word_serialization_roundtrip():
    model = CubeGeometry(1, 2)
    rng = np.random.default_rng(6)
    letters = [ShiftVector(model, 1 + int(rng.integers(2)),
                           rng.integers(0, 7, size=7)) for _ in range(4)]
    word = WordInE(model, letters)
    clone = WordInE(model, [ShiftVector(model, r["axis"], r["shifts"])
                            for r in word.to_records()])
    assert clone.product() == word.product()


def test_images_are_the_product_table_at_the_points():
    model = CubeGeometry(1, 4)
    rng = np.random.default_rng(8)
    route = grid_route(model, rng.permutation(model.lines_per_axis))
    L, a = standard_cycle_length(model.K, model.d)
    pts = rng.choice(model.N, size=L, replace=False)
    cycle = Permutation.from_cycles(model.N, [pts[rng.permutation(L)].tolist()])
    conjugation = conjugacy_word47(model, cycle)
    assert conjugation is not None
    points = rng.choice(model.N, size=200, replace=False)
    for word in (route, cycle_word(model, a), conjugation, route.inverse()):
        table = word.product().table
        assert np.array_equal(word.images(points), table[points])
        assert np.array_equal(word.images(np.arange(model.N)), table)
