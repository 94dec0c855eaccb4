import hashlib
import itertools
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from altgen.blocks import color_regular_bipartite
from altgen.embeddings import ShiftVector
from altgen.geometry import CubeGeometry
from altgen.perms import Permutation
from altgen.words import (WordInE, _checked_cycle_word, _face_cycle, butterfly_factor,
                          comb_tree_lines, conjugacy_word47, cycle_word, grid_route,
                          standard_cycle_length, tosquare_word)
from oracles import face_restriction, linewise_tosquare_word


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
            assert a.table[p] // 2 == p // 2 and c.table[p] // 2 == p // 2
            assert b.table[p] % 2 == p % 2


def test_butterfly_identity_and_column_supported():
    e = Permutation.identity(12)
    a, b, c = butterfly_factor(e, 3, 4)
    assert a.is_identity() and b.is_identity() and c.is_identity()
    # a permutation already moving only within columns comes back as the b part
    g = Permutation(np.array([3, 4, 5, 0, 1, 2, 9, 10, 11, 6, 7, 8]))
    for p in range(12):
        assert g.table[p] % 3 == p % 3  # column-supported for a 3-row grid
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


def test_grid_route_builds_one_n_point_array(monkeypatch):
    # the face is the one N-point array a route needs; every deliver letter
    # is built from the face
    model = CubeGeometry(1, 6)
    calls = []
    points = CubeGeometry.points

    def counted(self):
        calls.append(self)
        return points(self)

    monkeypatch.setattr(CubeGeometry, "points", counted)
    grid_route(model, np.random.default_rng(4).permutation(model.lines_per_axis))
    assert len(calls) <= 1


def test_grid_route_small_dimension():
    model = CubeGeometry(1, 2)
    rng = np.random.default_rng(3)
    for _ in range(20):
        sigma = rng.permutation(7).astype(np.int64)
        word = grid_route(model, sigma)
        assert len(word) == 3 and word.axes() == [1, 2, 1]
        got = word.product().table[np.arange(7) * 7]
        assert np.array_equal(got // 7, sigma) and (got % 7 == 0).all()


@pytest.mark.parametrize("s, d, seed, digest", [
    (1, 3, 11, "8a04c27c69c19c6976e8c0f2fae57619ac3b4fafe4d9862e1a5ac3a6ddca3a36"),
    (1, 4, 12, "c3bade86249358515959d1360455165fdc9ce9f72454934f174d8dc8c3432554"),
    (2, 3, 13, "70da9892625e5b96f7eae64846ed11e4c61b198feff2fde309c64a9075594b81"),
    (1, 6, None, "8086fd55498f1a457c3616ce3120681c0469ca621ad50960e421a590d9ceae2c"),
], ids=["s1-d3", "s1-d4", "s2-d3", "s1-d6-identity"])
def test_grid_route_letters_are_pinned(s, d, seed, digest):
    # any change to a letter, its axis or the letter order changes the digest
    model = CubeGeometry(s, d)
    L = model.lines_per_axis
    sigma = np.arange(L) if seed is None else np.random.default_rng(seed).permutation(L)
    records = json.dumps(grid_route(model, sigma).to_records())
    assert hashlib.sha256(records.encode()).hexdigest() == digest


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


@pytest.mark.parametrize("s, d", [(1, 3), (1, 4), (2, 2)])
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), share=st.floats(0, 1))
@example(seed=0, share=1.0)   # fails in every shape
@example(seed=0, share=0.1)   # succeeds in every shape
def test_tosquare_word_matches_the_linewise_greedy(s, d, seed, share):
    # up to two points per face line, so the greedy both fails and
    # succeeds; repeated points are dropped first
    model = CubeGeometry(s, d)
    rng = np.random.default_rng(seed)
    pts = rng.choice(model.N, size=int(share * min(model.N, 2 * model.lines_per_axis)),
                     replace=False)
    pts = np.concatenate([pts, pts[:len(pts) // 4]])
    got, want = tosquare_word(model, pts), linewise_tosquare_word(model, pts)
    assert (got is None) == (want is None)
    if got is not None:
        for letter, reference in zip(got, want):
            assert letter.axis == reference.axis
            assert np.array_equal(letter.shifts, reference.shifts)


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


def _records_digest(word):
    return hashlib.sha256(json.dumps(word.to_records()).encode()).hexdigest()


def _random_cycle(model, seed):
    """A standard-length cycle on points drawn from default_rng(seed)."""
    L, _ = standard_cycle_length(model.K, model.d)
    rng = np.random.default_rng(seed)
    pts = rng.choice(model.N, size=L, replace=False)
    return Permutation.from_cycles(model.N, [pts[rng.permutation(L)].tolist()])


@pytest.mark.parametrize("d, seed, digest", [
    (6, 1, "40d22e86935048fa675d00a35f6cfec2f2856312eeda3af2fb69e8c289933a88"),
    (6, 3, "fdeb875a56b0fd8088e4d11561db62857745897f95fb8adeb290a102f7074df3"),
    (6, None, "ebc61786d84d986625900fe372da3221bb5aba8fa4c0dd96c738b60fee09c490"),
    (4, 1, "92c2e22b440a474ae557aeb20d882249a5e80ef790f2de8b8362d8285479337f"),
], ids=["d6-seed1", "d6-seed3", "d6-standard", "d4-seed1"])
def test_conjugacy_word47_letters_are_pinned(d, seed, digest):
    # any change to a letter, its axis or the letter order changes the digest
    model = CubeGeometry(1, d)
    if seed is None:
        cycle = cycle_word(model, standard_cycle_length(model.K, d)[1]).product()
    else:
        cycle = _random_cycle(model, seed)
    assert _records_digest(conjugacy_word47(model, cycle)) == digest


def test_cycle_word_letters_are_pinned():
    digest = "f3650309cdcc912c45daa40cce95a307e5f158b1e8fb4a203160018524353835"
    assert _records_digest(cycle_word(CubeGeometry(1, 6), 479)) == digest


def test_conjugacy_word47_materializes_no_letter_twice(monkeypatch):
    # every letter moves the cycle's points along their lines: no letter is
    # materialized and no N-point permutation is composed or inverted
    model = CubeGeometry(1, 6)
    rng = np.random.default_rng(5)
    pts = rng.choice(model.N, size=2875, replace=False)
    c = Permutation.from_cycles(model.N, [pts[rng.permutation(2875)].tolist()])
    calls = []
    for cls, name in [(ShiftVector, "materialize"), (Permutation, "__mul__"),
                      (Permutation, "inverse")]:
        def counted(*args, _method=getattr(cls, name), _name=name):
            calls.append(_name)
            return _method(*args)
        monkeypatch.setattr(cls, name, counted)
    word = conjugacy_word47(model, c)
    assert word is not None
    assert calls == []
    monkeypatch.undo()
    assert word.product() == c


@pytest.mark.parametrize("d, a", [(6, 479), (6, 9), (4, 1)])
def test_face_cycles_match_the_face_restriction(d, a):
    # the standard cycle's face lines, and the target cycle's after the face
    # move, equal the restriction of the whole N-point product to the face
    model = CubeGeometry(1, d)
    word, c0_face = _checked_cycle_word(model, a)
    assert np.array_equal(c0_face, face_restriction(model, word.product()))
    rng = np.random.default_rng(d + a)
    checked = 0
    for _ in range(3):
        pts = rng.choice(model.N, size=1 + a * (model.K - 1), replace=False)
        c = Permutation.from_cycles(model.N, [pts[rng.permutation(len(pts))].tolist()])
        moved = tosquare_word(model, c.support())
        if moved is None:
            continue
        checked += 1
        t = WordInE(model, moved[::-1])
        table = t.product()
        assert np.array_equal(_face_cycle(model, t, c, c.support()),
                              face_restriction(model, table * c * table.inverse()))
    assert checked


def test_cycle_checks_label_only_the_moved_points(monkeypatch):
    # both single-cycle checks label the 2875 moved points, not all 7^6
    from altgen import perms
    model = CubeGeometry(1, 6)
    rng = np.random.default_rng(5)
    pts = rng.choice(model.N, size=2875, replace=False)
    c = Permutation.from_cycles(model.N, [pts[rng.permutation(2875)].tolist()])
    sizes = []
    cycle_labels = perms.cycle_labels

    def recorded(tables):
        sizes.append(np.asarray(tables).size)
        return cycle_labels(tables)

    monkeypatch.setattr(perms, "cycle_labels", recorded)
    assert conjugacy_word47(model, c) is not None
    assert len(sizes) >= 2 and max(sizes) <= 2875


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
