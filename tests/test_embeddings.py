import math

import numpy as np
import pytest

from altgen.embeddings import (GeneratingSet, ShiftVector, build_Fn, build_sym, build_SN,
                               el3_line_actions)
from altgen.geometry import CubeGeometry
from altgen.gf2 import SideFieldAction, primitive_order_K_element
from altgen.ring import EL3Element, el3_involutions, random_el3
from altgen.schreier_sims import group_order
from line_tables import line_and_coord, line_table


def embed_pi(model, axis, el3):
    """The axis-`axis` embedding of an EL3 element: copy j acts on line j."""
    vid, tables = el3_line_actions(model, el3, SideFieldAction(model.s))
    return model.lines_to_permutation(axis, tables[vid])


def test_embed_identity():
    model = CubeGeometry(1, 2)
    ident = EL3Element.identity(1, 7)
    assert embed_pi(model, 1, ident).is_identity()


def test_embed_shift_structure():
    # the all-lines order-K element along axis 1 is 7 disjoint 7-cycles at d=2
    model = CubeGeometry(1, 2)
    M = primitive_order_K_element(1)
    el = EL3Element(3, np.repeat(M.rows, 7, axis=0))
    p = embed_pi(model, 1, el)
    assert p.cycle_type() == (7,) * 7
    sv = ShiftVector(model, 1, np.ones(7, dtype=np.int64))
    assert p == sv.materialize()


def test_embed_is_homomorphism():
    model = CubeGeometry(1, 2)
    rng = np.random.default_rng(0)
    for _ in range(100):
        g = random_el3(1, 7, rng, length=6)
        h = random_el3(1, 7, rng, length=6)
        assert embed_pi(model, 2, g * h) == embed_pi(model, 2, g) * embed_pi(model, 2, h)


def test_embed_acts_per_line():
    model = CubeGeometry(1, 2)
    rng = np.random.default_rng(1)
    g = random_el3(1, 7, rng, length=8)
    p = embed_pi(model, 1, g)
    lid, _ = line_and_coord(model, 1)
    for x in range(model.N):
        assert lid[p.table[x]] == lid[x]


@pytest.mark.parametrize("s, d", [(1, 3), (2, 2), (1, 4)])
def test_line_permutations_match_the_line_tables(s, d):
    # the point at (line, c) goes to (line, perms[line, c]) of the same line
    model = CubeGeometry(s, d)
    rng = np.random.default_rng(10 * s + d)
    for axis in range(1, d + 1):
        lp = line_table(model, axis)
        perms = np.array([rng.permutation(model.K) for _ in range(model.lines_per_axis)])
        expected = np.empty(model.N, dtype=np.int64)
        expected[lp] = np.take_along_axis(lp, perms, axis=1)
        assert np.array_equal(model.lines_to_permutation(axis, perms).table, expected)
        shifts = rng.integers(0, model.K, size=model.lines_per_axis)
        rolled = (np.arange(model.K) + shifts[:, None]) % model.K
        expected[lp] = np.take_along_axis(lp, rolled, axis=1)
        assert np.array_equal(ShiftVector(model, axis, shifts).materialize().table,
                              expected)


def test_shift_vector_even_and_inverse():
    model = CubeGeometry(1, 2)
    rng = np.random.default_rng(2)
    for _ in range(20):
        sv = ShiftVector(model, 1, rng.integers(0, 7, size=7))
        p = sv.materialize()
        assert p.parity == 0
        assert (p * sv.inverse().materialize()).is_identity()


@pytest.mark.parametrize("s, dtype", [(1, np.uint8), (2, np.uint8), (3, np.uint16)])
def test_shift_vector_takes_the_narrowest_dtype(s, dtype):
    model = CubeGeometry(s, 2)
    sv = ShiftVector(model, 2, np.arange(model.K) - 3)
    assert sv.shifts.dtype == dtype
    assert sv.shifts.tolist() == [(i - 3) % model.K for i in range(model.K)]
    assert all(type(x) is int for x in sv.shifts.tolist())


@pytest.mark.parametrize("s", [1, 2, 3])
def test_shift_vector_arithmetic_matches_int64(s):
    # negating the unsigned shifts directly would wrap modulo 2**8 or 2**16,
    # not modulo K; K - shift stays in range, and a zero shift inverts to zero
    model = CubeGeometry(s, 2)
    K = model.K
    rng = np.random.default_rng(s)
    a = rng.integers(0, K, size=K)
    a[:4] = [K - 1, 3, 1, 0]
    x = ShiftVector(model, 1, a)
    assert np.array_equal(x.inverse().shifts, (-a) % K)
    assert x.inverse().shifts.dtype == x.shifts.dtype


def test_build_sn_counts_and_regimes():
    sn12 = build_SN(1, 2)
    assert len(sn12) == 72 and sn12.regime == "desk"
    sn16 = build_SN(1, 6)
    assert len(sn16) == 648 and sn16.regime == "desk"
    sn76 = build_SN(7, 6)
    assert len(sn76) == 216 and sn76.regime == "certified-shape"
    assert not sn76.materializable
    with pytest.raises(ValueError):
        sn76.materialize(0)


def test_build_sn_unique_labels_and_parity():
    sn = build_SN(1, 2)
    assert len({label for label, _, _ in sn.describe()}) == len(sn)
    assert sn.all_even()
    # the structural verdict agrees with the materialized generators
    for i in range(0, len(sn), 17):
        assert sn.materialize(i).parity == 0


@pytest.mark.parametrize("s, d", [(1, 2), (1, 3), (2, 2)])
def test_line_actions_match_every_copy(s, d):
    model = CubeGeometry(s, d)
    m = model.lines_per_axis
    action = SideFieldAction(s)
    rng = np.random.default_rng(11)
    for el in [random_el3(s, m, rng)] + list(el3_involutions(s, m))[:6]:
        vid, tables = el3_line_actions(model, el, action)
        assert vid.shape == (m,) and set(vid.tolist()) == set(range(len(tables)))
        for j in range(m):
            expect = action.matrix_to_permutation(el[j]).table
            assert np.array_equal(tables[vid[j]], expect)


def test_build_sn_shares_read_only_line_actions():
    # generator i is action i % A on axis i // A + 1, for A actions
    sn = build_SN(1, 3)
    per_axis = len(sn.el3_elements)
    assert len(sn.actions) == per_axis and len(sn) == 3 * per_axis
    described = list(sn.describe())
    for k, (vid, tables) in enumerate(sn.actions):
        assert not vid.flags.writeable and not tables.flags.writeable
        for axis in (1, 2, 3):
            i = (axis - 1) * per_axis + k
            assert described[i][1] == axis
            assert sn.materialize(i) == sn.model.lines_to_permutation(axis, tables[vid])


def test_build_sn_generates_full_alternating_group():
    sn = build_SN(1, 2)
    assert group_order(sn.permutations()) == math.factorial(49) // 2


def test_window_embeddings():
    from altgen.cli import desk_base
    base = desk_base(10)
    perms, windows = build_Fn(30, base, 10)
    assert len(perms) <= len(windows) * len(base)
    for p in perms:
        assert p.parity == 0
    order = group_order(perms)
    assert order == math.factorial(30) // 2
    full = build_sym(30, perms)
    assert group_order(full) == math.factorial(30)


def test_build_fn_trivial_window():
    from altgen.cli import desk_base
    base = desk_base(9)
    perms, windows = build_Fn(9, base, 9)
    assert len(windows) == 1
    assert perms == base


def test_lines_parity_matches_the_materialized_generator():
    # odd and even line actions mixed, so the stacked-table count must be per row
    model = CubeGeometry(1, 2)
    rng = np.random.default_rng(7)
    actions = []
    for _ in range(6):
        tables = np.array([rng.permutation(model.K) for _ in range(3)])
        vid = rng.integers(0, len(tables), size=model.lines_per_axis)
        actions.append((vid, tables))
    parities = []
    for k, action in enumerate(actions):
        gs = GeneratingSet(model, [f"g{k}"], [action])
        # the action has one parity on every axis
        materialized = {gs.materialize(i).parity for i in range(len(gs))}
        assert materialized == {0 if gs.all_even() else 1}
        parities += materialized
    assert set(parities) == {0, 1}


def test_all_even_reads_each_shared_stack_once(monkeypatch):
    import altgen.embeddings as emb
    # an odd line action shared by both axes, after two shared even ones
    model = CubeGeometry(1, 2)
    m = model.lines_per_axis
    ident = np.arange(model.K)
    swap = ident.copy()
    swap[[0, 1]] = swap[[1, 0]]
    even = [(np.zeros(m, dtype=np.int64), np.array([ident])) for _ in range(2)]
    odd = (np.r_[1, np.zeros(m - 1, dtype=np.int64)], np.array([ident, swap]))
    for actions, expect in ((even, True), (even + [odd], False)):
        labels = [f"g{k}" for k in range(len(actions))]
        gs = GeneratingSet(model, labels, actions)
        assert gs.all_even() == all(gs.materialize(i).parity == 0 for i in range(len(gs)))
        assert gs.all_even() is expect

    calls = []
    labels = emb.cycle_labels

    def counted(tables):
        calls.append(1)
        return labels(tables)

    monkeypatch.setattr(emb, "cycle_labels", counted)
    sn = build_SN(1, 2)
    assert sn.all_even()
    assert len(calls) == len(sn) // 2


def test_line_action_ids_take_the_narrowest_dtype():
    model = CubeGeometry(1, 3)
    vid, tables = el3_line_actions(model, list(el3_involutions(1, model.lines_per_axis))[6],
                                   SideFieldAction(1))
    assert vid.dtype == np.uint8 and len(tables) <= 256


def test_build_sn_builds_one_involution_at_a_time(monkeypatch):
    import weakref
    import altgen.embeddings as emb
    # build_SN holds the previous involution while the next one is built,
    # and no other
    refs = []

    def tracked(s, m):
        for el in el3_involutions(s, m):
            refs.append(weakref.ref(el.rows))
            assert sum(ref() is not None for ref in refs) <= 2
            yield el

    monkeypatch.setattr(emb, "el3_involutions", tracked)
    sn = build_SN(1, 3)
    assert len(refs) == len(sn) // 3 > 2
