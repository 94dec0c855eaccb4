import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from altgen.cli import desk_base
from altgen.embeddings import build_Fn, build_SN, build_sym
from altgen.perms import Permutation
from altgen.schreier_sims import StabilizerChain, _to_bytes, group_order, jordan_certificate
from oracles import sifted_order_lower_bound


def brute_force_order(gens):
    """Independent oracle: breadth-first closure."""
    seen = {Permutation.identity(gens[0].n)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                f = e * g
                if f not in seen:
                    seen.add(f)
                    nxt.append(f)
        frontier = nxt
    return len(seen)


def test_single_three_cycle():
    g = Permutation.from_cycles(3, [(0, 1, 2)])
    assert group_order([g]) == 3


def test_alt5_against_brute_force():
    a = Permutation.from_cycles(5, [(0, 1, 2)])
    b = Permutation.from_cycles(5, [(0, 1, 2, 3, 4)])
    oracle = brute_force_order([a, b])
    assert oracle == 60
    assert group_order([a, b]) == oracle


def test_symmetric_and_alternating_families():
    for n in (6, 7, 8):
        t = Permutation.from_cycles(n, [(0, 1)])
        c = Permutation.from_cycles(n, [tuple(range(n))])
        assert group_order([t, c]) == math.factorial(n)
    for n in (5, 7, 9):  # odd n: the n-cycle is even
        three = Permutation.from_cycles(n, [(0, 1, 2)])
        c = Permutation.from_cycles(n, [tuple(range(n))])
        assert group_order([three, c]) == math.factorial(n) // 2


def test_dihedral_and_cyclic():
    rot = Permutation.from_cycles(8, [tuple(range(8))])
    flip = Permutation(np.array([(8 - i) % 8 for i in range(8)]))
    assert group_order([rot]) == 8
    assert group_order([rot, flip]) == 16
    oracle = brute_force_order([rot, flip])
    assert oracle == 16


def test_limit_refusal():
    g = Permutation.identity(10**4 + 1)
    with pytest.raises(ValueError):
        group_order([g])


def test_seed_independence():
    a = Permutation.from_cycles(9, [(0, 1, 2)])
    b = Permutation.from_cycles(9, [tuple(range(9))])
    orders = {group_order([a, b], seed=s) for s in range(5)}
    assert orders == {math.factorial(9) // 2}


def test_primitive_even_non_giants():
    # even, transitive and primitive, yet far below |Alt(n)|: no certificate
    # exists, so the closure must run to the end, and the order must not stop
    # at the parity ceiling
    psl27 = [Permutation.from_cycles(7, [tuple(range(7))]),
             Permutation.from_cycles(7, [(2, 4), (5, 6)])]
    m11 = [Permutation.from_cycles(11, [tuple(range(11))]),
           Permutation.from_cycles(11, [(2, 6, 10, 7), (3, 9, 4, 5)])]
    for gens, order in ((psl27, 168), (m11, 7920)):
        assert brute_force_order(gens) == order
        assert group_order(gens) == order


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_random_pairs_against_brute_force(data):
    n = data.draw(st.integers(1, 6), label="points")
    gens = [Permutation(np.array(data.draw(st.permutations(range(n)), label="gen")))
            for _ in range(2)]
    assert group_order(gens) == brute_force_order(gens)


def _counted_sifts(monkeypatch):
    calls = []
    sift = StabilizerChain.sift

    def counted(self, *args, **kwargs):
        calls.append(1)
        return sift(self, *args, **kwargs)

    monkeypatch.setattr(StabilizerChain, "sift", counted)
    return calls


@pytest.mark.parametrize("n, sym", [(100, False), (150, False), (256, False), (150, True)])
def test_window_set_orders_need_no_sift(monkeypatch, n, sym):
    # the construct-general --base-m 49 generators: a Jordan certificate
    # proves the parity ceiling, so the stabilizer chain, whose Schreier
    # closure alone stalls past n = 150 on these sets, is never built
    perms, _ = build_Fn(n, desk_base(49), 49)
    if sym:
        perms = build_sym(n, perms)
    calls = _counted_sifts(monkeypatch)
    assert group_order(perms) == math.factorial(n) // (1 if sym else 2)
    assert not calls


def test_direct_product_of_alternating_groups_falls_back_to_the_closure():
    # Alt(25) x Alt(25) on 50 points sits far below the ceiling 50!/2: it is
    # intransitive, so no certificate exists, and the closure proves the order
    base = desk_base(25)

    def placed(p, offset):
        table = np.arange(50)
        table[offset:offset + 25] = p.table + offset
        return Permutation(table)

    gens = [placed(p, 0) for p in base] + [placed(p, 25) for p in base]
    assert group_order(gens) == (math.factorial(25) // 2) ** 2


def _placed(p, offset, n):
    # p acting on points offset .. offset + p.n - 1 of n
    table = np.arange(n)
    table[offset:offset + p.n] = p.table + offset
    return Permutation(table)


def _ceiling(gens):
    odd = any(g.parity for g in gens)
    return math.factorial(gens[0].n) // (1 if odd else 2)


def test_certificate_rejects_non_giants():
    # M11 has no 7-cycle and Sym(4) wr Sym(2) no 5-cycle; Alt(25) x Alt(25)
    # is intransitive, and so is Alt(40) on 50 points, despite its 37-cycles
    m11 = [Permutation.from_cycles(11, [tuple(range(11))]),
           Permutation.from_cycles(11, [(2, 6, 10, 7), (3, 9, 4, 5)])]
    swap = Permutation(np.array([4, 5, 6, 7, 0, 1, 2, 3]))
    sym4_wr_sym2 = [_placed(Permutation.from_cycles(4, [(0, 1)]), 0, 8),
                    _placed(Permutation.from_cycles(4, [(0, 1, 2, 3)]), 0, 8), swap]
    alt25_squared = [_placed(p, offset, 50) for p in desk_base(25) for offset in (0, 25)]
    alt40 = [_placed(p, 0, 50) for p in desk_base(40)]
    for gens in (m11, sym4_wr_sym2, alt25_squared, alt40):
        assert jordan_certificate(gens) is None


def test_imprimitive_group_past_256_points_is_undecided():
    # Alt(130) wr C2 on 260 points: every element either keeps both halves,
    # so its cycles are at most 130 long, or swaps them, so its cycles have
    # even length; no certificate exists, and the order is not claimed
    swap = Permutation(np.roll(np.arange(260), 130))
    gens = [_placed(p, offset, 260) for p in desk_base(130) for offset in (0, 130)]
    with pytest.raises(ValueError, match="undecided"):
        group_order(gens + [swap])


def _closure_order(gens):
    # the order from the Schreier closure of a bare chain, with no ceiling
    chain = StabilizerChain(gens[0].n)
    for g in gens:
        chain.add_element(_to_bytes(g.table))
    chain.schreier_closure()
    return chain.order()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_certificate_only_for_giants(data):
    n = data.draw(st.integers(8, 12), label="points")
    gens = [Permutation(np.array(data.draw(st.permutations(range(n)), label="gen")))
            for _ in range(2)]
    order = _closure_order(gens)
    if jordan_certificate(gens) is not None:
        assert order == _ceiling(gens)
    assert group_order(gens) == order


def _window_set(n, m, sym):
    perms, _ = build_Fn(n, desk_base(m), m)
    return build_sym(n, perms) if sym else perms


def _agrees_with_the_chain(gens):
    # the chain's order is a proved lower bound, so reaching the ceiling
    # proves the order the certificate claims
    assert jordan_certificate(gens) is not None
    assert sifted_order_lower_bound(gens, seed=0) == _ceiling(gens)
    assert group_order(gens) == _ceiling(gens)


@pytest.mark.parametrize("n", [49, 100, 150, 256])
@pytest.mark.parametrize("sym", [False, True])
def test_certificate_agrees_with_the_chain_on_window_sets(n, sym):
    _agrees_with_the_chain(_window_set(n, 49, sym))


def test_certificate_agrees_with_the_chain_on_S_N_1_2():
    _agrees_with_the_chain(build_SN(1, 2).permutations())


@pytest.mark.parametrize("n", [257, 300])
@pytest.mark.parametrize("sym", [False, True])
def test_certificate_proves_window_orders_past_256_points(n, sym):
    assert group_order(_window_set(n, 49, sym)) == math.factorial(n) // (1 if sym else 2)


@pytest.mark.parametrize("n, m", [(300, 49), (1000, 49), (2001, 64)])
def test_certificate_arrives_within_200_steps(n, m):
    steps, p = jordan_certificate(_window_set(n, m, False), seed=0)
    assert steps <= 200
    assert n / 2 < p <= n - 3


def test_chain_refuses_more_than_256_points():
    StabilizerChain(256)
    with pytest.raises(ValueError):
        StabilizerChain(257)
