import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from altgen.perms import Permutation, cycle_labels, product
from oracles import full_table_cycle_type


def brute_parity(table):
    """Independent oracle: count inversions mod 2."""
    n = len(table)
    inv = sum(1 for i in range(n) for j in range(i + 1, n) if table[i] > table[j])
    return inv % 2


def test_identity_compose():
    rng = np.random.default_rng(1)
    p = Permutation.random(30, rng)
    e = Permutation.identity(30)
    assert e * p == p and p * e == p
    assert p * p.inverse() == e and p.inverse() * p == e


def test_composition_convention():
    p = Permutation.from_cycles(3, [(0, 1)])
    q = Permutation.from_cycles(3, [(1, 2)])
    r = p * q
    # (p o q)(x) = p(q(x))
    for x in range(3):
        assert r(x) == p(q(x))


def test_associativity_and_parity_homomorphism():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        p = Permutation.random(12, rng)
        q = Permutation.random(12, rng)
        assert (p * q).parity == (p.parity + q.parity) % 2
    for _ in range(50):
        p, q, r = (Permutation.random(15, rng) for _ in range(3))
        assert (p * q) * r == p * (q * r)


def test_parity_against_inversion_oracle():
    rng = np.random.default_rng(3)
    for _ in range(100):
        p = Permutation.random(100, rng)
        assert p.parity == brute_parity(p.table.tolist())


def test_cycle_type_identity():
    p = Permutation.identity(49)
    assert p.cycle_type() == tuple([1] * 49)


def test_cycle_type_line_shift():
    # shift x -> x+1 mod 7 on the first line of a 7x7 grid
    table = np.arange(49)
    table[:7] = (np.arange(7) + 1) % 7
    p = Permutation(table)
    assert p.cycle_type() == (7,) + (1,) * 42


def test_two_line_tree_cycle():
    # two crossing lines in the 7x7 grid: shift both, apply and trace
    from altgen.embeddings import ShiftVector
    from altgen.geometry import CubeGeometry
    model = CubeGeometry(1, 2)
    s1 = np.zeros(7, dtype=np.int64)
    s1[0] = 1
    axis1 = ShiftVector(model, 1, s1).materialize()   # the line x2 = 0
    axis2 = ShiftVector(model, 2, s1).materialize()   # the line x1 = 0
    p = axis2 * axis1
    assert p.cycle_type()[0] == 13 == 1 + 2 * 6


def test_cycle_type_conjugation_invariant():
    rng = np.random.default_rng(4)
    for _ in range(50):
        p = Permutation.random(40, rng)
        u = Permutation.random(40, rng)
        assert (u * p * u.inverse()).cycle_type() == p.cycle_type()


def test_cycle_labels_match_the_cycle_walk():
    rng = np.random.default_rng(6)
    tables = np.array([rng.permutation(30) for _ in range(5)] + [np.arange(30)])
    count, labels = cycle_labels(tables)
    walked = [Permutation(t).cycles() for t in tables]
    assert count == sum(len(c) for c in walked)
    assert labels.shape == tables.shape
    for row, cycles in zip(labels, walked):
        # one label per walked cycle, shared by exactly its points
        assert sorted(sorted(np.flatnonzero(row == lab).tolist())
                      for lab in np.unique(row)) == sorted(sorted(c) for c in cycles)
    # rows never share a label
    assert len(set(np.unique(labels[0])) & set(np.unique(labels[1]))) == 0
    for t, cycles in zip(tables, walked):
        p = Permutation(t)
        assert p.cycle_count() == len(cycles)
        assert p.cycle_type() == tuple(sorted(map(len, cycles), reverse=True))
        assert p.parity == brute_parity(t)
    assert Permutation.identity(0).cycle_type() == ()


def _assert_cycle_type_of_the_full_table(p):
    got = p.cycle_type()
    assert got == full_table_cycle_type(p)
    assert all(type(k) is int for k in got)


FULL_TABLE_CASES = pytest.mark.parametrize("p", [
    Permutation.identity(0), Permutation.identity(1), Permutation.identity(49),
    Permutation.from_cycles(10_000, [(5, 9_000, 17), (3, 4)]),
    Permutation.random(200, np.random.default_rng(7)),
], ids=["n0", "n1", "identity", "sparse", "dense"])


@FULL_TABLE_CASES
def test_cycle_type_matches_the_full_table(p):
    _assert_cycle_type_of_the_full_table(p)


@FULL_TABLE_CASES
def test_cycle_count_and_parity_match_the_full_table(p):
    count = len(full_table_cycle_type(p))
    assert p.cycle_count() == count
    assert Permutation(p.table).parity == (p.n - count) % 2


def test_parity_labels_only_the_moved_points(monkeypatch):
    from altgen import perms
    sizes = []
    labels = perms.cycle_labels
    monkeypatch.setattr(perms, "cycle_labels",
                        lambda tables: sizes.append(np.asarray(tables).size) or labels(tables))
    p = Permutation.from_cycles(10_000, [(5, 9_000, 17), (3, 4)])
    assert p.parity == 1 and p.cycle_count() == 9_997
    assert sizes == [5, 5]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_cycle_type_matches_the_full_table_at_any_support(data):
    n = data.draw(st.integers(1, 80), label="points")
    moved = data.draw(st.integers(0, n), label="points that may move")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    pts = rng.choice(n, size=moved, replace=False)
    table = np.arange(n)
    table[pts] = pts[rng.permutation(moved)]
    _assert_cycle_type_of_the_full_table(Permutation(table))


def test_mismatched_sizes():
    with pytest.raises(ValueError):
        Permutation.identity(3) * Permutation.identity(4)


def test_validation_rejects_non_bijections():
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])
    with pytest.raises(ValueError):
        Permutation([0, 1, 3])


def test_product_helper():
    rng = np.random.default_rng(5)
    ps = [Permutation.random(10, rng) for _ in range(4)]
    acc = ps[0] * ps[1] * ps[2] * ps[3]
    assert product(ps) == acc
    assert product([], n=5) == Permutation.identity(5)
