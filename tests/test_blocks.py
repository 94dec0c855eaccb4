import hashlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import altgen
from altgen.blocks import (_check_block_product, _color_edges, _layout, _odd_parts,
                           block_factor, color_regular_bipartite, factor_count_bound,
                           three_stage, window_family)
from altgen.errors import VerificationError
from altgen.perms import Permutation, cycle_labels, product
from oracles import coo_round_coloring


def random_even(n, rng):
    while True:
        g = Permutation.random(n, rng)
        if g.parity == 0:
            return g


def test_window_family_shape():
    wins = window_family(50, 10)
    assert all(len(w) == 10 for w in wins)
    assert len(wins) <= factor_count_bound(50, 10)
    covered = set()
    for w in wins[:5]:  # the five columns partition the points
        covered.update(w)
    assert covered == set(range(50))


def test_window_family_count_at_spec_shape():
    wins = window_family(100, 49)
    assert len(wins) <= 3 * 3 + 3 == factor_count_bound(100, 49)


def test_single_window_cases():
    g = Permutation.from_cycles(10, [(0, 1, 2)])
    factors, wins = block_factor(g, 10)
    assert len(factors) == 1 and factors[0] == g and len(wins) == 1


def test_window_supported_factor():
    # a permutation already inside the first column comes out as few factors
    rng = np.random.default_rng(0)
    table = np.arange(50)
    table[:10] = np.random.default_rng(1).permutation(10)
    g = Permutation(table)
    if g.parity:
        table[[0, 1]] = table[[1, 0]]
        g = Permutation(table)
    factors, wins = block_factor(g, 10)
    assert product(factors, n=50) == g


def test_block_factor_bounds_and_evenness():
    rng = np.random.default_rng(2)
    for _ in range(30):
        g = random_even(50, rng)
        factors, wins = block_factor(g, 10)
        assert len(factors) <= 18
        assert product(factors, n=50) == g
        window_sets = [set(w) for w in wins]
        for f in factors:
            assert f.parity == 0
            supp = set(map(int, f.support()))
            assert any(supp <= ws for ws in window_sets)


def test_block_factor_various_shapes():
    rng = np.random.default_rng(3)
    for n, m in [(23, 8), (45, 10), (60, 12), (31, 8), (100, 49), (11, 10)]:
        for _ in range(5):
            g = random_even(n, rng)
            factors, _ = block_factor(g, m)
            assert len(factors) <= factor_count_bound(n, m)


def test_block_factor_rejects_odd():
    g = Permutation.from_cycles(20, [(0, 1)])
    with pytest.raises(ValueError):
        block_factor(g, 10)


def test_window_size_preconditions():
    with pytest.raises(ValueError):
        window_family(100, 4)   # below the minimum window size
    with pytest.raises(ValueError):
        window_family(200, 10)  # m < 2 ceil(n/m)
    with pytest.raises(ValueError, match="m >= 2"):
        window_family(1200, 49)  # 49 < 2 ceil(1200/49) = 50, though n <= m*m/2


def _assert_proper(colors, ends):
    """No node sees one color twice, on either side."""
    for side in ends:
        pairs = set(zip(np.asarray(side).tolist(), np.asarray(colors).tolist()))
        assert len(pairs) == len(colors), "color repeated at a node"


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_regular_coloring_is_proper(data):
    n = data.draw(st.integers(1, 8), label="nodes per side")
    degree = data.draw(st.integers(1, 6), label="degree")
    # a regular bipartite multigraph is a union of perfect matchings (König)
    right = np.concatenate([data.draw(st.permutations(range(n)))
                            for _ in range(degree)])
    left = np.tile(np.arange(n), degree)
    order = np.asarray(data.draw(st.permutations(range(n * degree))))
    left, right = left[order], right[order]
    colors = color_regular_bipartite(left, right, n, n, degree)
    assert colors.min() >= 0 and colors.max() < degree
    _assert_proper(colors, (left, right))
    # the same matchings in the same rounds give the same colors, edge for edge
    assert np.array_equal(colors, coo_round_coloring(left, right, n, n, degree))


def _count_matchings(monkeypatch):
    """The list that gets one entry per Hopcroft-Karp call from here on."""
    from scipy.sparse import csgraph
    calls = []
    matcher = csgraph.maximum_bipartite_matching

    def counted(*args, **kwargs):
        calls.append(1)
        return matcher(*args, **kwargs)

    monkeypatch.setattr(csgraph, "maximum_bipartite_matching", counted)
    return calls


@pytest.mark.parametrize("n, degree", [(1, 3), (5, 1), (6, 4), (30, 12)])
def test_r_fold_perfect_matching_needs_no_matcher(monkeypatch, n, degree):
    # every round must take the one perfect matching the support graph has
    rng = np.random.default_rng(n * degree)
    left = np.tile(np.arange(n), degree)
    right = np.tile(rng.permutation(n), degree)
    order = rng.permutation(n * degree)
    left, right = left[order], right[order]
    calls = _count_matchings(monkeypatch)
    colors = color_regular_bipartite(left, right, n, n, degree)
    assert calls == []
    assert np.array_equal(colors, coo_round_coloring(left, right, n, n, degree))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_regular_coloring_matches_the_coo_rounds_on_larger_graphs(data):
    n = data.draw(st.integers(1, 40), label="nodes per side")
    degree = data.draw(st.integers(1, 12), label="degree")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    # a union of random perfect matchings, with parallel edges at small n
    right = np.concatenate([rng.permutation(n) for _ in range(degree)])
    left = np.tile(np.arange(n), degree)
    order = rng.permutation(n * degree)
    left, right = left[order], right[order]
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = _count_matchings(monkeypatch)
        colors = color_regular_bipartite(left, right, n, n, degree)
    # the last round's support graph is a perfect matching, found unasked
    assert len(calls) <= degree - 1
    _assert_proper(colors, (left, right))
    assert np.array_equal(colors, coo_round_coloring(left, right, n, n, degree))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_column_coloring_respects_the_short_column(data):
    q = data.draw(st.integers(2, 6), label="columns")
    mt = data.draw(st.integers(1, 8), label="full height")
    sizes = [mt] * (q - 1) + [data.draw(st.integers(1, mt), label="short height")]
    n = sum(sizes)
    col = np.minimum(np.arange(n) // mt, q - 1)
    dest = np.asarray(data.draw(st.permutations(range(n))))
    colors = _color_edges(col, col[dest], sizes)
    heights = np.asarray(sizes)
    assert (colors >= 0).all()
    assert (colors < np.minimum(heights[col], heights[col[dest]])).all()
    _assert_proper(colors, (col, col[dest]))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_three_stage_routes_within_columns_rows_columns(data):
    q = data.draw(st.integers(1, 6), label="columns")
    mt = data.draw(st.integers(1, 8), label="full height")
    sizes = [mt] * (q - 1) + [data.draw(st.integers(1, mt), label="short height")]
    n = sum(sizes)
    cells = np.arange(n)
    col = cells // mt
    dest = np.asarray(data.draw(st.permutations(range(n))))
    first, middle, last = three_stage(dest, col, sizes)
    assert np.array_equal(last[middle[first]], dest)
    # every cell reached is a real one: each table is a permutation of [0, n)
    for table in (first, middle, last):
        assert np.array_equal(np.sort(table), cells)
    assert np.array_equal(first // mt, col)       # within its column
    assert np.array_equal(middle % mt, cells % mt)  # along its row
    assert np.array_equal(last // mt, col)        # within the column it reached


@pytest.mark.parametrize("n, digest", [
    (1000, "0e704e4c506270b6c1c9762e6d5a412846cda6f91269ffdff031be67f42bcfa8"),
    (300, "dba6ebe8cbff17b063264b8b5ce132a24fe70fc4aa7e6c3a3c156a5c9d09951c"),
    (100, "11b6d814fb8ea9576307c4fd0f2f902b4c973eb938b400da48ccf808f3b133f3"),
], ids=["n1000", "n300", "n100"])
def test_block_factors_are_pinned(n, digest):
    # any change to a factor, the factor order or a factor's window changes
    # the digest of the factor tables followed by each one's window index
    g = random_even(n, np.random.default_rng(n))
    factors, windows = block_factor(g, 49)
    window_sets = [set(w) for w in windows]
    index = [next(i for i, w in enumerate(window_sets) if set(f.support().tolist()) <= w)
             for f in factors]
    h = hashlib.sha256()
    for f in factors:
        h.update(f.table.tobytes())
    h.update(np.asarray(index, dtype=np.int64).tobytes())
    assert h.hexdigest() == digest


def _int64_digest(h, values):
    h.update(np.asarray(values, dtype=np.int64).tobytes())


@pytest.mark.parametrize("n, windows_digest, layout_digest", [
    (1000, "c9fd759f6582a36cd16fdbaa616a8718c09ba0604fa6db628ec6bcce471de401",
     "9da0a4be201c1b0f33a644f3f7f889375493f1e2da85039fb236f6864ea957e7"),
    (300, "4305aad5eb45b9ee38a085d9bc3922d8fa2d62eb5f58bd4a48eddcf66da34bcd",
     "82f365736e706f06e263e2bc927e6cc30fcc08601be8a7079dbf19a007416f2a"),
    (100, "8015d14807e6280a88d64416e818bf95c168a796c525b4a7871b0635f7f7b2f7",
     "a6a08c49f384aafa4a9220a298c377b7ea651726c1a79aa346f561399738d894"),
], ids=["n1000", "n300", "n100"])
def test_window_family_and_layout_are_pinned(n, windows_digest, layout_digest):
    # digests of the int64 values, so a list or an array of the same
    # numbers gives the same digest; part lengths keep the parts apart
    h = hashlib.sha256()
    _int64_digest(h, window_family(n, 49))
    assert h.hexdigest() == windows_digest
    q, mt, sizes, parts = _layout(n, 49)
    h = hashlib.sha256()
    _int64_digest(h, [q, mt, len(parts)])
    _int64_digest(h, sizes)
    for cells in parts:
        _int64_digest(h, [len(cells)])
        _int64_digest(h, cells)
    assert h.hexdigest() == layout_digest


def test_block_factor_refuses_a_factor_outside_its_window(monkeypatch):
    # hand each factor the next part's window: its support leaves the window
    from altgen import blocks
    windows = blocks.window_family
    monkeypatch.setattr(blocks, "window_family",
                        lambda n, m: (lambda w: w[1:] + w[:1])(windows(n, m)))
    g = random_even(1000, np.random.default_rng(1000))
    with pytest.raises(VerificationError, match="factor support leaves its window"):
        block_factor(g, 49)


def test_block_factor_refuses_an_odd_factor(monkeypatch):
    # with no parity swaps the factors of a random even permutation are odd
    from altgen import blocks
    monkeypatch.setattr(blocks, "_odd_parts", lambda table, parts: [])
    g = random_even(1000, np.random.default_rng(1000))
    with pytest.raises(VerificationError, match="factor parity fix failed"):
        block_factor(g, 49)


def _odd_parts_by_unique(table, parts):
    """The parts on which `table` is odd, one np.unique count of cycles per part."""
    labels = cycle_labels(table)[1]
    return [cells for cells in parts
            if (len(cells) - len(np.unique(labels[cells]))) % 2]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_odd_parts_match_a_per_part_count(data):
    m = data.draw(st.integers(5, 14), label="window size")
    n = data.draw(st.integers(m + 1, m * m // 2), label="points")
    try:
        q, _, _, parts = _layout(n, m)
    except ValueError:
        assume(False)
    # a table that keeps every column, or every row group, as a set
    parts = parts[:q] if data.draw(st.booleans(), label="columns") else parts[q:]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    table = np.arange(n)
    for cells in parts:
        table[cells] = rng.permutation(cells)
    assert _odd_parts(table, parts) == _odd_parts_by_unique(table, parts)


def test_odd_parts_refuse_a_cycle_that_crosses_parts():
    q, mt, _, parts = _layout(100, 49)
    table = np.arange(100)
    table[[0, 1, mt]] = [1, mt, 0]   # a 3-cycle through columns 0 and 1
    with pytest.raises(VerificationError, match="a cycle leaves its part"):
        _odd_parts(table, parts[:q])


def test_multiply_back_check_survives_optimize():
    # python -O strips assert statements; the multiply-back check must still raise
    script = textwrap.dedent("""
        import sys
        from altgen.blocks import _check_block_product
        from altgen.perms import Permutation
        g = Permutation.from_cycles(5, [(0, 1, 2)])
        try:
            _check_block_product([Permutation.from_cycles(5, [(0, 2, 1)])], g)
        except AssertionError:
            sys.exit(0 if sys.flags.optimize else 3)
        sys.exit(1)
    """)
    src = str(Path(altgen.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    with pytest.raises(AssertionError):
        _check_block_product([Permutation.identity(5)],
                             Permutation.from_cycles(5, [(0, 1, 2)]))
