import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csr_array, issparse, vstack
from scipy.sparse.csgraph import connected_components

from altgen import graphs, spectral
from altgen.embeddings import GeneratingSet, build_SN
from altgen.geometry import CubeGeometry
from altgen.errors import VerificationError
from altgen.graphs import (ActionGraph, AxisBlockGraph, EdgeGraph, cayley_graph,
                           read_edge_list, schreier_graph, write_edge_list)
from altgen.perms import Permutation
from altgen.spectral import (_power_second_eigenpair, cheeger_sweep, gap_upper_bound,
                             kazhdan_upper, spectral_gap)
from line_tables import line_and_coord, line_table
from oracles import exact_conductance, lanczos_ten_pairs, reference_edge_list_text


def stacked_operator(g):
    """The one CSR operator that an AxisBlockGraph's row blocks hold."""
    return vstack([csr_array((data, indices, indptr), shape=(len(indptr) - 1, g.n))
                   for _, indptr, indices, data in g._blocks], format="csr")


def cyclic_graph(n, shifts=(1,)):
    return ActionGraph([Permutation(np.arange(n) * 0 + (np.arange(n) + s) % n)
                        for s in shifts])


def test_complete_graph_gap_analytic():
    for m in (4, 6, 9):
        edges = [(i, j) for i in range(m) for j in range(i + 1, m)]
        rep = spectral_gap(EdgeGraph(m, edges), method="dense")
        assert abs(rep.gap - m / (m - 1)) < 1e-12


def test_disconnected_zero_gap():
    g = EdgeGraph(4, [(0, 1), (2, 3)])
    assert abs(spectral_gap(g, method="dense").gap) < 1e-12
    assert not g.is_connected()


# -- dense adjacency and connectivity, both read off the edge counts -----------


def matvec_columns(graph):
    eye = np.eye(graph.n)
    T = np.zeros((graph.n, graph.n))
    for i in range(graph.n):
        T[:, i] = graph.matvec(eye[:, i])
    return T


def test_dense_adjacency_matches_the_matvec_columns():
    alt5 = cayley_graph([Permutation.from_cycles(5, [(0, 1, 2)]),
                         Permutation.from_cycles(5, [(0, 1, 2, 3, 4)])])
    # a loop, a double and a triple edge; every vertex has degree 4
    multi = EdgeGraph(4, [(0, 0), (0, 1), (0, 1), (1, 2), (1, 3), (2, 3), (2, 3), (2, 3)])
    for graph in (schreier_graph(build_SN(1, 2)), alt5, multi):
        assert np.array_equal(graph.to_dense(), matvec_columns(graph))


def one_csr_connected(n, perms):
    """Connectivity from one CSR of every arc x -> p(x), built from the tables."""
    src = np.tile(np.arange(n), len(perms))
    dst = np.concatenate([p.table for p in perms])
    adj = csr_array((np.ones(len(src), dtype=bool), (src, dst)), shape=(n, n))
    return connected_components(adj, directed=False)[0] == 1


def test_is_connected_agrees_with_one_csr():
    rng = np.random.default_rng(21)
    answers = set()
    for _ in range(40):
        # each permutation maps 1-3 blocks of points onto themselves
        sizes = rng.integers(1, 12, size=rng.integers(1, 4))
        starts = np.cumsum(sizes) - sizes
        n = int(sizes.sum())
        perms = [Permutation(np.concatenate([s + rng.permutation(k)
                                             for s, k in zip(starts, sizes)]))
                 for _ in range(rng.integers(1, 3))]
        expect = one_csr_connected(n, perms)
        edges = [(x, int(p.table[x])) for p in perms for x in range(n)]
        assert ActionGraph(perms).is_connected() == expect
        assert EdgeGraph(n, edges).is_connected() == expect
        answers.add(expect)
    assert answers == {True, False}

    sn = build_SN(1, 3)
    assert AxisBlockGraph(sn).is_connected()
    assert one_csr_connected(sn.model.N, [sn.materialize(i) for i in range(len(sn))])
    # an axis-block stand-in whose line actions are all the identity
    model = CubeGeometry(1, 2)
    m, K = model.lines_per_axis, model.K
    still = GeneratingSet(model, ["e"], ["e"], [(np.zeros(m, dtype=np.int64),
                                                 np.arange(K)[None])])
    assert not AxisBlockGraph(still).is_connected()
    assert not one_csr_connected(model.N, [still.materialize(i) for i in range(len(still))])


def test_connectivity_merges_one_chunk_at_a_time():
    # one CSR over all five axis chunks of S_N(1, 5) peaks near 20 MB here;
    # merging chunk by chunk, near 6 MB
    graph = AxisBlockGraph(build_SN(1, 5))
    tracemalloc.start()
    try:
        connected = graph.is_connected()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert connected
    assert peak < 10 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_dense_vs_power_agreement():
    rng = np.random.default_rng(0)
    graphs = [ActionGraph([Permutation.random(n, rng) for _ in range(k)])
              for n, k in [(100, 2), (500, 3), (1500, 2)]]
    graphs.append(cyclic_graph(101))
    for g in graphs:
        r_dense = spectral_gap(g, method="dense")
        r_power = spectral_gap(g, method="power", seed=3)
        assert abs(r_dense.gap - r_power.gap) < 1e-6


def test_lanczos_agrees_with_dense():
    rng = np.random.default_rng(1)
    g = ActionGraph([Permutation.random(800, rng) for _ in range(3)])
    r_dense = spectral_gap(g, method="dense")
    r_l = spectral_gap(g, method="lanczos", seed=5)
    assert abs(r_dense.gap - r_l.gap) < 1e-8


@pytest.mark.parametrize("d", [3, 4])
def test_lanczos_on_the_axis_operator_agrees_with_dense(d):
    sn = build_SN(1, d)
    dense = spectral_gap(schreier_graph(sn), method="dense").gap
    assert abs(spectral_gap(AxisBlockGraph(sn), method="lanczos").gap - dense) < 1e-10


def test_one_pair_lanczos_finds_the_ten_pair_second_eigenvalue():
    # S_N(1, 5)'s second eigenvalue sits in a cluster; converging one pair
    # must still find the one the ten-pair solver reads second
    graph = AxisBlockGraph(build_SN(1, 5))
    reference = lanczos_ten_pairs(graph, seed=0)
    for seed in range(3):
        assert abs(spectral_gap(graph, method="lanczos", seed=seed).second_eigenvalue
                   - reference) < 1e-10


def test_lanczos_agrees_with_dense_on_tiny_graphs():
    # repeated eigenvalues, bipartite spectra and Lanczos breakdown inside
    # the cut's short run; the cut is floored wherever fewer than two Ritz
    # values exist
    for n in range(3, 10):
        cycle = EdgeGraph(n, [(i, (i + 1) % n) for i in range(n)])
        complete = EdgeGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
        for g in (cycle, complete):
            dense = spectral_gap(g, method="dense").gap
            assert abs(spectral_gap(g, method="lanczos").gap - dense) < 1e-10
    with pytest.raises(ValueError, match="at least 3 vertices"):
        spectral_gap(EdgeGraph(2, [(0, 1)]), method="lanczos")


@pytest.mark.parametrize("d", [3, 4])
def test_ritz_cut_lies_at_or_below_the_third_eigenvalue(d):
    graph = AxisBlockGraph(build_SN(1, d))
    third = np.linalg.eigvalsh(graph.to_dense())[-3]
    for seed in range(3):
        v = np.random.default_rng(seed).standard_normal(graph.n)
        assert spectral._ritz_cut(graph.matvec, v - v.mean()) <= third + 1e-12


def test_lanczos_iterations_count_every_matvec():
    graph = AxisBlockGraph(build_SN(1, 5))
    calls = [0]
    matvec = graph.matvec

    def counted(v):
        calls[0] += 1
        return matvec(v)

    graph.matvec = counted
    report = spectral_gap(graph, method="lanczos", seed=0)
    assert calls[0] == report.iterations > spectral.RITZ_STEPS


def test_a_cut_above_the_second_eigenvalue_fails_the_lanczos_guard(monkeypatch):
    # a cut at or above lambda_2 damps it, and ARPACK returns another pair
    graph = AxisBlockGraph(build_SN(1, 3))
    second = np.linalg.eigvalsh(graph.to_dense())[-2]
    monkeypatch.setattr(spectral, "_ritz_cut", lambda matvec, v: second + 1e-3)
    with pytest.raises(VerificationError, match="not above the cut"):
        spectral_gap(graph, method="lanczos", seed=0)


def test_a_perturbed_ritz_vector_fails_the_residual_guard(monkeypatch):
    import scipy.sparse.linalg

    eigsh = scipy.sparse.linalg.eigsh

    def perturbed(*args, **kwargs):
        vals, vecs = eigsh(*args, **kwargs)
        noise = np.random.default_rng(0).standard_normal(vecs.shape)
        vecs = vecs + 1e-6 * (noise - noise.mean())
        return vals, vecs / np.linalg.norm(vecs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", perturbed)
    graph = AxisBlockGraph(build_SN(1, 3))
    with pytest.raises(VerificationError, match="residual"):
        spectral_gap(graph, method="lanczos", seed=0)


@pytest.mark.parametrize("form", ["action", "axis-block"])
def test_gap_upper_bound_is_the_exact_rayleigh_bound(form):
    # at N = 49: the bound from the dense T's integer counts and the same
    # rounded eigenvector, with w = N u - S scaled to integers
    sn = build_SN(1, 2)
    graph = schreier_graph(sn) if form == "action" else AxisBlockGraph(sn)
    T = graph.to_dense()
    vals, vecs = np.linalg.eigh(T)
    vec = vecs[:, -2]
    u = np.rint(vec * 2**15 / np.abs(vec).max()).astype(np.int64)
    w = (graph.n * u - u.sum()).astype(object)
    counts = np.rint(T * graph.degree).astype(np.int64).astype(object)
    expect = 1 - Fraction(int(w @ counts @ w), graph.degree * int(w @ w))
    assert gap_upper_bound(graph, vec) == expect
    rep = spectral_gap(graph, method="dense")
    assert rep.gap_upper == expect
    assert 1 - vals[-2] <= expect and float(expect) - rep.gap < 1e-8


def test_gap_upper_bound_refuses_an_int64_overflow():
    graph = EdgeGraph(3, [(0, 1), (1, 2), (2, 0)])
    graph.n = 2**33     # only the size check reads it
    with pytest.raises(VerificationError, match="overflow"):
        gap_upper_bound(graph, np.array([1.0, 0.0, -1.0]))


def test_gap_invariant_under_relabeling():
    rng = np.random.default_rng(2)
    perms = [Permutation.random(60, rng) for _ in range(3)]
    g = ActionGraph(perms)
    base = spectral_gap(g, method="dense").gap
    for _ in range(3):
        u = Permutation.random(60, rng)
        relabeled = ActionGraph([u * p * u.inverse() for p in perms])
        assert abs(spectral_gap(relabeled, method="dense").gap - base) < 1e-9


def test_cheeger_sandwich_holds():
    rng = np.random.default_rng(4)
    for _ in range(5):
        g = ActionGraph([Permutation.random(40, rng) for _ in range(2)])
        rep = spectral_gap(g, method="dense")
        assert rep.gap / 2 <= rep.cheeger_upper + 1e-12


def test_exact_conductance_between_cheeger_bounds():
    # lam/2 <= h <= sqrt(2 lam) on small explicit graphs
    graphs = [
        EdgeGraph(6, [(i, (i + 1) % 6) for i in range(6)]),
        EdgeGraph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)]),
        EdgeGraph(8, [(i, (i + 1) % 8) for i in range(8)]
                  + [(i, (i + 4) % 8) for i in range(4)]),
    ]
    for g in graphs:
        rep = spectral_gap(g, method="dense")
        h = exact_conductance(g)
        lam = rep.gap
        assert lam / 2 <= h + 1e-12
        assert h <= math.sqrt(2 * lam) + 1e-12
        assert h <= rep.cheeger_upper + 1e-12


def test_cayley_graph_sizes():
    z5 = cayley_graph([Permutation.from_cycles(5, [tuple(range(5))])])
    assert z5.n == 5 and z5.degree == 2 and z5.is_connected()
    a = Permutation.from_cycles(5, [(0, 1, 2)])
    b = Permutation.from_cycles(5, [(0, 1, 2, 3, 4)])
    alt5 = cayley_graph([a, b])
    assert alt5.n == 60 and alt5.is_connected()
    from altgen.schreier_sims import group_order
    assert alt5.n == group_order([a, b])


def test_cayley_limit(monkeypatch):
    monkeypatch.setattr(graphs, "CAYLEY_LIMIT", 1000)
    a = Permutation.from_cycles(9, [(0, 1, 2)])
    b = Permutation.from_cycles(9, [tuple(range(9))])
    with pytest.raises(ValueError, match="limit"):
        cayley_graph([a, b])


def test_kazhdan_full_set_sqrt2():
    # S = G for a few groups of order <= 60: the regular graph is complete
    for elems in ([Permutation(np.array([(i + k) % 5 for i in range(5)]))
                   for k in range(5)],):
        g = ActionGraph(elems)
        rep = spectral_gap(g, method="dense")
        assert abs(rep.gap - 1.0) < 1e-12
        assert abs(rep.kazhdan_lower - math.sqrt(2)) < 1e-12


def test_kazhdan_bracket_z3_collapses():
    z3 = ActionGraph([Permutation(np.array([1, 2, 0])),
                      Permutation(np.array([2, 0, 1]))])
    # 2x2 character oracle: the nontrivial characters move by |w - 1| = sqrt(3)
    rep = spectral_gap(z3, method="dense")
    lower, upper = rep.kazhdan_lower, rep.kazhdan_upper
    assert abs(lower - math.sqrt(3)) < 1e-9
    assert abs(upper - math.sqrt(3)) < 1e-9
    assert lower <= upper + 1e-12


def test_bracket_ordering_random():
    rng = np.random.default_rng(5)
    for _ in range(5):
        g = ActionGraph([Permutation.random(30, rng) for _ in range(3)])
        rep = spectral_gap(g, method="dense")
        lower, upper = rep.kazhdan_lower, rep.kazhdan_upper
        assert lower <= upper + 1e-9


def test_schreier_small_and_axis_block_agree():
    sn = build_SN(1, 2)
    small = schreier_graph(sn)           # 49 points: action form
    big = AxisBlockGraph(sn)             # same graph, implicit form
    v = np.random.default_rng(6).standard_normal(49)
    assert np.allclose(small.matvec(v), big.matvec(v), atol=1e-12)
    assert small.is_connected() and big.is_connected()
    r1 = spectral_gap(small, method="dense")
    r2 = spectral_gap(big, method="dense")
    assert abs(r1.gap - r2.gap) < 1e-10


def test_axis_blocks_are_exact_edge_counts():
    # multiplicities counted from the materialized generators and inverses,
    # summed over the axes; compared as counts / degree, since (c / D) * D
    # need not round back to c
    sn = build_SN(1, 3)
    g = AxisBlockGraph(sn)
    geo = sn.model
    assert g.degree == 2 * len(sn)
    counts = np.zeros((geo.N, geo.N), dtype=np.int64)
    for axis in (1, 2, 3):
        lid, _ = line_and_coord(geo, axis)
        for i, (_, gen_axis, _) in enumerate(sn.describe()):
            if gen_axis == axis:
                p = sn.materialize(i)
                for t in (p.table, p.inverse().table):
                    assert np.array_equal(lid[t], lid)
                    np.add.at(counts, (np.arange(geo.N), t), 1)
    assert np.array_equal(stacked_operator(g).toarray(), counts / g.degree)


def test_matvec_doubly_stochastic():
    sn = build_SN(1, 2)
    g = AxisBlockGraph(sn)
    ones = np.ones(g.n)
    assert np.allclose(g.matvec(ones), ones)
    v = np.random.default_rng(7).standard_normal(g.n)
    assert abs(g.matvec(v).sum() - v.sum()) < 1e-8


def test_edge_list_roundtrip(tmp_path):
    z7 = cyclic_graph(7)
    path = tmp_path / "edges.txt"
    write_edge_list(z7, path)
    back = read_edge_list(path)
    assert back.n == 7
    r1 = spectral_gap(z7, method="dense")
    r2 = spectral_gap(back, method="dense")
    assert abs(r1.gap - r2.gap) < 1e-12


def test_edge_list_without_header_takes_n_from_the_largest_vertex(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("0 1\n1 2\n\n2 3\n3 0\n")
    back = read_edge_list(path)
    assert (back.n, back.degree) == (4, 2)
    assert np.array_equal(back.to_dense(), cyclic_graph(4).to_dense())


def test_edge_list_text_matches_the_per_line_writer(tmp_path):
    # loops and parallel edges from explicit pairs, and from an involution
    # with fixed points; the action graph writes more edges than one slice
    n = 20000
    rng = np.random.default_rng(4)
    swap = np.arange(n)
    swap[:n // 2] = swap[:n // 2] ^ 1
    perms = [Permutation(rng.permutation(n)) for _ in range(3)] + [Permutation(swap)]
    pairs = EdgeGraph(4, [(0, 1), (0, 1), (2, 3), (3, 2), (0, 0), (1, 1), (2, 2), (3, 3)])
    for graph in (pairs, ActionGraph(perms), AxisBlockGraph(build_SN(1, 2))):
        path = tmp_path / "edges.txt"
        write_edge_list(graph, path)
        assert path.read_text() == reference_edge_list_text(graph)


@pytest.mark.parametrize("form", ["action", "axis-block"])
def test_edge_list_rebuilds_the_schreier_graph(tmp_path, form):
    sn = build_SN(1, 2)
    graph = schreier_graph(sn) if form == "action" else AxisBlockGraph(sn)
    assert isinstance(graph, ActionGraph if form == "action" else AxisBlockGraph)
    path = tmp_path / "edges.txt"
    write_edge_list(graph, path)
    back = read_edge_list(path)
    assert (back.n, back.degree) == (49, graph.degree)
    # entries are multiples of 1/degree; the axis-block form adds its axes in
    # floating point, so equal counts may differ in the last bit
    assert np.allclose(back.to_dense(), graph.to_dense(), rtol=0, atol=1e-12)


def test_action_matvec_matches_the_table_loop():
    # reference: the per-table loop, summing the gathers in table order
    graph = schreier_graph(build_SN(1, 2))
    assert isinstance(graph, ActionGraph) and (graph.n, graph.degree) == (49, 144)

    def loop(v):
        out = np.zeros_like(v, dtype=float)
        for t in graph._tables:
            out += v[t]
        return out / graph.degree

    rng = np.random.default_rng(5)
    vectors = [rng.standard_normal(graph.n) for _ in range(200)]
    for k in range(1, graph.n):
        ind = np.zeros(graph.n)
        ind[rng.permutation(graph.n)[:k]] = 1.0
        vectors.append(ind)
    for v in vectors:
        assert np.array_equal(graph.matvec(v), loop(v))


def brute_sweep(n, degree, pairs, vec):
    """Minimum conductance over the prefixes of the stable ranking, from pairs."""
    order = np.argsort(vec, kind="stable")
    best = None
    for k in range(1, n):
        inside = set(order[:k].tolist())
        within = sum(1 for x, y in pairs if x in inside and y in inside)
        phi = Fraction(k * degree - within, degree * min(k, n - k))
        best = phi if best is None else min(best, phi)
    return best


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_exact_sweep_matches_brute_force(data):
    n = data.draw(st.integers(2, 9), label="vertices")
    perms = [data.draw(st.permutations(range(n)), label="permutation")
             for _ in range(data.draw(st.integers(1, 3), label="generators"))]
    # small integer entries, so the ranking has ties
    vec = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                             label="vector"), dtype=float)
    # both forms have the directed pairs (x, p(x)) and (p(x), x)
    edges = [(x, p[x]) for p in perms for x in range(n)]
    pairs = edges + [(y, x) for x, y in edges]
    if data.draw(st.booleans(), label="edge list"):
        graph = EdgeGraph(n, edges)
    else:
        graph = ActionGraph([Permutation(np.array(p)) for p in perms])
    assert graph.degree == 2 * len(perms)
    assert cheeger_sweep(graph, vec) == brute_sweep(n, graph.degree, pairs, vec)


def float_sweep(graph, vec, max_cuts=256):
    """The float sweep the exact one replaced: one matvec per cut, at most
    max_cuts evenly spaced cuts."""
    n = graph.n
    order = np.argsort(vec, kind="stable")
    if n - 1 <= max_cuts:
        cut_sizes = range(1, n)
    else:
        cut_sizes = sorted({int(x) for x in np.linspace(1, n - 1, max_cuts)})
    best = np.inf
    for k in cut_sizes:
        ind = np.zeros(n)
        ind[order[:k]] = 1.0
        inside = float(ind @ graph.matvec(ind))
        best = min(best, (k - inside) / min(k, n - k))
    return float(best)


def test_exact_sweep_never_exceeds_the_float_sweep():
    # the graphs of acceptance criterion 8, each swept along a random vector
    # smoothed by lazy walk steps; 1e-12 covers the float sweep's rounding
    rng = np.random.default_rng(3)
    suite = [ActionGraph([Permutation.random(n, rng) for _ in range(k)])
             for n, k in [(120, 2), (600, 3), (2000, 2)]]
    suite.append(schreier_graph(build_SN(1, 2)))
    suite.append(schreier_graph(build_SN(1, 6)))
    alt5 = cayley_graph([Permutation.from_cycles(5, [(0, 1, 2)]),
                         Permutation.from_cycles(5, [(0, 1, 2, 3, 4)])])
    suite.append(ActionGraph([Permutation(np.array([alt5.elements.index(e * f)
                                                    for e in alt5.elements]))
                              for f in alt5.elements]))
    for n in (3, 12, 30):
        suite.append(ActionGraph([Permutation(np.array([(i + k) % n for i in range(n)]))
                                  for k in range(n)]))
    for g in suite:
        vec = rng.standard_normal(g.n)
        for _ in range(30):
            vec = 0.5 * (vec + g.matvec(vec))
            vec -= vec.mean()
        exact = cheeger_sweep(g, vec)
        assert 0 <= exact and float(exact) <= float_sweep(g, vec) + 1e-12


def test_kazhdan_upper_matches_materialized_generators():
    def norms(vec, tables):
        v = vec - vec.mean()
        v = v / np.linalg.norm(v)
        return [np.linalg.norm(v[t] - v) for t in tables]

    rng = np.random.default_rng(9)
    sn = build_SN(1, 3)
    perms = [Permutation.random(50, rng) for _ in range(3)]
    cases = [(AxisBlockGraph(sn), [sn.materialize(i).table for i in range(len(sn))]),
             (ActionGraph(perms), [p.table for p in perms])]
    for graph, tables in cases:
        for _ in range(3):
            vec = rng.standard_normal(graph.n)
            ref = norms(vec, tables)
            v = vec - vec.mean()
            v = v / np.linalg.norm(v)
            assert list(graph.displacement_norms(v)) == ref
            assert kazhdan_upper(graph, vec) == max(ref)


def test_tampered_axis_block_fails_the_count_check():
    sn = build_SN(1, 3)
    vec = np.random.default_rng(8).standard_normal(sn.model.N)
    g = AxisBlockGraph(sn)
    assert cheeger_sweep(g, vec) == cheeger_sweep(ActionGraph(sn.permutations()), vec)
    clean = stacked_operator(g)
    off_grid = clean.copy()
    off_grid.data[0] = np.nextafter(off_grid.data[0], 1.0)   # one ulp off c / D
    g._blocks = graphs._row_blocks(off_grid, len(g._blocks))
    with pytest.raises(VerificationError, match="integer edge counts"):
        cheeger_sweep(g, vec)
    x, y = np.argwhere(clean.toarray() == 0)[0]
    # one edge too many
    g._blocks = graphs._row_blocks(
        clean + csr_array(([1 / g.degree], ([x], [y])), shape=clean.shape), len(g._blocks))
    with pytest.raises(VerificationError, match="sum to"):
        cheeger_sweep(g, vec)


def test_oversized_axis_blocks_are_refused_before_allocating():
    # the S_N(3, 2) shape (2 axes of 511 lines, K = 511, degree 96) through a
    # shape-only set: its counts and a CSR with every (axis, line, row,
    # column) entry would need about 3.3 GB
    labels = [f"g{k}" for k in range(24)]
    shape_only = GeneratingSet(CubeGeometry(3, 2), labels, labels)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"about 3335\d{6} bytes, over the "
                                             rf"budget of {graphs.AXIS_BLOCK_BUDGET} bytes"):
            AxisBlockGraph(shape_only)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # the S_N(2, 3) shape (degree 216, about 583 MB by the estimate) fits the
    # budget, so a shape-only set gets as far as needing line actions
    labels = [f"g{k}" for k in range(108)]
    with pytest.raises(ValueError, match="needs line actions"):
        AxisBlockGraph(GeneratingSet(CubeGeometry(2, 3), labels, labels))


# -- axis blocks on cube views, against the line-point tables ------------------


def reference_blocks(genset):
    """Each axis's block, counted from the set's actions, every one of which
    acts on every axis."""
    geo = genset.model
    lines = np.arange(geo.lines_per_axis)[:, None]
    c = np.zeros((geo.lines_per_axis, geo.K, geo.K), dtype=np.int64)
    for vid, tables in genset.actions:
        forward = tables[vid]
        for t in (forward, np.argsort(forward, axis=1)):   # generator, inverse
            np.add.at(c, (lines, np.arange(geo.K), t), 1)
    return {axis: c / (2 * len(genset)) for axis in range(1, geo.d + 1)}


def reference_operator(geo, blocks, degree):
    """T over the points: each block's counts placed through the line tables,
    summed over the axes as integers, then divided by the degree."""
    chunks = list(reference_edge_counts(geo, blocks, degree))
    src, dst, count = (np.concatenate(part) for part in zip(*chunks))
    T = csr_array((count.astype(np.int64), (src, dst)), shape=(geo.N, geo.N))
    T.sum_duplicates()
    T.data = T.data / degree
    return T


def reference_matvec(geo, blocks, v):
    out = np.zeros(geo.N)
    for axis in sorted(blocks):
        lp = line_table(geo, axis)
        out[lp] += np.einsum("mab,mb->ma", blocks[axis], v[lp])
    return out


def reference_edge_counts(geo, blocks, degree):
    for axis, block in blocks.items():
        line, a, b = np.nonzero(block)
        lp = line_table(geo, axis)
        yield lp[line, a], lp[line, b], np.rint(block[line, a, b] * degree)


def merged_triples(chunks):
    """(src, dst, count) rows in sorted order, the counts of a repeated pair
    summed: the axes' arcs meet only on the diagonal."""
    rows = np.concatenate([np.stack([src, dst, np.broadcast_to(count, src.shape)], axis=1)
                           for src, dst, count in chunks]).astype(np.int64)
    pairs, where = np.unique(rows[:, :2], axis=0, return_inverse=True)
    return np.column_stack([pairs, np.bincount(where.ravel(), weights=rows[:, 2])])


def assert_matches_line_tables(genset, seed):
    geo = genset.model
    g = AxisBlockGraph(genset)
    blocks = reference_blocks(genset)
    T = reference_operator(geo, blocks, g.degree)
    stacked = stacked_operator(g)
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(stacked, part), getattr(T, part))
    rng = np.random.default_rng(seed)
    vectors = [rng.standard_normal(geo.N) for _ in range(5)]
    vectors.append((rng.random(geo.N) < 0.3).astype(float))
    for v in vectors:
        # the per-axis sums add in another order: at most d K terms, each
        # at most max |v|, so each output is within d K eps max |v|
        tol = geo.d * geo.K * np.finfo(float).eps * np.abs(v).max()
        assert np.allclose(g.matvec(v), reference_matvec(geo, blocks, v), rtol=0, atol=tol)
        assert np.array_equal(g.matvec(v), T @ v)
    v = vectors[0]
    perms = [genset.materialize(i).table for i in range(len(genset))]
    assert list(g.displacement_norms(v)) == [np.linalg.norm(v[t] - v) for t in perms]
    assert np.array_equal(merged_triples(g.edge_counts()),
                          merged_triples(reference_edge_counts(geo, blocks, g.degree)))


@pytest.mark.parametrize("s, d", [(1, 3), (1, 4), (2, 2)])
def test_axis_block_graph_matches_the_line_tables(s, d):
    assert_matches_line_tables(build_SN(s, d), seed=10 * s + d)


def test_row_blocks_give_the_one_operator_bit_for_bit(monkeypatch, tmp_path):
    # S_N(1, 5) split over 1, 2 and 3 workers against the single CSR: every
    # product, norm, edge chunk, exported byte and spectral report agrees
    sn = build_SN(1, 5)
    geo = sn.model
    T = reference_operator(geo, reference_blocks(sn), 2 * len(sn))
    rng = np.random.default_rng(51)
    vectors = [rng.standard_normal(geo.N) for _ in range(3)]
    vectors.append((rng.random(geo.N) < 0.3).astype(float))
    perms = [sn.materialize(i).table for i in range(len(sn))]
    norms = [[np.linalg.norm(v[t] - v) for t in perms] for v in vectors[:2]]
    seen = {}
    for workers in (1, 2, 3):
        monkeypatch.setattr(graphs, "_cpu_count", lambda: workers)
        g = AxisBlockGraph(sn)
        assert [lo for lo, *_ in g._blocks] == [geo.N * k // workers for k in range(workers)]
        for v in vectors:
            assert np.array_equal(g.matvec(v), T @ v)
        with pytest.raises(ValueError, match="shape"):   # never read past v
            g.matvec(np.ones(geo.N + 1))
        for v, ref in zip(vectors, norms):
            assert list(g.displacement_norms(v)) == ref
        chunks = list(g.edge_counts())
        src = np.concatenate([c[0] for c in chunks])
        assert (np.diff(src) >= 0).all()        # ascending row ranges
        triples = merged_triples(chunks)
        path = tmp_path / "edges.txt"
        write_edge_list(g, path)
        text = path.read_bytes()
        path.unlink()
        rep = spectral_gap(g, method="lanczos", seed=3)
        got = (triples.tobytes(), hash(text), rep.gap, rep.iterations, rep.gap_upper,
               rep.cheeger_exact, rep.kazhdan_upper)
        assert got == seen.setdefault("one worker", got)


def held_arrays(obj):
    """Every numpy array in obj, its lists and tuples and its sparse arrays."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif issparse(obj):
        yield from (obj.indptr, obj.indices, obj.data)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from held_arrays(item)


def test_row_blocks_hold_the_operator_once(monkeypatch):
    # the blocks' indices and data are views of one compact CSR, and nothing
    # else the graph holds (beyond its set and cube) owns operator memory
    monkeypatch.setattr(graphs, "_cpu_count", lambda: 2)
    g = AxisBlockGraph(build_SN(1, 5))
    owners = {}
    for key, value in vars(g).items():
        if key in ("model", "genset"):
            continue
        for array in held_arrays(value):
            while isinstance(array.base, np.ndarray):
                array = array.base
            owners[id(array)] = array
    nnz = sum(len(data) for *_, data in g._blocks)
    assert nnz == stacked_operator(g).nnz
    indptrs = sum(indptr.nbytes for _, indptr, _, _ in g._blocks)
    assert sum(a.nbytes for a in owners.values()) == nnz * (8 + 4) + indptrs


def reference_power(graph, tol, seed, budget):
    """The power loop that formed each iterate's lazy product twice."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(graph.n)
    v = v - v.mean()
    v /= np.linalg.norm(v)
    mu_prev = None
    for it in range(1, budget + 1):
        w = 0.5 * (v + graph.matvec(v))
        w = w - w.mean()
        w /= np.linalg.norm(w)
        mu = float(w @ (0.5 * (w + graph.matvec(w))))
        if mu_prev is not None and abs(mu - mu_prev) < tol:
            return 2.0 * mu - 1.0, w, it
        mu_prev = mu
        v = w


def test_power_iteration_reuses_its_last_product():
    class Counted:
        def __init__(self, graph):
            self.graph, self.n, self.calls = graph, graph.n, 0

        def matvec(self, v):
            self.calls += 1
            return self.graph.matvec(v)

    rng = np.random.default_rng(12)
    small = ActionGraph([Permutation.random(60, rng) for _ in range(2)])
    for graph, seed in [(small, 0), (small, 1), (schreier_graph(build_SN(1, 2)), 0)]:
        counted = Counted(graph)
        lam2, vec, iterations = _power_second_eigenpair(counted, 1e-12, seed)
        ref_lam2, ref_vec, ref_iterations = reference_power(graph, 1e-12, seed, 10**5)
        assert (lam2, iterations) == (ref_lam2, ref_iterations)
        assert np.array_equal(vec, ref_vec)
        assert counted.calls == iterations + 1
