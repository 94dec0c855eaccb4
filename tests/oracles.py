"""Brute-force reference values for small cases, independent of the package.

Each oracle enumerates directly what the package computes by formula or by
a sweep, or runs one sample at a time what the package batches, so a test
can compare the two on inputs small enough to enumerate.  For groups too
large to enumerate, a stabilizer chain fed random elements bounds the order
from below, a route the package no longer takes for giants.
"""

import math
from itertools import combinations

import numpy as np

from altgen.embeddings import ShiftVector
from altgen.perms import cycle_labels
from altgen.words import face_points
from altgen.schreier_sims import StabilizerChain, _product_replacement, _to_bytes

# subsets of more vertices than this are too many to enumerate
CONDUCTANCE_LIMIT = 22
# random elements in a row that add nothing before the sifting oracle stops
SIFT_STALLS = 96


def dimension_by_tableaux(parts):
    """Brute-force SYT count; the independent oracle for small partitions."""
    parts = tuple(parts)
    n = sum(parts)
    if n == 0:
        return 1
    count = 0
    def rec(rows, k):
        nonlocal count
        if k == n:
            count += 1
            return
        for i, row in enumerate(parts):
            filled = rows[i]
            if filled < row and (i == 0 or rows[i - 1] > filled):
                rows[i] += 1
                rec(rows, k + 1)
                rows[i] -= 1
    rec([0] * len(parts), 0)
    return count


def point_coords(model, index):
    """The d-tuple of coordinates of a point index, axis 1 first: the scalar
    codec the cube layout is checked against."""
    out = []
    for _ in range(model.d):
        index, c = divmod(index, model.K)
        out.append(c)
    return tuple(out)


def exact_conductance(graph):
    """Exact edge conductance by subset enumeration (tiny graphs only)."""
    n = graph.n
    if n > CONDUCTANCE_LIMIT:
        raise ValueError(f"{n} vertices exceed the enumeration limit")
    best = np.inf
    for k in range(1, n // 2 + 1):
        for subset in combinations(range(n), k):
            ind = np.zeros(n)
            ind[list(subset)] = 1.0
            inside = float(ind @ graph.matvec(ind))
            best = min(best, (k - inside) / k)
    return float(best)


def apply_sampled_word(model, rng, axis, points):
    """Apply one uniformly sampled element of the axis group, lazily.

    Only the shifts of lines actually carrying points are drawn, one per
    distinct line in ascending line-id order; points on a shared line
    receive the same shift.  `points` is an int array of distinct points.
    """
    K = model.K
    pts = np.asarray(points, dtype=np.int64)
    lid, pos = model.line_coords(pts, axis)
    uniq, inverse = np.unique(lid, return_inverse=True)
    shifts = rng.integers(0, K, size=len(uniq))
    return model.move(pts, axis, (pos + shifts[inverse]) % K - pos)


def _distinct_first3(model, pts):
    K = model.K
    keys = pts % K**3
    return len(np.unique(keys)) == len(pts)


def reference_tuple_walk(model, start, seed, samples):
    """The tuple walk one sample at a time, one draw call per axis.

    Returns (tuples after the Q1 block, b1 flags), one row or flag per
    sample; the reference for the batched walk in altgen.walks.
    """
    start = np.asarray(start, dtype=np.int64)
    q1, flags = [], []
    for i in range(samples):
        rng = np.random.Generator(np.random.Philox(key=[seed, i]))
        pts = start
        # Q1 = U1U2U3, rightmost factor first
        for axis in (3, 2, 1):
            pts = apply_sampled_word(model, rng, axis, pts)
            if len(np.unique(pts)) != len(start):
                raise AssertionError("tuple lost distinctness")
        q1.append(pts)
        flags.append(_distinct_first3(model, pts))
    return np.array(q1).reshape(samples, len(start)), np.array(flags, dtype=bool)


def reference_edge_list_text(graph):
    """write_edge_list's text, formatted one line per edge in Python."""
    lines = [f"# vertices {graph.n} degree {graph.degree}\n"]
    loops = [0] * graph.n
    for src, dst, count in graph.edge_counts():
        count = np.broadcast_to(count, src.shape)
        for u, v, c in zip(src.tolist(), dst.tolist(), count.tolist()):
            if u < v:
                lines += [f"{u} {v}\n"] * c
            elif u == v:
                loops[u] += c
    for x, arcs in enumerate(loops):
        lines += [f"{x} {x}\n"] * (arcs // 2)
    return "".join(lines)


def lanczos_ten_pairs(graph, seed):
    """Second eigenvalue of T by the solver the one-pair run replaced:
    restarted Lanczos converging ten pairs of the undeflated lazy operator,
    with an 80-vector basis, and reading the second of them."""
    from scipy.sparse.linalg import LinearOperator, eigsh

    n = graph.n
    op = LinearOperator((n, n), matvec=lambda v: 0.5 * (v + graph.matvec(v)), dtype=float)
    v0 = np.random.default_rng(seed).standard_normal(n)
    k = min(10, n - 1)
    vals = eigsh(op, k=k, which="LA", v0=v0, tol=1e-12, ncv=min(n, max(4 * k, 80)),
                 maxiter=5000, return_eigenvectors=False)
    return 2.0 * float(np.sort(vals)[-2]) - 1.0


def sifted_order_lower_bound(gens, seed=0):
    """A proved lower bound on the order of the group `gens` generate, on at
    most 256 points: the order of a stabilizer chain holding the generators
    and product-replacement elements from `seed`, sifted until the order
    reaches the parity ceiling or SIFT_STALLS of them in a row add nothing.
    """
    chain = StabilizerChain(gens[0].n)
    for g in gens:
        chain.add_element(_to_bytes(g.table))
    ceiling = math.factorial(gens[0].n) // (1 if any(g.parity for g in gens) else 2)
    elements = _product_replacement([g.table for g in gens], np.random.default_rng(seed))
    stalls = 0
    while chain.order() != ceiling and stalls < SIFT_STALLS:
        stalls = 0 if chain.add_element(_to_bytes(next(elements))) else stalls + 1
    return chain.order()


def coo_round_coloring(left, right, n_left, n_right, degree):
    """color_regular_bipartite with each round's support graph built as a COO
    matrix and converted to CSR, the package's first form of the rounds.

    Each of `degree` Hopcroft-Karp rounds takes one edge from every matched
    pair's pool of parallel edges, in input order.
    """
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import maximum_bipartite_matching

    left = np.asarray(left, dtype=np.int64)
    right = np.asarray(right, dtype=np.int64)
    key = left * n_right + right
    order = np.argsort(key, kind="stable")
    pairs, first, pool = np.unique(key[order], return_index=True,
                                   return_counts=True)
    taken = np.zeros(len(pairs), dtype=np.int64)
    colors = np.full(len(left), -1, dtype=np.int64)
    for color in range(degree):
        live = np.flatnonzero(taken < pool)
        support = csr_array((np.ones(len(live), dtype=np.int8),
                             (pairs[live] // n_right, pairs[live] % n_right)),
                            shape=(n_left, n_right))
        mate = maximum_bipartite_matching(support, perm_type="column")
        if (mate < 0).any():
            raise AssertionError("no perfect matching")
        hit = np.searchsorted(pairs, np.arange(n_left) * n_right + mate)
        colors[order[first[hit] + taken[hit]]] = color
        taken[hit] += 1
    return colors


def cycle_walk(table):
    """Disjoint cycles of a permutation table as lists, each starting at its
    least point, found by following every point until it returns."""
    seen = np.zeros(len(table), dtype=bool)
    out = []
    for start in range(len(table)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        x = int(table[start])
        while x != start:
            cyc.append(x)
            seen[x] = True
            x = int(table[x])
        out.append(cyc)
    return out


def full_table_cycle_type(perm):
    """Cycle type from the cycles of every point of the table, fixed ones too."""
    return tuple(sorted(np.bincount(cycle_labels(perm.table)[1]).tolist(), reverse=True))


def face_restriction(model, perm):
    """Face permutation induced by a cube permutation supported on the face,
    read off its whole N-point table."""
    face_idx = face_points(model)
    line, coord = model.line_coords(perm.table[face_idx], 1)
    if coord.any():
        raise ValueError("permutation does not preserve the face")
    off_face = np.delete(perm.table, face_idx)
    if (off_face != np.delete(np.arange(model.N), face_idx)).any():
        raise ValueError("permutation moves points outside the face")
    return line


def linewise_tosquare_word(model, points):
    """tosquare_word's greedy one axis-2 line at a time, in line-id order,
    the package's first form of it: each line takes the smallest shift that
    puts none of its points onto an axis-1 line already taken, or the greedy
    fails and returns None."""
    K = model.K
    points = np.asarray(sorted(set(map(int, points))), dtype=np.int64)
    if len(points) == 0:
        zero = np.zeros(model.lines_per_axis, dtype=np.int64)
        return ShiftVector(model, 2, zero), ShiftVector(model, 1, zero)
    lid2, x2 = model.line_coords(points, 2)
    # landing[p][t]: the axis-1 line point p lands on when its axis-2 line
    # is shifted by t
    shifted = model.move(points, 2, (x2 + np.arange(K)[:, None]) % K - x2)
    landing = model.line_coords(shifted, 1)[0].T.tolist()
    by_line = {}
    for line, slots in zip(lid2.tolist(), landing):
        by_line.setdefault(line, []).append(slots)
    shifts2 = np.zeros(model.lines_per_axis, dtype=np.int64)
    occupied = set()
    for line in sorted(by_line):
        good = -1
        for t in range(K):
            trial = [landed[t] for landed in by_line[line]]
            if all(sl not in occupied for sl in trial):
                good = t
                occupied.update(trial)
                break
        if good == -1:
            return None
        shifts2[line] = good
    moved = model.move(points, 2, (x2 + shifts2[lid2]) % K - x2)
    lid1, x1 = model.line_coords(moved, 1)
    shifts1 = np.zeros(model.lines_per_axis, dtype=np.int64)
    shifts1[lid1] = (K - x1) % K
    return ShiftVector(model, 2, shifts2), ShiftVector(model, 1, shifts1)
