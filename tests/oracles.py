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

    Returns (tuples after the Q1 block, final tuples, b1 flags), one row or
    flag per sample; the reference for the batched walk in altgen.walks.
    """
    start = np.asarray(start, dtype=np.int64)
    q1, final, flags = [], [], []
    for i in range(samples):
        rng = np.random.Generator(np.random.Philox(key=[seed, i]))
        pts = start
        # Q1 = U1U2U3 acts first, then Q2 = U4U5U6, rightmost factor first
        for k, axis in enumerate((3, 2, 1, 6, 5, 4)):
            pts = apply_sampled_word(model, rng, axis, pts)
            if len(np.unique(pts)) != len(start):
                raise AssertionError("tuple lost distinctness")
            if k == 2:
                q1.append(pts)
                flags.append(_distinct_first3(model, pts))
        final.append(pts)
    h = len(start)
    return (np.array(q1).reshape(samples, h), np.array(final).reshape(samples, h),
            np.array(flags, dtype=bool))


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
