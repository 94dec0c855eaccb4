"""Factoring even permutations of [0, n) through small overlapping windows.

The point set is arranged into ceil(n/m) columns; a three-stage butterfly
(within columns, within packed row groups, within columns again) routes every
point home.  All factors are made even by absorbing compensating swaps into
neighboring stages, so each factor lies in the alternating group of one
window.
"""

import numpy as np

from .perms import Permutation


def _column_layout(n, m):
    q = -(-n // m)  # ceil
    if q == 1:
        return 1, n, [n]
    if m < 2 * q:
        raise ValueError(
            f"window size {m} too small for {q} columns (need m >= 2*ceil(n/m))")
    mt = -(-n // q)
    if mt % 2 and m // q == 2:
        # odd column heights with two rows per packed window would force a
        # singleton row group, which cannot absorb a parity swap
        mt += 1
        if mt > m:
            raise ValueError(
                f"no balanced column layout for n={n}, m={m}; "
                "choose a window size with ceil(n/ceil(n/m)) < m")
    sizes = [mt] * (q - 1) + [n - (q - 1) * mt]
    assert sizes[-1] >= 1 and sum(sizes) == n
    return q, mt, sizes


def _row_groups(mt, rpw):
    """Partition rows [0, mt) into groups of size 2..rpw (rpw >= 2)."""
    groups = []
    start = 0
    while mt - start > rpw:
        groups.append(list(range(start, start + rpw)))
        start += rpw
    rest = mt - start
    if rest == 1:
        # borrow one row so no group is a singleton; rpw == 2 never gets
        # here because column heights are even in that regime
        assert groups and len(groups[-1]) >= 3
        last = groups[-1]
        groups[-1] = last[:-1]
        groups.append([last[-1], start])
    else:
        groups.append(list(range(start, mt)))
    assert all(len(g) >= 2 for g in groups)
    return groups


def window_family(n, m):
    """The m-subsets of [0, n) used by both the factorization and embeddings.

    Columns come first, then the packed row-group windows; every window is
    padded up to exactly m points (padding never carries factor support).
    """
    if m < 5:
        raise ValueError("window size must be at least 5")
    if n < m:
        raise ValueError("need n >= m")
    q, mt, sizes = _column_layout(n, m)
    if q == 1:
        return [list(range(n))]
    rpw = m // q
    groups = _row_groups(mt, rpw)
    windows = []
    starts = [j * mt for j in range(q)]
    for j in range(q):
        windows.append([starts[j] + r for r in range(sizes[j])])
    for grp in groups:
        cells = [starts[j] + r for j in range(q) for r in grp if r < sizes[j]]
        windows.append(cells)
    padded = []
    for w in windows:
        w = sorted(w)
        if len(w) > m:
            raise AssertionError("window exceeded size bound")
        in_w = set(w)
        fill = (x for x in range(n) if x not in in_w)
        while len(w) < m:
            w.append(next(fill))
        padded.append(sorted(w))
    return padded


def factor_count_bound(n, m):
    return 3 * (-(-n // m)) + 3


# -- edge coloring with one deficient column ----------------------------------


def _one_sided_matching(required, adj):
    """Kuhn matching saturating every node in `required`; returns partner map."""
    match = {}  # opposite-side node -> (required-side node, eid)

    def augment(u, visited):
        for v, eid in adj.get(u, ()):
            if v in visited:
                continue
            visited.add(v)
            if v not in match or augment(match[v][0], visited):
                match[v] = (u, eid)
                return True
        return False

    for u in required:
        if not augment(u, set()):
            raise AssertionError("required node cannot be matched")
    return {u: (v, eid) for v, (u, eid) in match.items()}


def _matching_covering_max_degree(adj, deg_left, deg_right, maxdeg):
    """Matching covering every node of degree == maxdeg, on both sides.

    Only edges between two max-degree nodes are used, which keeps high colors
    away from the short column.  Two one-sided matchings are combined along
    the components of their union; the standard parity argument shows every
    component admits a choice covering all its max-degree endpoints.
    """
    full_left = [u for u in range(len(deg_left)) if deg_left[u] == maxdeg]
    full_right = [v for v in range(len(deg_right)) if deg_right[v] == maxdeg]
    fr = set(full_right)

    adj_ff = {u: [(v, eid) for v, eid in adj[u] if v in fr] for u in full_left}
    radj_ff = {}
    for u, lst in adj_ff.items():
        for v, eid in lst:
            radj_ff.setdefault(v, []).append((u, eid))

    m1 = _one_sided_matching(full_left, adj_ff)       # left -> (right, eid)
    m2 = _one_sided_matching(full_right, radj_ff)     # right -> (left, eid)

    # component traversal over the union; nodes ('L', u) / ('R', v)
    m1_at = {}
    for u, (v, eid) in m1.items():
        m1_at[("L", u)] = (("R", v), eid)
        m1_at[("R", v)] = (("L", u), eid)
    m2_at = {}
    for v, (u, eid) in m2.items():
        m2_at[("R", v)] = (("L", u), eid)
        m2_at[("L", u)] = (("R", v), eid)

    chosen = {}
    seen = set()
    nodes = [("L", u) for u in full_left] + [("R", v) for v in full_right]
    for start in nodes:
        if start in seen or (start not in m1_at and start not in m2_at):
            continue
        comp = []
        stack = [start]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            comp.append(node)
            for at in (m1_at, m2_at):
                if node in at:
                    stack.append(at[node][0])
        # take m1 unless a max-degree right in this component lacks an m1 edge
        use_m2 = any(node[0] == "R" and node[1] in fr and node not in m1_at
                     for node in comp)
        at = m2_at if use_m2 else m1_at
        for node in comp:
            if node[0] == "L" and node in at:
                (_, v), eid = at[node], at[node][1]
                chosen[node[1]] = eid
        if use_m2:
            uncovered = [n for n in comp if n[0] == "L" and n[1] in set(full_left)
                         and n not in m2_at]
            assert not uncovered, "component choice failed to cover a left node"

    for u in full_left:
        assert u in chosen, "max-degree left node left uncovered"
    covered_rights = set()
    for u, eid in chosen.items():
        v = next(v for v, e in adj_ff[u] if e == eid)
        assert v not in covered_rights
        covered_rights.add(v)
    assert covered_rights >= fr, "max-degree right node left uncovered"
    return chosen


def _color_edges(edges, q, sizes):
    """Proper edge coloring of the column multigraph.

    edges: list of (left_col, right_col).  Returns colors with
    color(e) < min(sizes[left], sizes[right]); valid because at most one
    column is short.
    """
    mt = max(sizes)
    remaining = list(range(len(edges)))
    colors = [-1] * len(edges)
    deg_left = [0] * q
    deg_right = [0] * q
    for u, v in edges:
        deg_left[u] += 1
        deg_right[v] += 1
    for color in range(mt - 1, -1, -1):
        maxdeg = color + 1
        adj = [[] for _ in range(q)]
        for eid in remaining:
            u, v = edges[eid]
            adj[u].append((v, eid))
        matched = _matching_covering_max_degree(adj, deg_left, deg_right, maxdeg)
        used = set()
        for u, eid in matched.items():
            colors[eid] = color
            used.add(eid)
            deg_left[edges[eid][0]] -= 1
            deg_right[edges[eid][1]] -= 1
        remaining = [e for e in remaining if e not in used]
    assert not remaining
    return colors


# -- the factorization ---------------------------------------------------------


def block_factor(g, m):
    """Write an even permutation as a product of even window-supported factors.

    Returns (factors, windows): factors[i] is supported inside
    windows[window_index[i]]; their left-to-right product equals g and the
    count obeys 3*ceil(n/m) + 3.
    """
    n = g.n
    if g.parity != 0:
        raise ValueError("block factorization requires an even permutation")
    windows = window_family(n, m)
    q, mt, sizes = _column_layout(n, m)
    if q == 1:
        return [g], windows

    starts = [j * mt for j in range(q)]
    rpw = m // q
    groups = _row_groups(mt, rpw)
    group_of = {}
    for gi, grp in enumerate(groups):
        for r in grp:
            group_of[r] = gi

    def col_of(x):
        return min(x // mt, q - 1)

    def cell(j, r):
        return starts[j] + r

    # color the destination multigraph
    edges = [(col_of(x), col_of(int(g.table[x]))) for x in range(n)]
    colors = _color_edges(edges, q, sizes)
    for x in range(n):
        assert colors[x] < min(sizes[col_of(x)], sizes[col_of(int(g.table[x]))])

    # stage 1: within each column, send x to the row named by its color
    stage1 = []
    pos = np.arange(n, dtype=np.int64)  # pos[x] = current cell of item x
    for j in range(q):
        items = [x for x in range(n) if col_of(x) == j]
        table = np.arange(n, dtype=np.int64)
        for x in items:
            table[x] = cell(j, colors[x])
        f = Permutation(table, _validate=False)
        if f.parity:
            r1, r2 = groups[0][0], groups[0][1]
            swap = _transposition(n, cell(j, r1), cell(j, r2))
            f = swap * f
        stage1.append((f, j))
        pos = f.table[pos]

    # stage 2: within each row-group window, send items to (dest column, color)
    stage2 = []
    for gi, grp in enumerate(groups):
        cells_in = {cell(j, r) for j in range(q) for r in grp if r < sizes[j]}
        table = np.arange(n, dtype=np.int64)
        for x in range(n):
            if int(pos[x]) in cells_in:
                target = cell(col_of(int(g.table[x])), colors[x])
                assert target in cells_in
                table[int(pos[x])] = target
        f = Permutation(table, _validate=False)
        if f.parity:
            # swap two cells of the full column 0 inside this group
            r1, r2 = grp[0], grp[1]
            swap = _transposition(n, cell(0, r1), cell(0, r2))
            f = swap * f
        stage2.append((f, q + gi))
        pos = f.table[pos]

    # stage 3: within each column, send items to their final position
    stage3 = []
    for j in range(q):
        table = np.arange(n, dtype=np.int64)
        for x in range(n):
            if col_of(int(g.table[x])) == j:
                table[int(pos[x])] = int(g.table[x])
        stage3.append([Permutation(table, _validate=False), j])

    # stage-3 parities come in an even count of odd factors; fix them in pairs,
    # compensating both swaps inside one stage-2 window (its parity flips twice)
    odd = [idx for idx, item in enumerate(stage3) if item[0].parity]
    assert len(odd) % 2 == 0
    grp0 = groups[0]
    for a, b in zip(odd[0::2], odd[1::2]):
        swaps = []
        for j in (a, b):
            swap = _transposition(n, cell(j, grp0[0]), cell(j, grp0[1]))
            stage3[j][0] = stage3[j][0] * swap
            swaps.append(swap)
        f0, widx = stage2[0]
        stage2[0] = (swaps[0] * swaps[1] * f0, widx)

    factors = []
    window_index = []
    for f, widx in [(f, w) for f, w in stage3] + stage2[::-1] + stage1[::-1]:
        if not f.is_identity():
            assert f.parity == 0, "factor parity fix failed"
            factors.append(f)
            window_index.append(widx)

    bound = factor_count_bound(n, m)
    assert len(factors) <= bound, f"{len(factors)} factors exceed bound {bound}"
    _check_block_product(factors, g)
    window_sets = [set(w) for w in windows]
    for f, widx in zip(factors, window_index):
        assert set(map(int, f.support())) <= window_sets[widx]
    return factors, windows


def _transposition(n, a, b):
    table = np.arange(n, dtype=np.int64)
    table[a], table[b] = b, a
    return Permutation(table, _validate=False)


def _check_block_product(factors, g):
    acc = Permutation.identity(g.n)
    for f in factors:
        acc = acc * f
    assert acc == g, "block factor multiply-back failed"
