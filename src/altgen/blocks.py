"""Factoring even permutations of [0, n) through small overlapping windows.

The point set is arranged into ceil(n/m) columns; a three-stage butterfly
(within columns, within packed row groups, within columns again) routes every
point home.  All factors are made even by absorbing compensating swaps into
neighboring stages, so each factor lies in the alternating group of one
window.
"""

import numpy as np

from .errors import require
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
    require(sizes[-1] >= 1 and sum(sizes) == n, "column layout misses points")
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
        require(groups and len(groups[-1]) >= 3, "no row group to borrow from")
        last = groups[-1]
        groups[-1] = last[:-1]
        groups.append([last[-1], start])
    else:
        groups.append(list(range(start, mt)))
    require(all(len(g) >= 2 for g in groups), "singleton row group")
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
        require(len(w) <= m, "window exceeded size bound")
        in_w = set(w)
        fill = (x for x in range(n) if x not in in_w)
        while len(w) < m:
            w.append(next(fill))
        padded.append(sorted(w))
    return padded


def factor_count_bound(n, m):
    return 3 * (-(-n // m)) + 3


# -- bipartite edge coloring ---------------------------------------------------


def color_regular_bipartite(left, right, n_left, n_right, degree):
    """Proper edge coloring of a degree-regular bipartite multigraph.

    Returns an array of colors in [0, degree); every node sees each color
    exactly once.  The support graph of a regular bipartite multigraph has a
    perfect matching (König), so `degree` rounds of Hopcroft-Karp each take
    one edge from every matched pair's pool of parallel edges.
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
        require((mate >= 0).all(), "no perfect matching: the graph is not regular")
        hit = np.searchsorted(pairs, np.arange(n_left) * n_right + mate)
        colors[order[first[hit] + taken[hit]]] = color
        taken[hit] += 1
    require((colors >= 0).all(), "edges left uncolored: the graph is not regular")
    return colors


def _color_edges(col_from, col_to, sizes):
    """Proper edge coloring of the column multigraph, one edge per point.

    Returns colors with color(e) < min(sizes[from], sizes[to]).  Only the last
    column j may be short: mt - sizes[j] dummy j -> j edges make the graph
    mt-regular, and since a dummy has one color at both ends, numbering the
    dummies' colors last leaves j's real edges the colors [0, sizes[j]).
    """
    q, mt = len(sizes), max(sizes)
    dummies = np.full(mt - sizes[-1], q - 1, dtype=np.int64)
    colors = color_regular_bipartite(np.concatenate([col_from, dummies]),
                                     np.concatenate([col_to, dummies]), q, q, mt)
    is_dummy = np.zeros(mt, dtype=bool)
    is_dummy[colors[len(col_from):]] = True
    rank = np.empty(mt, dtype=np.int64)
    rank[np.argsort(is_dummy, kind="stable")] = np.arange(mt)
    return rank[colors[:len(col_from)]]


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

    groups = _row_groups(mt, m // q)

    def cell(j, r):
        return j * mt + r

    # color the destination multigraph: one edge per point, column to column
    col = np.minimum(np.arange(n) // mt, q - 1)
    dest = g.table
    dest_col = col[dest]
    colors = _color_edges(col, dest_col, sizes)
    heights = np.asarray(sizes)
    require((colors < np.minimum(heights[col], heights[dest_col])).all(),
            "edge color exceeds the height of a column it touches")

    # stage 1: within each column, send x to the row named by its color
    stage1 = []
    pos = np.arange(n, dtype=np.int64)  # pos[x] = current cell of item x
    for j in range(q):
        items = np.flatnonzero(col == j)
        table = np.arange(n, dtype=np.int64)
        table[items] = cell(j, colors[items])
        f = Permutation(table, _validate=False)
        if f.parity:
            r1, r2 = groups[0][0], groups[0][1]
            swap = _transposition(n, cell(j, r1), cell(j, r2))
            f = swap * f
        stage1.append((f, j))
        pos = f.table[pos]

    # stage 2: within each row-group window, send items to (dest column, color)
    stage2 = []
    target = cell(dest_col, colors)
    for gi, grp in enumerate(groups):
        cells_in = [cell(j, r) for j in range(q) for r in grp if r < sizes[j]]
        inside = np.isin(pos, cells_in)
        require(np.isin(target[inside], cells_in).all(),
                "stage-2 target leaves its row-group window")
        table = np.arange(n, dtype=np.int64)
        table[pos[inside]] = target[inside]
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
        mine = dest_col == j
        table = np.arange(n, dtype=np.int64)
        table[pos[mine]] = dest[mine]
        stage3.append([Permutation(table, _validate=False), j])

    # stage-3 parities come in an even count of odd factors; fix them in pairs,
    # compensating both swaps inside one stage-2 window (its parity flips twice)
    odd = [idx for idx, item in enumerate(stage3) if item[0].parity]
    require(len(odd) % 2 == 0, "odd number of odd stage-3 factors")
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
            require(f.parity == 0, "factor parity fix failed")
            factors.append(f)
            window_index.append(widx)

    bound = factor_count_bound(n, m)
    require(len(factors) <= bound, f"{len(factors)} factors exceed bound {bound}")
    _check_block_product(factors, g)
    window_sets = [set(w) for w in windows]
    for f, widx in zip(factors, window_index):
        require(set(map(int, f.support())) <= window_sets[widx],
                "factor support leaves its window")
    return factors, windows


def _transposition(n, a, b):
    table = np.arange(n, dtype=np.int64)
    table[a], table[b] = b, a
    return Permutation(table, _validate=False)


def _check_block_product(factors, g):
    acc = Permutation.identity(g.n)
    for f in factors:
        acc = acc * f
    require(acc == g, "block factor multiply-back failed")
