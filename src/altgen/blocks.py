"""Factoring even permutations of [0, n) through small overlapping windows.

The point set is arranged into ceil(n/m) columns; a three-stage butterfly
(within columns, within packed row groups, within columns again) routes every
point home.  All factors are made even by absorbing compensating swaps into
neighboring stages, so each factor lies in the alternating group of one
window.
"""

import numpy as np

from .errors import require
from .perms import Permutation, cycle_labels, product


def _layout(n, m):
    """Column layout (q, mt, sizes) and its parts: the columns, then the row groups.

    Cell j * mt + r is row r of column j.  A part lists its cells column by
    column, so the first two cells of a row group lie in the full column 0
    and those of a column in row group 0.
    """
    q = -(-n // m)  # ceil
    if q == 1:
        return 1, n, [n], [list(range(n))]
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
    parts = [list(range(j * mt, j * mt + size)) for j, size in enumerate(sizes)]
    parts += [[j * mt + r for j in range(q) for r in grp if r < sizes[j]]
              for grp in _row_groups(mt, m // q)]
    return q, mt, sizes, parts


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
    padded = []
    for w in _layout(n, m)[3]:
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
    # pairs are sorted by (left, right), so each round's live pairs are
    # already its CSR rows in order, with sorted columns
    pair_left = (pairs // n_right).astype(np.int32)
    pair_right = (pairs % n_right).astype(np.int32)
    taken = np.zeros(len(pairs), dtype=np.int64)
    colors = np.full(len(left), -1, dtype=np.int64)
    for color in range(degree):
        live = np.flatnonzero(taken < pool)
        indptr = np.zeros(n_left + 1, dtype=np.int32)
        np.cumsum(np.bincount(pair_left[live], minlength=n_left), out=indptr[1:])
        support = csr_array((np.ones(len(live), dtype=np.int8), pair_right[live],
                             indptr), shape=(n_left, n_right))
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


# -- the three-stage routing core ------------------------------------------------


def three_stage(dest, col, sizes):
    """Route every point x to dest[x] in three stages on a column grid.

    Cell j * mt + r is row r of column j, with mt = max(sizes); point x
    starts in column col[x].  Returns tables (first, middle, last) with
    last[middle[first]] == dest: `first` sends x to the row of its column
    that its edge color names, `middle` moves that cell along its row to the
    column of dest[x], and `last` sends the arrived cell to dest[x].  When
    point x sits in cell x, all three are permutations of the cells.
    """
    mt = max(sizes)
    dest_col = col[dest]
    colors = _color_edges(col, dest_col, sizes)
    heights = np.asarray(sizes)
    require((colors < np.minimum(heights[col], heights[dest_col])).all(),
            "edge color exceeds the height of a column it touches")
    first = col * mt + colors
    arrived = dest_col * mt + colors
    middle = np.empty_like(first)
    middle[first] = arrived
    last = np.empty_like(first)
    last[arrived] = dest
    return first, middle, last


def _swap_between(before, after, a, b):
    """Insert the swap (a b) after stage `before` and undo it before `after`."""
    at = np.flatnonzero((before == a) | (before == b))
    before[at] = before[at[::-1]]
    after[[a, b]] = after[[b, a]]


def _cycles_per_part(count, labels, part, n_parts):
    """How many of the `count` cycles lie in each part; cell i of part[i] is on cycle labels[i].

    Every cell writes its part onto its cycle, so a cycle that meets two
    parts fails the check.
    """
    cycle_part = np.full(count, n_parts)
    cycle_part[labels] = part
    require(np.array_equal(cycle_part[labels], part), "a cycle leaves its part")
    return np.bincount(cycle_part, minlength=n_parts + 1)[:n_parts]


def _odd_parts(table, parts):
    """The parts on which `table` acts as an odd permutation; no cycle leaves a part."""
    count, labels = cycle_labels(table)
    sizes = [len(cells) for cells in parts]
    part = np.repeat(np.arange(len(parts)), sizes)
    cycles = _cycles_per_part(count, labels[np.concatenate(parts)], part, len(parts))
    return [cells for cells, size, c in zip(parts, sizes, cycles) if (size - c) % 2]


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
    q, mt, sizes, parts = _layout(n, m)
    if q == 1:
        return [g], windows

    first, middle, last = three_stage(g.table, np.arange(n) // mt, sizes)
    columns, rows = parts[:q], parts[q:]
    row_group = np.empty(n, dtype=np.int64)
    row_group[np.concatenate(rows)] = np.repeat(np.arange(len(rows)), list(map(len, rows)))
    require((row_group[middle] == row_group).all(),
            "stage-2 target leaves its row-group window")

    # an odd factor is made even by swapping the first two cells of its part
    # after it; the next stage undoes the swap inside one of its own parts
    for cells in _odd_parts(first, columns):
        _swap_between(first, middle, *cells[:2])
    for cells in _odd_parts(middle, rows):
        _swap_between(middle, last, *cells[:2])
    # stage-3 parities come in an even count of odd factors; their swaps are
    # undone in pairs inside row group 0, whose parity flips twice
    odd = _odd_parts(last, columns)
    require(len(odd) % 2 == 0, "odd number of odd stage-3 factors")
    for cells in odd:
        _swap_between(middle, last, *cells[:2])

    # factor i is supported in windows[window_index[i]]: part w pads to window w
    factors = []
    window_index = []
    for table, order in [(last, range(q)), (middle, reversed(range(q, len(parts)))),
                         (first, reversed(range(q)))]:
        for w in order:
            cells = parts[w]
            if (table[cells] != cells).any():
                f = np.arange(n)
                f[cells] = table[cells]
                factors.append(Permutation(f, _validate=False))
                window_index.append(w)

    bound = factor_count_bound(n, m)
    require(len(factors) <= bound, f"{len(factors)} factors exceed bound {bound}")
    # every factor moves only points of its window, checked in one stack
    stack = np.array([f.table for f in factors], dtype=np.int64).reshape(-1, n)
    window_points = np.asarray(windows)
    in_window = np.zeros((len(windows), n), dtype=bool)
    in_window[np.arange(len(windows))[:, None], window_points] = True
    require(not ((stack != np.arange(n)) & ~in_window[window_index]).any(),
            "factor support leaves its window")
    # every factor even, counted on the factors themselves: each maps its
    # window to itself, so factor i's sorted window points, shifted by i*n,
    # renumber to i*m + [0, m) and one labelling covers every factor
    windows_of = window_points[window_index]
    shift = n * np.arange(len(factors))[:, None]
    images = np.take_along_axis(stack, windows_of, axis=1) + shift
    count, labels = cycle_labels(np.searchsorted((windows_of + shift).ravel(), images.ravel()))
    cycles = _cycles_per_part(count, labels, np.repeat(np.arange(len(factors)), m),
                              len(factors))
    require(((m - cycles) % 2 == 0).all(), "factor parity fix failed")
    _check_block_product(factors, g)
    return factors, windows


def _check_block_product(factors, g):
    require(product(factors, g.n) == g, "block factor multiply-back failed")
