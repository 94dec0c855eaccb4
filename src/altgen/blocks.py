"""Factoring even permutations of [0, n) through small overlapping windows.

The point set is arranged into ceil(n/m) columns; a three-stage butterfly
(within columns, within packed row groups, within columns again) routes every
point home.  All factors are made even by absorbing compensating swaps into
neighboring stages, so each factor lies in the alternating group of one
window.
"""

import functools

import numpy as np

from .errors import require
from .perms import Permutation, cycle_labels, product


@functools.lru_cache(maxsize=8)
def _layout(n, m):
    """Column layout (q, mt, sizes) and its parts: the columns, then the row groups.

    Cell j * mt + r is row r of column j.  A part is a read-only int array
    of its cells, column by column, so the first two cells of a row group
    lie in the full column 0 and those of a column in row group 0.  Cached,
    since `block_factor` needs the layout and so does the `window_family`
    call it makes; sizes and parts are tuples.
    """
    q = -(-n // m)  # ceil
    if q == 1:
        cells = np.arange(n)
        cells.setflags(write=False)
        return 1, n, (n,), (cells,)
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
    sizes = (mt,) * (q - 1) + (n - (q - 1) * mt,)
    require(sizes[-1] >= 1 and sum(sizes) == n, "column layout misses points")
    cells = np.arange(n)
    group = _row_groups(mt, m // q)[cells % mt]
    # a stable sort by row group keeps each group's cells column by column
    order = np.concatenate([cells, np.argsort(group, kind="stable")])
    order.setflags(write=False)
    counts = sizes + tuple(np.bincount(group).tolist())
    ends = np.cumsum(counts).tolist()
    return q, mt, sizes, tuple(order[end - count:end] for end, count in zip(ends, counts))


def _row_groups(mt, rpw):
    """Row group of each row in [0, mt): consecutive groups of size 2..rpw (rpw >= 2)."""
    group = np.arange(mt) // rpw
    if mt % rpw == 1:
        # borrow one row so no group is a singleton; rpw == 2 never gets
        # here because column heights are even in that regime
        require(mt > rpw >= 3, "no row group to borrow from")
        group[-2] += 1
    require((np.bincount(group) >= 2).all(), "singleton row group")
    return group


def window_family(n, m):
    """The m-subsets of [0, n) used by both the factorization and embeddings.

    Columns come first, then the packed row-group windows; every window is
    padded up to exactly m points (padding never carries factor support).
    """
    if m < 5:
        raise ValueError("window size must be at least 5")
    if n < m:
        raise ValueError("need n >= m")
    parts = _layout(n, m)[3]
    counts = np.array([len(cells) for cells in parts])
    require((counts <= m).all(), "window exceeded size bound")
    member = np.zeros((len(parts), n), dtype=bool)
    member[np.repeat(np.arange(len(parts)), counts), np.concatenate(parts)] = True
    # each part is padded with the smallest points outside it, all below m
    # since at most len(part) of [0, m) lie inside it
    outside = ~member[:, :m]
    member[:, :m] |= outside & (np.cumsum(outside, axis=1) <= (m - counts)[:, None])
    return (np.flatnonzero(member) % n).reshape(len(parts), m).tolist()


def factor_count_bound(n, m):
    return 3 * (-(-n // m)) + 3


# -- bipartite edge coloring ---------------------------------------------------


def color_regular_bipartite(left, right, n_left, n_right, degree):
    """Proper edge coloring of a degree-regular bipartite multigraph.

    Returns an array of colors in [0, degree); every node sees each color
    exactly once.  The support graph of a regular bipartite multigraph has a
    perfect matching (König), so `degree` rounds of Hopcroft-Karp each take
    one edge from every matched pair's pool of parallel edges.  A round's
    matching depends on its support graph alone, so it is taken again until
    a pool runs out, and a support graph that is a perfect matching takes
    every remaining round without a matcher call.
    """
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import maximum_bipartite_matching

    left = np.asarray(left, dtype=np.int64)
    right = np.asarray(right, dtype=np.int64)
    key = left * n_right + right
    order = np.argsort(key, kind="stable")
    key = key[order]
    # the distinct (left, right) pairs in (left, right) order; a pair's pool
    # of parallel edges is the sorted edges [next_edge, end)
    starts = np.ones(len(key), dtype=bool)
    np.not_equal(key[1:], key[:-1], out=starts[1:])
    next_edge = np.flatnonzero(starts)
    end = np.append(next_edge[1:], len(key))
    pair_right = right[order[next_edge]].astype(np.int32)
    row_len = np.bincount(left[order[next_edge]], minlength=n_left)
    pairs_in_row = row_len.copy()
    # the live pairs, in that order, are each round's CSR rows with sorted
    # columns; row_len[u] counts left node u's live pairs
    live = np.ones(len(pair_right), dtype=bool)
    live_count = len(pair_right)
    ones = np.ones(len(pair_right), dtype=np.int8)
    indptr = np.zeros(n_left + 1, dtype=np.int32)
    np.cumsum(row_len, out=indptr[1:])
    support = csr_array((ones, pair_right, indptr), shape=(n_left, n_right))
    sorted_colors = np.full(len(key), -1, dtype=np.int64)
    color = 0
    while color < degree:
        if live_count == n_left:
            # one live pair per left node: the only perfect matching left
            at = np.flatnonzero(live)
            require((row_len == 1).all()
                    and (np.bincount(pair_right[at], minlength=n_right) <= 1).all(),
                    "no perfect matching: the graph is not regular")
        else:
            np.cumsum(row_len, out=indptr[1:])
            # sorted and in range by construction, so the arrays go into the
            # container without the format check a new array runs
            support.indptr, support.indices = indptr, pair_right[live]
            support.data = ones[:live_count]
            mate = maximum_bipartite_matching(support, perm_type="column")
            require((mate >= 0).all(), "no perfect matching: the graph is not regular")
            # the pair (u, mate[u]) is live and unique: `at` runs in left order
            at = np.flatnonzero(pair_right == np.repeat(mate, pairs_in_row))
        # until one of its pairs runs out the support graph stays the same,
        # so each of these rounds would take the same matching
        edge = next_edge[at]
        left_in_pool = end[at] - edge
        runs = int(np.min(left_in_pool, initial=degree - color))
        rounds = np.arange(runs)[:, None]
        sorted_colors[edge + rounds] = color + rounds
        next_edge[at] = edge + runs
        color += runs
        gone = left_in_pool == runs
        live[at[gone]] = False
        live_count -= int(np.count_nonzero(gone))
        row_len -= gone
    colors = np.empty_like(sorted_colors)
    colors[order] = sorted_colors
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


def _swap_between(before, after, parts):
    """For each part, insert the swap of its first two cells after stage
    `before` and undo it before `after`; the parts are disjoint, so the
    swaps commute."""
    a, b = np.array([cells[:2] for cells in parts], dtype=np.int64).reshape(-1, 2).T
    at = np.empty_like(before)
    at[before] = np.arange(len(before))   # before sends at[v] to v
    before[at[a]], before[at[b]] = b, a
    after[a], after[b] = after[b], after[a]


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

    # the part of each cell, numbered as in parts: its column, its row group
    cells = np.arange(n)
    column = cells // mt
    columns, rows = parts[:q], parts[q:]
    row_group = np.empty(n, dtype=np.int64)
    row_group[np.concatenate(rows)] = np.repeat(np.arange(q, len(parts)),
                                                [len(group) for group in rows])
    first, middle, last = three_stage(g.table, column, sizes)
    require((row_group[middle] == row_group).all(),
            "stage-2 target leaves its row-group window")

    # an odd factor is made even by swapping the first two cells of its part
    # after it; the next stage undoes the swap inside one of its own parts
    _swap_between(first, middle, _odd_parts(first, columns))
    _swap_between(middle, last, _odd_parts(middle, rows))
    # stage-3 parities come in an even count of odd factors; their swaps are
    # undone in pairs inside row group 0, whose parity flips twice
    odd = _odd_parts(last, columns)
    require(len(odd) % 2 == 0, "odd number of odd stage-3 factors")
    _swap_between(middle, last, odd)

    # one factor per part that its stage moves, in product order: stage 3
    # by column, stage 2 by row group from the last, stage 1 by column from
    # the last; factor i is supported in windows[window_index[i]], the
    # window part window_index[i] pads to
    stack, window_index = [], []
    for table, part, descending in [(last, column, False), (middle, row_group, True),
                                    (first, column, True)]:
        moved = np.unique(part[table != cells])
        moved = moved[::-1] if descending else moved
        rank = np.full(len(parts), -1)
        rank[moved] = np.arange(len(moved))
        stage = np.tile(cells, (len(moved), 1))
        on = rank[part] >= 0
        stage[rank[part[on]], cells[on]] = table[on]
        stack.append(stage)
        window_index.append(moved)
    stack = np.concatenate(stack)
    window_index = np.concatenate(window_index)
    factors = [Permutation(table, _validate=False) for table in stack]

    bound = factor_count_bound(n, m)
    require(len(factors) <= bound, f"{len(factors)} factors exceed bound {bound}")
    # every factor moves only points of its window, checked in one stack
    windows_of = np.asarray(windows)[window_index]
    in_window = np.zeros(stack.shape, dtype=bool)
    np.put_along_axis(in_window, windows_of, True, axis=1)
    require(not ((stack != cells) & ~in_window).any(), "factor support leaves its window")
    # every factor even, counted on the factors themselves: each maps its
    # window to itself, so factor i's sorted window points, shifted by i*n,
    # renumber to i*m + [0, m) and one labelling covers every factor
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
