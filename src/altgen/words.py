"""Words in the axis line-groups realizing prescribed permutations.

A letter is one element of some axis image of the product of cyclic line
groups (a shift vector).  The constructors here give explicit short words:
face routing in exactly 4d-5 letters, a two-letter move of any point set
into the face, a five-letter cycle supported in the face, and the
conjugation word assembling all three.
"""

import numpy as np

from . import perms
# perfbench/tracer.py counts the edge colourings as words.color_regular_bipartite
from .blocks import color_regular_bipartite, three_stage  # noqa: F401
from .embeddings import ShiftVector
from .errors import require
from .perms import Permutation


class WordInE:
    """Ordered letters (shift vectors); the product is tracked exactly."""

    def __init__(self, model, letters):
        self.model = model
        self.letters = list(letters)

    def __len__(self):
        return len(self.letters)

    def axes(self):
        return [w.axis for w in self.letters]

    def product(self):
        acc = Permutation.identity(self.model.N)
        for letter in self.letters:
            acc = acc * letter.materialize()
        return acc

    def images(self, points):
        """The product's images of the given points, as product().table[points].

        The points move through the letters from right to left along their
        own lines, so no N-point letter table is built.
        """
        model = self.model
        pts = np.asarray(points, dtype=np.int64)
        for letter in reversed(self.letters):
            lid, pos = model.line_coords(pts, letter.axis)
            pts = model.move(pts, letter.axis, (pos + letter.shifts[lid]) % model.K - pos)
        return pts

    def inverse(self):
        return WordInE(self.model, [w.inverse() for w in reversed(self.letters)])

    def to_records(self):
        return [{"axis": w.axis, "shifts": w.shifts.tolist()} for w in self.letters]


def standard_cycle_length(K, d):
    """Largest 1 + a(K-1) strictly below K^(d-1)/(3 ln K), with its a."""
    import math
    threshold = K ** (d - 1) / (3 * math.log(K))
    a = int((threshold - 1) // (K - 1))
    if 1 + a * (K - 1) >= threshold:
        a -= 1
    if a < 1:
        raise ValueError(f"no standard cycle at K = {K}, d = {d}: "
                         f"K^(d-1)/(3 ln K) = {threshold:.3g} leaves no a >= 1")
    return 1 + a * (K - 1), a


def butterfly_factor(g, a_size, b_size):
    """Factor a grid permutation as (within rows) * (within columns) * (within rows).

    Points are alpha + a_size * beta; rows are the fibers of beta, columns
    the fibers of alpha.  Returns (a, b, c) with a * b * c == g, where a and
    c move points only within rows and b only within columns.
    """
    n = a_size * b_size
    if g.n != n:
        raise ValueError("permutation degree does not match the grid")
    # the rows are three_stage's columns
    first, middle, last = three_stage(g.table, np.arange(n) // a_size, [a_size] * b_size)
    a, b, c = Permutation(last), Permutation(middle), Permutation(first)
    require(a * b * c == g, "butterfly multiply-back failed")
    return a, b, c


# -- face routing ---------------------------------------------------------------


def face_points(model):
    """The face, the points with first coordinate 0, in face-index order.

    Face index f names the point's axis-1 line.
    """
    return model.lines(model.points(), 1)[..., 0].ravel()


def grid_route(model, sigma_face):
    """Word of exactly 4d-5 letters whose product restricts to the face as given.

    The letters alternate between axis 1 and axes 2..d..2 in a palindrome;
    off-face behaviour is unconstrained.  sigma_face is a permutation of the
    K^(d-1) face indices.  Each axis a = 2..d-1 is peeled by one three-stage
    route whose columns are the face's axis-a lines: a pre-round moves along
    axis a, the rest of the route moves along the higher axes, and a
    post-round moves along axis a again.  The residue moves along axis d.

    A round moving face point f to coordinate targets[f] along axis a takes
    three letters: the first lifts f along axis 1 to the level named by its
    shift amount, the middle letter shifts every axis-a line at level r by r
    (delivering the move) and the last drops everything back to the face.
    The drop of one round and the lift of the next merge into one letter.
    """
    K, d, L = model.K, model.d, model.lines_per_axis
    cur = np.asarray(sigma_face, dtype=np.int64)
    if cur.shape != (L,):
        raise ValueError(f"face permutation must have length {L}")

    face = face_points(model)
    # face points sit at 0 on axis 1, the fastest digit, so each axis-a line
    # id is K times a column number: face point f takes cell line + coord,
    # row coord of its line's column, and face point at[c] sits in cell c
    grid = {}
    for axis in range(2, d + 1):
        line, coord = model.line_coords(face, axis)
        at = np.empty(L, dtype=np.int64)
        at[line + coord] = np.arange(L)
        grid[axis] = line, coord, at
    pre_rounds = []   # (axis, targets), application order
    post_rounds = []  # gathered in reverse
    for axis in range(2, d):
        line, coord, at = grid[axis]
        cell = line + coord
        first, middle, last = three_stage(cur, cell // K, [K] * (L // K))
        pre_rounds.append((axis, first % K))
        post_rounds.append((axis, coord[last[cell]]))
        cur = at[middle[cell]]
        require(all((grid[a][1][cur] == grid[a][1]).all() for a, _ in pre_rounds),
                "peel invariant broken: the residue moves a routed coordinate")

    line, coord, _ = grid[d]
    require((line[cur] == line).all(), "residue leaves its axis-d lines")
    rounds = pre_rounds + [(d, coord[cur])] + post_rounds[::-1]
    # the deliver letter of axis a shifts each axis-a line by its level, its
    # axis-1 coordinate; axis 1 is the fastest digit of every axis-a line id
    # (a > 1), so on every axis that level is the line id mod K
    levels = np.arange(L) % K
    deliver = {axis: ShiftVector(model, axis, levels) for axis in grid}
    letters_app = []
    drop = 0   # the previous round's drop shifts, merged into this round's lift
    for axis, targets in rounds:
        line, coord, at = grid[axis]
        move = targets - coord
        # face point f is on axis-1 line f: the lift raises it to level
        # move mod K, the level the deliver letter shifts by that much
        letters_app += [ShiftVector(model, 1, drop + move), deliver[axis]]
        # the drop lowers it back along the axis-1 line it landed on, that
        # of the face point in its target cell
        drop = np.zeros(L, dtype=np.int64)
        drop[at[line + targets]] = -move
    letters_app.append(ShiftVector(model, 1, drop))

    word = WordInE(model, letters_app[::-1])
    require(len(word) == 4 * d - 5, f"face route has {len(word)} letters, not 4d-5")
    return word


# -- moving a point set into the face -------------------------------------------


def tosquare_word(model, points):
    """Two letters moving the given distinct points into the face, or None.

    Greedy over the axis-2 lines in index order: each line gets the smallest
    shift that avoids putting two points onto one axis-1 line; a bad position
    makes the greedy fail, which is reported as None.

    Two points can land on one axis-1 line only if they lie in one (axis-1,
    axis-2) plane, and within a plane the axis-2 lines come in order of
    their axis-1 coordinate.  So the greedy runs in K steps, one per axis-1
    coordinate, each over the lines at that coordinate in every plane.
    """
    K = model.K
    points = np.sort(np.asarray(points, dtype=np.int64))
    if len(points) == 0:
        zero = np.zeros(model.lines_per_axis, dtype=np.int64)
        return ShiftVector(model, 2, zero), ShiftVector(model, 1, zero)
    if points[0] < 0 or points[-1] >= model.N:
        raise ValueError("point index out of range")
    points = points[np.r_[True, points[1:] != points[:-1]]]

    lid2, x2 = model.line_coords(points, 2)
    x1 = model.line_coords(points, 1)[1]
    # the points by axis-1 coordinate, then by axis-2 line; an axis-2 line
    # keeps its axis-1 coordinate, so each line's points are adjacent
    by_step = np.lexsort((lid2, x1))
    points, lid2, x2, x1 = points[by_step], lid2[by_step], x2[by_step], x1[by_step]
    new_line = np.r_[True, lid2[1:] != lid2[:-1]]
    line_start = np.flatnonzero(new_line)
    point_line = np.cumsum(new_line) - 1
    step_lines = np.searchsorted(x1[line_start], np.arange(K + 1))
    step_points = np.append(line_start, len(points))[step_lines]
    # landing[p, t]: the axis-1 line point p lands on when its axis-2 line
    # is shifted by t
    shifted = model.move(points, 2, (x2 + np.arange(K)[:, None]) % K - x2)
    landing = model.line_coords(shifted, 1)[0].T
    shift = np.zeros(len(line_start), dtype=np.int64)
    occupied = np.zeros(model.lines_per_axis, dtype=bool)
    for step in range(K):
        (l0, l1), (p0, p1) = step_lines[step:step + 2], step_points[step:step + 2]
        if l0 == l1:
            continue
        # blocked[l, t]: shifting line l by t puts a point on an occupied line
        blocked = np.logical_or.reduceat(occupied[landing[p0:p1]], line_start[l0:l1] - p0)
        if blocked.all(axis=1).any():
            return None
        shift[l0:l1] = np.argmin(blocked, axis=1)
        occupied[landing[np.arange(p0, p1), shift[point_line[p0:p1]]]] = True
    shifts2 = np.zeros(model.lines_per_axis, dtype=np.int64)
    shifts2[lid2[line_start]] = shift

    # each letter moves a point along its own line, so the points are moved
    # by arithmetic rather than through N-sized tables
    moved = model.move(points, 2, (x2 + shifts2[lid2]) % K - x2)
    lid1, x1 = model.line_coords(moved, 1)
    shifts1 = np.zeros(model.lines_per_axis, dtype=np.int64)
    shifts1[lid1] = (K - x1) % K
    final_coord = (x1 + shifts1[lid1]) % K
    require(not final_coord.any(), "points did not land in the face")
    return ShiftVector(model, 2, shifts2), ShiftVector(model, 1, shifts1)


# -- the face cycle -------------------------------------------------------------


def comb_tree_lines(model, count):
    """`count` face lines along axes 2..d whose union is a tree.

    A spine along axis 2 plus levels of teeth: the level-l teeth vary axis l
    and attach to the previous level at coordinate 0.  Returns a list of
    (axis, line_id) pairs.
    """
    K, d = model.K, model.d
    capacity = (model.lines_per_axis - 1) // (K - 1)
    if not 1 <= count < capacity:
        raise ValueError(f"line count must be in [1, {capacity})")
    lines = [(2, 0)]  # the spine: all coordinates zero except axis 2
    if count == 1:
        return lines
    level_prefixes = [()]  # tuples (j2, ..., j_{l-1}) indexing teeth of level l
    for axis in range(3, d + 1):
        new_prefixes = []
        for prefix in level_prefixes:
            for j in range(K):
                tooth = prefix + (j,)
                new_prefixes.append(tooth)
                # a point of the tooth: x1 = 0, the tooth on axes 2.., zeros after
                corner = model.index((0,) + tooth + (0,) * (d - 1 - len(tooth)))
                lines.append((axis, model.line_coords(corner, axis)[0]))
                if len(lines) == count:
                    return lines
        level_prefixes = new_prefixes
    require(len(lines) == count, "capacity check should have caught this")
    return lines


def cycle_word(model, a):
    """At most d-1 letters whose product is a cycle of length 1+a(K-1) in the face."""
    return _checked_cycle_word(model, a)[0]


def _checked_cycle_word(model, a):
    """(word, c0_face) of cycle_word; c0_face is the cycle on the face lines.

    Only points on the tree's shifted lines can move, so the checks take
    those points through the word and build no N-point table.
    """
    K, L = model.K, model.lines_per_axis
    lines = comb_tree_lines(model, a)
    by_axis = {}
    for axis, lid in lines:
        by_axis.setdefault(axis, []).append(lid)
    letters = []
    face = face_points(model)
    on_tree = np.zeros(L, dtype=bool)
    for axis in sorted(by_axis):
        shifts = np.zeros(L, dtype=np.int64)
        shifts[by_axis[axis]] = 1
        letters.append(ShiftVector(model, axis, shifts))
        # a line along axis > 1 lies in the face or misses it, so this count
        # puts every shifted line, and every point that can move, in the face
        on_line = shifts[model.line_coords(face, axis)[0]] == 1
        require(np.count_nonzero(on_line) == K * len(by_axis[axis]), "cycle leaves the face")
        on_tree |= on_line
    word = WordInE(model, letters)
    points = face[on_tree]   # sorted, as the face is
    images = word.images(points)
    moved = images != points
    support, images = points[moved], images[moved]
    expected = 1 + a * (K - 1)
    require(len(support) == expected, "tree union has the wrong size")
    require(perms.cycle_labels(np.searchsorted(support, images))[0] == 1,
            "product is not a single cycle")
    c0_face = np.arange(L)
    c0_face[model.line_coords(support, 1)[0]] = model.line_coords(images, 1)[0]
    return word, c0_face


# -- conjugating an arbitrary cycle into the standard one -----------------------


def conjugacy_word47(model, cycle_perm):
    """Word of at most 8d - 1 letters whose product is exactly the given cycle.

    Returns None when the greedy face-moving step fails (the caller decides
    whether to resample).  On success the product equals the input exactly.
    """
    K, d = model.K, model.d
    support = cycle_perm.support()
    L = len(support)
    if L == 0 or cycle_perm.cycle_type()[0] != L:
        raise ValueError("input must be a single cycle")
    if (L - 1) % (K - 1):
        raise ValueError("cycle length must be 1 mod K-1")
    a = (L - 1) // (K - 1)

    moved = tosquare_word(model, support)
    if moved is None:
        return None
    g, h = moved
    sigma_face = _face_cycle(model, WordInE(model, [h, g]), cycle_perm, support)

    c0_word, c0_face = _checked_cycle_word(model, a)

    rho = _match_cycles(c0_face, sigma_face)
    w = grid_route(model, rho)

    letters = ([g.inverse(), h.inverse()]
               + w.letters
               + c0_word.letters
               + w.inverse().letters
               + [h, g])
    word = WordInE(model, letters)
    require(len(word) <= 8 * d - 1,
            f"conjugation word has {len(word)} letters, over 8d-1")
    return word


def _face_cycle(model, t, cycle_perm, support):
    """The face permutation of t c t^-1, c = cycle_perm supported on `support`.

    t c t^-1 moves only t(support), so t must put every point of the
    support on the face; it sends face line t(x) to face line t(c(x)).
    """
    src_line, src_coord = model.line_coords(t.images(support), 1)
    dst_line, dst_coord = model.line_coords(t.images(cycle_perm.table[support]), 1)
    require(not src_coord.any() and not dst_coord.any(),
            "face move leaves a cycle point off the face")
    sigma_face = np.arange(model.lines_per_axis)
    sigma_face[src_line] = dst_line
    return sigma_face


def _match_cycles(c0_face, sigma_face):
    """Face permutation conjugating the standard cycle to the target cycle."""
    L_face = len(c0_face)

    def orbit(table, start):
        out = [start]
        x = table[start]
        while x != start:
            out.append(x)
            x = table[x]
        return out

    c0_start = int(np.flatnonzero(c0_face != np.arange(L_face))[0])
    sg_start = int(np.flatnonzero(sigma_face != np.arange(L_face))[0])
    src = orbit(c0_face.tolist(), c0_start)
    dst = orbit(sigma_face.tolist(), sg_start)
    require(len(src) == len(dst), "standard and target cycles differ in length")

    rho = np.full(L_face, -1, dtype=np.int64)
    rho[src] = dst
    rest_src = np.ones(L_face, dtype=bool)
    rest_src[src] = False
    rest_dst = np.ones(L_face, dtype=bool)
    rest_dst[dst] = False
    rho[rest_src] = np.flatnonzero(rest_dst)
    return rho
