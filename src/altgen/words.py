"""Words in the axis line-groups realizing prescribed permutations.

A letter is one element of some axis image of the product of cyclic line
groups (a shift vector).  The constructors here give explicit short words:
face routing in exactly 4d-5 letters, a two-letter move of any point set
into the face, a five-letter cycle supported in the face, and the
conjugation word assembling all three.
"""

import numpy as np

from .blocks import color_regular_bipartite, three_stage
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

    def __add__(self, other):
        return WordInE(self.model, self.letters + other.letters)

    def to_records(self):
        return [{"axis": w.axis, "shifts": w.shifts.tolist()} for w in self.letters]


def standard_cycle_length(K, d):
    """Largest 1 + a(K-1) strictly below K^(d-1)/(3 ln K), with its a."""
    import math
    threshold = K ** (d - 1) / (3 * math.log(K))
    a = int((threshold - 1) // (K - 1))
    if 1 + a * (K - 1) >= threshold:
        a -= 1
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


def face_restriction(model, perm):
    """Face permutation induced by a cube permutation supported on the face."""
    face_idx = face_points(model)
    images = perm.table[face_idx]
    line, coord = model.line_coords(images, 1)
    if coord.any():
        raise ValueError("permutation does not preserve the face")
    off_face = np.delete(perm.table, face_idx)
    if (off_face != np.delete(np.arange(model.N), face_idx)).any():
        raise ValueError("permutation moves points outside the face")
    return line


def _axis_level_shifts(model, axis):
    """Shift of each axis-`axis` line (axis > 1) by its own first coordinate."""
    first = model.lines(model.points(), axis)[..., 0].ravel()
    return model.line_coords(first, 1)[1]


def _round_letters(model, axis, targets):
    """Three letters realizing prescribed within-line moves on the face.

    targets[f] is the wanted axis-`axis` coordinate of the face point at
    face position f.  The first letter lifts each face point to the level
    named by its shift amount, the middle letter shifts every line at level
    r by r (delivering the move), the final letter drops everything back to
    the face.  Returned in application order.
    """
    K, d = model.K, model.d
    L = K ** (d - 1)
    f = np.arange(L, dtype=np.int64)
    weight = K ** (axis - 2)
    digit = (f // weight) % K
    targets = np.asarray(targets, dtype=np.int64)
    delta = (targets - digit) % K

    lift = ShiftVector(model, 1, delta)
    deliver = ShiftVector(model, axis, _axis_level_shifts(model, axis))
    f_to = f + (targets - digit) * weight
    drop_shifts = np.zeros(L, dtype=np.int64)
    drop_shifts[f_to] = (K - delta) % K
    drop = ShiftVector(model, 1, drop_shifts)
    return [lift, deliver, drop]


def grid_route(model, sigma_face):
    """Word of exactly 4d-5 letters whose product restricts to the face as given.

    The letters alternate between axis 1 and axes 2..d..2 in a palindrome;
    off-face behaviour is unconstrained.  sigma_face is a permutation of the
    K^(d-1) face indices.
    """
    K, d = model.K, model.d
    L = K ** (d - 1)
    cur = np.asarray(sigma_face, dtype=np.int64).copy()
    if cur.shape != (L,):
        raise ValueError(f"face permutation must have length {L}")

    pre_rounds = []   # (axis, targets), application order
    post_rounds = []  # gathered in reverse
    f = np.arange(L, dtype=np.int64)
    for q in range(d - 2):  # peel axes 2..d-1
        axis = q + 2
        weight = K ** q
        digit = (f // weight) % K
        suffix = f // (weight * K)
        img_digit = (cur // weight) % K
        img_suffix = cur // (weight * K)
        # nodes combine the already-fixed prefix with the suffix
        prefix = f % weight
        node_from = prefix + weight * suffix
        node_to = cur % weight + weight * img_suffix
        require((cur % weight == prefix).all(), "peel invariant broken")
        n_nodes = L // K
        colors = color_regular_bipartite(node_from, node_to, n_nodes, n_nodes, K)

        pre_rounds.append((axis, colors.copy()))
        f_c = f + (colors - digit) * weight
        # after the middle stages the point sits at (prefix, color, image suffix)
        p_ab = prefix + weight * colors + weight * K * img_suffix
        post_targets = np.empty(L, dtype=np.int64)
        post_targets[p_ab] = img_digit
        post_rounds.append((axis, post_targets))

        nxt = np.empty(L, dtype=np.int64)
        nxt[f_c] = prefix + weight * colors + weight * K * img_suffix
        cur = nxt

    # the residue moves points only along the last axis
    weight = K ** (d - 2)
    require(((cur % weight) == (f % weight)).all(), "residue touches lower digits")
    middle = (d, (cur // weight) % K)

    rounds = pre_rounds + [middle] + post_rounds[::-1]
    letters_app = []
    for axis, targets in rounds:
        lift, deliver, drop = _round_letters(model, axis, targets)
        if letters_app:
            letters_app[-1] = letters_app[-1] * lift  # merge adjacent axis-1 letters
        else:
            letters_app.append(lift)
        letters_app.append(deliver)
        letters_app.append(drop)

    word = WordInE(model, letters_app[::-1])
    require(len(word) == 4 * d - 5, f"face route has {len(word)} letters, not 4d-5")
    return word


# -- moving a point set into the face -------------------------------------------


def tosquare_word(model, points):
    """Two letters moving the given distinct points into the face, or None.

    Greedy over the axis-2 lines in index order: each line gets the smallest
    shift that avoids putting two points onto one axis-1 line; a bad position
    makes the greedy fail, which is reported as None.
    """
    K = model.K
    points = np.asarray(sorted(set(map(int, points))), dtype=np.int64)
    if len(points) == 0:
        zero = np.zeros(model.lines_per_axis, dtype=np.int64)
        return ShiftVector(model, 2, zero), ShiftVector(model, 1, zero)
    if points.min() < 0 or points.max() >= model.N:
        raise ValueError("point index out of range")

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
    capacity = (K ** (d - 1) - 1) // (K - 1)
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
    """(word, product) of cycle_word; its checks compute the product anyway."""
    K = model.K
    lines = comb_tree_lines(model, a)
    by_axis = {}
    for axis, lid in lines:
        by_axis.setdefault(axis, []).append(lid)
    letters = []
    for axis in sorted(by_axis):
        shifts = np.zeros(model.lines_per_axis, dtype=np.int64)
        shifts[by_axis[axis]] = 1
        letters.append(ShiftVector(model, axis, shifts))
    word = WordInE(model, letters)
    perm = word.product()
    support = perm.support()
    expected = 1 + a * (K - 1)
    require(len(support) == expected, "tree union has the wrong size")
    require((model.line_coords(support, 1)[1] == 0).all(), "cycle leaves the face")
    require(perm.cycle_type()[0] == expected, "product is not a single cycle")
    return word, perm


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
    t = h.materialize() * g.materialize()
    sigma_hat = t * cycle_perm * t.inverse()
    sigma_face = face_restriction(model, sigma_hat)

    c0_word, c0 = _checked_cycle_word(model, a)

    rho = _match_cycles(model, c0, sigma_face)
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


def _match_cycles(model, c0, sigma_face):
    """Face permutation conjugating the standard cycle to the target cycle."""
    K = model.K
    L_face = K ** (model.d - 1)
    c0_face = face_restriction(model, c0)

    def orbit(table, start):
        out = [start]
        x = int(table[start])
        while x != start:
            out.append(x)
            x = int(table[x])
        return out

    c0_start = int(np.flatnonzero(c0_face != np.arange(L_face))[0])
    sg_start = int(np.flatnonzero(sigma_face != np.arange(L_face))[0])
    src = orbit(c0_face, c0_start)
    dst = orbit(sigma_face, sg_start)
    require(len(src) == len(dst), "standard and target cycles differ in length")

    rho = np.full(L_face, -1, dtype=np.int64)
    rho[src] = dst
    rest_src = np.setdiff1d(np.arange(L_face), np.array(src))
    rest_dst = np.setdiff1d(np.arange(L_face), np.array(dst))
    rho[rest_src] = rest_dst
    return rho
