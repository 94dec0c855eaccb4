"""Axis embeddings of the line groups into Alt(N) and labeled generating sets.

Each axis i carries one embedding: an element acting independently on every
axis-i line (a matrix per line, or a cyclic shift per line) becomes a
permutation of all N cube points.  The main constructions are the involution
generating set pulled through all d embeddings and the window-embedded sets
for general degrees.
"""

import numpy as np

from .errors import require
from .geometry import CubeGeometry
from .gf2 import SideFieldAction
from .perms import Permutation, cycle_labels
from .ring import el3_generating_set_size, el3_involutions
from . import blocks as _blocks

# discrete-log tables get big past this side length
DLOG_LIMIT = 1 << 21


class CubeModel:
    """Geometry plus the side-field labeling shared by all constructions."""

    def __init__(self, s, d):
        self.geometry = CubeGeometry(s, d)
        self.s = s
        self.d = d
        self.K = self.geometry.K
        self.N = self.geometry.N
        self._action = None

    @property
    def materializable(self):
        return self.geometry.materializable and self.K <= DLOG_LIMIT

    @property
    def action(self):
        if self._action is None:
            if self.K > DLOG_LIMIT:
                raise ValueError(f"side {self.K} too large for discrete-log tables")
            self._action = SideFieldAction(self.s)
        return self._action

    def lines_to_permutation(self, axis, line_perms):
        """Permutation applying line_perms[line] within each axis-`axis` line.

        line_perms: (lines, K) int array, each row a permutation of [0, K).
        """
        geo = self.geometry
        points = geo.lines(geo.points(), axis)
        # the point at coordinate c is the line's first point moved c places
        table = np.empty(geo.N, dtype=np.int64)
        geo.lines(table, axis)[...] = geo.move(
            points[..., :1], axis, np.asarray(line_perms).reshape(points.shape))
        return Permutation(table, _validate=False)


class ShiftVector:
    """Element of the axis-i image of the product of cyclic line groups.

    One shift in [0, K) per line, stored in the narrowest unsigned dtype
    that holds K - 1 (uint8 for s <= 2); arithmetic widens to int64 first,
    since unsigned negation and sums wrap.
    """

    def __init__(self, model, axis, shifts):
        geo = model.geometry
        shifts = (np.asarray(shifts, dtype=np.int64) % geo.K).astype(
            np.min_scalar_type(geo.K - 1))
        if shifts.shape != (geo.lines_per_axis,):
            raise ValueError(
                f"expected one shift per line ({geo.lines_per_axis}), got {shifts.shape}")
        if not 1 <= axis <= geo.d:
            raise ValueError(f"axis {axis} out of range")
        shifts.setflags(write=False)
        self.model = model
        self.axis = axis
        self.shifts = shifts

    def materialize(self):
        K = self.model.K
        return self.model.lines_to_permutation(
            self.axis, (np.arange(K) + self.shifts[:, None]) % K)

    def inverse(self):
        return ShiftVector(self.model, self.axis, -self.shifts.astype(np.int64))

    def __mul__(self, other):
        if not isinstance(other, ShiftVector):
            return NotImplemented
        if other.axis != self.axis:
            raise ValueError("can only merge shift vectors on the same axis")
        return ShiftVector(self.model, self.axis,
                           self.shifts.astype(np.int64) + other.shifts)

    def is_identity(self):
        return not self.shifts.any()

    def __repr__(self):
        nz = int(np.count_nonzero(self.shifts))
        return f"ShiftVector(axis={self.axis}, {nz} shifted lines)"


def el3_line_actions(model, el3):
    """Per-line actions of an EL3 element: (variant ids, variant K-perms).

    Variants are the distinct copy matrices in lexicographic order of their
    rows, each represented by its first copy.  The variant ids take the
    narrowest unsigned dtype that holds them (uint8 at desk sizes).
    """
    geo = model.geometry
    if el3.m != geo.lines_per_axis:
        raise ValueError(
            f"element has {el3.m} copies; geometry needs {geo.lines_per_axis}")
    keys = _copy_keys(el3)
    order = np.lexsort(keys[::-1])
    ranked = keys[:, order]
    new = np.ones(el3.m, dtype=bool)
    new[1:] = (ranked[:, 1:] != ranked[:, :-1]).any(axis=0)
    rep_idx = order[new]
    # one id per line in the narrowest dtype that holds them all
    vid = np.empty(el3.m, dtype=np.min_scalar_type(len(rep_idx) - 1))
    vid[order] = np.cumsum(new) - 1
    tables = np.empty((len(rep_idx), geo.K), dtype=np.int64)
    for v, rep in enumerate(rep_idx):
        tables[v] = model.action.matrix_to_permutation(el3[rep]).table
    return vid, tables


def _copy_keys(el3):
    """(words, m) uint64 keys whose lexicographic order is that of the copies' rows.

    The 3s rows of 3s bits each are packed first row highest, 64 // 3s rows
    to a word, so comparing keys word by word compares the rows in order.
    """
    n = el3.n
    per_word = 64 // n
    words = []
    for start in range(0, n, per_word):
        chunk = el3.rows[:, start:start + per_word]
        shifts = np.uint64(n) * np.arange(chunk.shape[1] - 1, -1, -1, dtype=np.uint64)
        words.append(np.bitwise_or.reduce(chunk << shifts, axis=1))
    return np.array(words)


class GeneratingSet:
    """Line actions pulled through every axis, labeled, with provenance.

    With A actions, generator i is action i % A on axis i // A + 1: every
    action on axis 1, then every action on axis 2, and so on.  `actions`
    holds one read-only (vid, tables) pair per label, and the pair moves
    line j of any axis by tables[vid[j]].  A shape-only set has labels but
    no actions.
    """

    def __init__(self, model, labels, notes, actions=None, regime="desk", name="",
                 from_el3=False):
        if len(set(labels)) != len(labels):
            raise ValueError("generator labels must be unique")
        if actions is not None:
            actions = tuple(actions)
            if len(actions) != len(labels):
                raise ValueError(f"{len(actions)} line actions for {len(labels)} labels")
            for vid, tables in actions:
                vid.setflags(write=False)
                tables.setflags(write=False)
        self.model = model
        self._labels = list(labels)
        self._notes = list(notes)
        self.actions = actions
        self.regime = regime
        self.name = name
        self._from_el3 = from_el3

    def el3_involutions(self):
        """The EL3 involutions a build_SN set pulls through its axes, one at
        a time, else None.

        Built again on each call rather than kept: one dense (m, 3s) array
        each, 43 MB in all at s = 1, d = 6.
        """
        if not self._from_el3:
            return None
        return el3_involutions(self.model.s, self.model.geometry.lines_per_axis)

    @property
    def el3_elements(self):
        """The list form of `el3_involutions`, else None."""
        involutions = self.el3_involutions()
        return None if involutions is None else list(involutions)

    def __len__(self):
        return self.model.d * len(self._labels)

    def describe(self):
        """(label, axis, provenance) of every generator, in generator order."""
        for axis in range(1, self.model.d + 1):
            for label, note in zip(self._labels, self._notes):
                yield f"pi{axis}.{label}", axis, f"axis {axis}, {note}"

    @property
    def materializable(self):
        return self.actions is not None

    def _line_actions(self):
        if self.actions is None:
            raise ValueError(f"{self.name} is shape-only: its generators have no line actions")
        return self.actions

    def materialize(self, i):
        actions = self._line_actions()
        axis, k = divmod(range(len(self))[i], len(actions))
        vid, tables = actions[k]
        return self.model.lines_to_permutation(axis + 1, tables[vid])

    def permutations(self):
        return [self.materialize(i) for i in range(len(self))]

    def all_even(self):
        # every axis image of an action has the action's parity
        return not any(_action_parity(vid, tables) for vid, tables in self._line_actions())


def _action_parity(vid, tables):
    """Parity of the permutation moving line j by tables[vid[j]]."""
    count, labels = cycle_labels(tables)
    row_of_cycle = np.empty(count, dtype=np.int64)
    row_of_cycle[labels] = np.arange(len(tables))[:, None]
    cycles = np.bincount(row_of_cycle, minlength=len(tables))
    variant_par = (tables.shape[1] - cycles) % 2
    counts = np.bincount(vid, minlength=len(tables))
    return int(counts @ variant_par) % 2


_POSITION_NAMES = ["12", "13", "21", "23", "31", "32"]


def build_SN(s, d=6):
    """The union over all d axis embeddings of the involution generating set.

    At desk sizes every generator is realizable; past the table limits the
    set is shape-only (labels and counts, no permutations).
    """
    model = CubeModel(s, d)
    regime = "certified-shape" if (s > 6 and d == 6) else "desk"
    name = f"S_N(s={s},d={d})"
    m = model.geometry.lines_per_axis

    if not model.materializable:
        size = el3_generating_set_size(s, d)
        return GeneratingSet(model, [f"g{k}" for k in range(size)],
                             [f"involution {k}" for k in range(size)],
                             regime=regime, name=name)

    names = _involution_labels(s, m)
    # an involution acts on the lines of every axis alike, so its line
    # actions are computed once; the involutions are built one at a time
    # and dropped once their actions are known
    actions = [el3_line_actions(model, el) for el in el3_involutions(s, m)]
    return GeneratingSet(model, names, [f"involution {n}" for n in names], actions,
                         regime=regime, name=name, from_el3=True)


def _involution_labels(s, m):
    from .ring import tuple_length
    t = tuple_length(s, m)
    names = [f"e{p}" for p in _POSITION_NAMES]
    ring_names = ["a", "b"] + [f"g{i}" for i in range(t)]
    for rn in ring_names:
        names.extend(f"{rn}.e{p}" for p in _POSITION_NAMES)
    return names


def build_Fn(n, base_perms, m):
    """Union of the base set's images under the window embeddings of [0, n).

    `base_perms` act on [0, m); each window is an m-subset of [0, n) and the
    embedded copy acts on the window's sorted points.  Returns the
    permutations, window by window, and the windows.
    """
    windows = _blocks.window_family(n, m)
    perms = []
    for w_idx, window in enumerate(windows):
        points = np.asarray(window, dtype=np.int64)
        require(len(points) == m, f"window {w_idx} has {len(points)} points, not {m}")
        for g in base_perms:
            if g.n != m:
                raise ValueError("base generators must act on [0, m)")
            table = np.arange(n, dtype=np.int64)
            table[points] = points[g.table]
            perms.append(Permutation(table, _validate=False))
    return perms, windows


def build_sym(n, fn_perms):
    """Append one odd permutation (the transposition of the first two points)."""
    table = np.arange(n, dtype=np.int64)
    table[0], table[1] = 1, 0
    return list(fn_perms) + [Permutation(table, _validate=False)]
