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
from .ring import el3_involutions, involution_labels
from . import blocks as _blocks

# the benchmark (perfbench/) still builds the cube under its old name
CubeModel = CubeGeometry


class ShiftVector:
    """Element of the axis-i image of the product of cyclic line groups.

    One shift in [0, K) per line, stored in the narrowest unsigned dtype
    that holds K - 1 (uint8 for s <= 2).
    """

    def __init__(self, model, axis, shifts):
        shifts = (np.asarray(shifts) % model.K).astype(np.min_scalar_type(model.K - 1))
        if shifts.shape != (model.lines_per_axis,):
            raise ValueError(
                f"expected one shift per line ({model.lines_per_axis}), got {shifts.shape}")
        if not 1 <= axis <= model.d:
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
        # K - shift stays in [1, K]; the constructor maps K back to 0
        return ShiftVector(self.model, self.axis, self.model.K - self.shifts)


def el3_line_actions(model, el3, action):
    """Per-line actions of an EL3 element: (variant ids, variant K-perms).

    `action` is the model's side-field labeling.  Variants are the distinct
    copy matrices in lexicographic order of their rows, each represented by
    its first copy.  The variant ids take the narrowest unsigned dtype that
    holds them (uint8 at desk sizes).
    """
    if el3.m != model.lines_per_axis:
        raise ValueError(
            f"element has {el3.m} copies; geometry needs {model.lines_per_axis}")
    keys = _copy_keys(el3)
    order = np.lexsort(keys[::-1])
    ranked = keys[:, order]
    new = np.ones(el3.m, dtype=bool)
    new[1:] = (ranked[:, 1:] != ranked[:, :-1]).any(axis=0)
    rep_idx = order[new]
    # one id per line in the narrowest dtype that holds them all
    vid = np.empty(el3.m, dtype=np.min_scalar_type(len(rep_idx) - 1))
    vid[order] = np.cumsum(new) - 1
    tables = np.empty((len(rep_idx), model.K), dtype=np.int64)
    for v, rep in enumerate(rep_idx):
        tables[v] = action.matrix_to_permutation(el3[rep]).table
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

    def __init__(self, model, labels, actions=None):
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
        self.actions = actions
        # the explicit bounds hold for s > 6 at d = 6
        self.regime = "certified-shape" if (model.s > 6 and model.d == 6) else "desk"
        self.name = f"S_N(s={model.s},d={model.d})"

    @property
    def el3_elements(self):
        """The EL3 involutions a materializable set pulls through its axes, else None."""
        if not self.materializable:
            return None
        return list(el3_involutions(self.model.s, self.model.lines_per_axis))

    def __len__(self):
        return self.model.d * len(self._labels)

    def describe(self):
        """(label, axis, provenance) of every generator, in generator order."""
        for axis in range(1, self.model.d + 1):
            for label in self._labels:
                yield f"pi{axis}.{label}", axis, f"axis {axis}, involution {label}"

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


def build_SN(s, d=6):
    """The union over all d axis embeddings of the involution generating set.

    At desk sizes every generator is realizable; past the table limits the
    set is shape-only (labels and counts, no permutations).
    """
    model = CubeGeometry(s, d)
    m = model.lines_per_axis
    labels = involution_labels(s, m)
    if not model.materializable:
        return GeneratingSet(model, labels)
    # an involution acts on the lines of every axis alike, so its line
    # actions are computed once; the involutions are built one at a time
    # and dropped once their actions are known
    action = SideFieldAction(s)
    return GeneratingSet(model, labels,
                         [el3_line_actions(model, el, action) for el in el3_involutions(s, m)])


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
