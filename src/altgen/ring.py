"""The product ring R = Mat_s(GF(2))^m, the group EL3(R), and GEM words.

A ring element is a MatGF2 batch of m s x s matrices, one per copy.  An EL3
element is the batch of its m 3s x 3s copy matrices, whose s x s block (i, j)
is its (i, j) entry over R.  The factorization routine writes any EL3 element
as a short product of generalized elementary matrices (identity plus a single
off-diagonal row or column pattern), which are involutions in characteristic 2.
"""

from functools import lru_cache, reduce
from operator import mul

import numpy as np

from .errors import require
from .gf2 import MatGF2, projector_with_kernel

_WORD_BOUND = 17  # binding bound on a factorization word
_CORNER_BOUND = 10
_CHUNK = 4096     # candidates a batched search tests at once
COMMUTATOR_BUDGET = 10**6   # invertible pairs the randomized commutator search tests
_GRID = np.arange(3, dtype=np.uint64)


class EL3Element(MatGF2):
    """Invertible 3 x 3 matrix over R: per copy, one element of SL_{3s}(GF(2))."""

    __slots__ = ()

    # its own class entry, so EL3 products can be timed and counted apart from other products
    __mul__ = MatGF2.__mul__

    @property
    def s(self):
        return self.n // 3

    @classmethod
    def identity(cls, s, m):
        return super().identity(3 * s, m)

    @classmethod
    def from_pattern(cls, s, m, entries):
        """Identity plus the given {(i, j): ring element} off-diagonal entries."""
        rows = MatGF2.identity(3 * s, m).rows.copy()
        for (i, j), val in entries.items():
            if i == j:
                raise ValueError("pattern entries must be off-diagonal")
            rows[:, i * s:(i + 1) * s] ^= val.rows << np.uint64(j * s)
        return cls._wrap(3 * s, rows)

    @classmethod
    def elementary(cls, s, m, i, j, coeff):
        return cls.from_pattern(s, m, {(i, j): coeff})

    def _grid(self, rows):
        """(m, 3, 3, s) view whose [c, i, j, r] is row r of block (i, j) of copy c."""
        s = np.uint64(self.s)
        cols = (rows.reshape(1, -1) >> (s * _GRID)[:, None]) & ((np.uint64(1) << s) - 1)
        return cols.reshape(3, -1, 3, self.s).transpose(1, 2, 0, 3)

    @property
    def blocks(self):
        """Read-only 3 x 3 grid of the s x s blocks, each a batch over the copies."""
        grid = self._grid(self.rows)
        return tuple(tuple(MatGF2._wrap(self.s, grid[:, i, j]) for j in range(3))
                     for i in range(3))

    def is_identity(self):
        return bool(self.identity_mask().all())

    def is_gem(self):
        """Identity diagonal with off-diagonal support in one row or column."""
        return bool(self._gem_mask(1)[0])

    def _gem_mask(self, parts):
        """(parts,) bool: is_gem of each of parts equal runs of the copies."""
        moved = self._grid((self + MatGF2.identity(self.n)).rows)
        moved = moved.reshape(parts, -1, 3, 3, self.s).any(axis=(1, 4))
        one_line = (moved.any(axis=2).sum(axis=1) <= 1) | (moved.any(axis=1).sum(axis=1) <= 1)
        return one_line & ~moved.diagonal(axis1=1, axis2=2).any(axis=1)


class GemWord:
    """Ordered list of GEM letters whose product is the factored target."""

    def __init__(self, letters, target):
        self.letters = list(letters)
        self.target = target
        for letter in self.letters:
            require(letter.is_gem(), "letter fails the GEM predicate")

    def __len__(self):
        return len(self.letters)

    def product(self):
        return reduce(mul, self.letters, EL3Element.identity(self.target.s, self.target.m))

    def verify(self):
        return self.product() == self.target

    def part_lengths(self, parts):
        """(parts,) word lengths of gem_factor on each of parts equal runs of the target's copies.

        A run's word is these letters cut to its copies, identity letters
        dropped, unless gem_factor's shortcuts apply: none for an identity
        run, the run itself for a GEM.
        """
        lengths = np.zeros(parts, dtype=np.int64)
        if self.letters:
            idle = np.stack([letter.identity_mask() for letter in self.letters])
            lengths = (~idle.reshape(len(self.letters), parts, -1).all(axis=2)).sum(axis=0)
        ident = self.target.identity_mask().reshape(parts, -1).all(axis=1)
        return np.where(ident, 0, np.where(self.target._gem_mask(parts), 1, lengths))


# -- generating sets ----------------------------------------------------------


def tuple_length(s, m):
    """Smallest t with |Mat_s(GF(2))|^t >= m."""
    t = 0
    while 1 << (s * s * t) < m:
        t += 1
    return t


def ring_generators(s, m):
    """Generators of R = Mat_s(GF(2))^m as a unital ring: 2 + t elements.

    The first two have constant components: a = E_{s-1,0} and the nilpotent
    shift b = E_01 + E_12 + ..., whose words span Mat_s(GF(2)); the remaining
    t spell out each copy's index in base |Mat_s(GF(2))|, which separates the
    copies.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if s == 1:
        # a 1 x 1 algebra is generated by 1; keep the count 2 + t anyway
        abar = bbar = [1]
    else:
        abar = [0] * (s - 1) + [1]  # the unit matrix E_{s-1,0}: row s - 1 is bit 0
        bbar = [1 << (i + 1) if i + 1 < s else 0 for i in range(s)]
    gens = [MatGF2(s, np.tile(abar, (m, 1))), MatGF2(s, np.tile(bbar, (m, 1)))]
    size = 1 << (s * s)
    idx = np.arange(m, dtype=np.int64)
    for i in range(tuple_length(s, m)):
        gens.append(MatGF2.from_int(s, (idx // size**i) % size))
    return gens


_POSITIONS = [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]


def involution_labels(s, m):
    """The label of each element of `el3_involutions(s, m)`, in its order.

    `eij` is the plain elementary matrix at position (i, j), counted from 1,
    and `x.eij` the one with ring generator x = a, b, g0, ..., g(t-1) there.
    No matrix is built, so shape-only sets are labeled too.
    """
    ring_names = ["a", "b"] + [f"g{k}" for k in range(tuple_length(s, m))]
    return [f"{prefix}e{i + 1}{j + 1}" for prefix in [""] + [f"{x}." for x in ring_names]
            for i, j in _POSITIONS]


def el3_involutions(s, m):
    """The involution generating set of EL3(R), one element at a time.

    Six plain elementary matrices plus one per (ring generator, position)
    pair, 18 + 6t in all; every element squares to the identity in
    characteristic 2.
    """
    for coeff in [MatGF2.identity(s)] + ring_generators(s, m):
        for i, j in _POSITIONS:
            yield EL3Element.elementary(s, m, i, j, coeff)


def el3_generating_set_size(s, d):
    """Size of the generating set at side K = 2^(3s)-1 without materializing."""
    K = (1 << (3 * s)) - 1
    return 18 + 6 * tuple_length(s, K ** (d - 1))


# -- commutator and involution decompositions --------------------------------


@lru_cache(maxsize=None)
def _gl_elements(s):
    """All invertible s x s matrices as one batch, in increasing packed-int order."""
    every = MatGF2.from_int(s, np.arange(1 << (s * s)))
    return every[every.invertible_mask()]


@lru_cache(maxsize=None)
def _commutator_table(s):
    """Map p -> (v, w) with p = v w v^-1 w^-1, exhaustive for small s.

    All pairs are formed at once, v major; each p keeps its first pair.
    """
    els = _gl_elements(s)
    inv = els.inverse()
    v, w = np.divmod(np.arange(els.m ** 2), els.m)
    p = els[v] * els[w] * inv[v] * inv[w]
    _, first = np.unique(p.rows, axis=0, return_index=True)
    return {p[k]: (els[v[k]], els[w[k]]) for k in sorted(first)}


def commutator_pair(mat, rng=None):
    """Find (v, w) with mat = [v, w]; exhaustive for s <= 3, randomized beyond."""
    s = mat.n
    if s <= 3:
        table = _commutator_table(s)
        if mat not in table:
            raise ValueError("component is not a commutator of invertible elements")
        return table[mat]
    rng = np.random.default_rng(0) if rng is None else rng
    # random pairs, _CHUNK drawn at a time; the budget counts the invertible pairs tested
    tested = 0
    while tested < COMMUTATOR_BUDGET:
        v, w = (MatGF2(s, rng.integers(0, 1 << s, size=(_CHUNK, s))) for _ in range(2))
        ok = np.flatnonzero(v.invertible_mask() & w.invertible_mask())[:COMMUTATOR_BUDGET - tested]
        tested += len(ok)
        v, w = v[ok], w[ok]
        hit = np.flatnonzero(((v * w * v.inverse() * w.inverse()).rows == mat.rows).all(axis=1))
        if len(hit):
            return v[hit[0]], w[hit[0]]
    raise ValueError("randomized commutator search exhausted its budget")


def _per_copy(search, *mats):
    """Run search once per distinct copy of mats and scatter its results to every copy.

    search maps single matrices to a tuple of single matrices of the same
    size.  Distinct copies are searched in the order of their first index, so
    a ValueError names the lowest-index copy that fails.
    """
    keys = np.concatenate([x.rows for x in mats], axis=1)
    # np.unique on one opaque key per copy: the copies' rows, viewed as bytes
    _, first, where = np.unique(keys.view(np.dtype((np.void, keys.shape[1] * 8))).ravel(),
                                return_index=True, return_inverse=True)
    results = [None] * len(first)
    for u in np.argsort(first):
        c = first[u]
        try:
            results[u] = search(*(x[c] for x in mats))
        except ValueError as exc:
            raise ValueError(f"component {c}: {exc}") from exc
    return [MatGF2._wrap(mats[0].n, np.concatenate([r[k].rows for r in results])[where])
            for k in range(len(results[0]))]


# -- the factorization itself -------------------------------------------------


def _combine_invertible(target, *helpers):
    """Coefficients a_i with target + sum a_i * helper_i invertible (one copy).

    The first in lex order of the packed coefficient tuples, cheap cases
    first, tested _CHUNK tuples at a time.
    """
    s, k = target.n, len(helpers)
    size = 1 << (s * s)
    for start in range(0, size**k, _CHUNK):
        packed = np.arange(start, min(start + _CHUNK, size**k))
        digits = [(packed // size**i) % size for i in range(k)]
        acc = target
        for digit, helper in zip(digits, helpers):
            acc = acc + MatGF2.from_int(s, digit) * helper
        ok = acc.invertible_mask()
        if ok.any():
            hit = int(ok.argmax())
            return tuple(MatGF2.from_int(s, digit[hit]) for digit in digits)
    raise ValueError("no invertible combination exists; input not unimodular")


def _corner_parameters(p):
    """Parameters (x1, y1, x2, y2) of the two four-letter factors (one copy).

    Each factor realizes diag(1 + x*y, (1 + y*x)^-1, 1); the pair multiplies
    to diag(p, 1, 1).  Strongly real components use two square-zero unipotent
    factors; everything else goes through a commutator pair.
    """
    s = p.n
    ident = MatGF2.identity(s)
    if p == ident:
        zero = MatGF2(s, [0] * s)
        return zero, zero, zero, zero
    # enumerating involutions is only cheap for small s
    if s <= 4:
        els = _gl_elements(s)
        t1 = els[(els * els).identity_mask()]
        t2 = t1 * p
        real = (t2 * t2).identity_mask()
        if real.any():
            # p = t1 * t2 with both factors involutions, t1 the first such
            k = real.argmax()
            c1, c2 = t1[k] + ident, t2[k] + ident
            return c1, projector_with_kernel(c1), c2, projector_with_kernel(c2)
    v, w = commutator_pair(p)
    v_inv, w_inv = v.inverse(), w.inverse()
    a = v * w * v_inv
    # factor 1 realizes (A, w); factor 2 realizes (w^-1, w^-1)
    return (a + ident) * v, v_inv, w_inv + ident, ident


def gem_factor(g):
    """Factor g in EL3(R) into at most 17 generalized elementary matrices.

    Seven letters reduce g to a matrix differing from the identity only in
    the top-left corner; the corner is cleared by two four-letter
    Whitehead-type factors.  Identity letters are dropped, the multiply-back
    equality is required, and the word length bound is enforced.
    """
    s, m = g.s, g.m
    if g.is_identity():
        return GemWord([], g)
    if g.is_gem():
        return GemWord([g], g)

    one = MatGF2.identity(s)
    letters = []
    work = g

    def emit(entries):
        """Apply a left GEM multiplier given as {(i, j): coeff}, record it, return the blocks."""
        nonlocal work
        rows = {i for i, _ in entries}
        cols = {j for _, j in entries}
        require(len(rows) == 1 or len(cols) == 1,
                "elimination letter spans more than one row or column")
        letters.append(EL3Element.from_pattern(s, m, entries))
        work = letters[-1] * work
        return work.blocks

    b = g.blocks
    # column 3 -> (0, 0, 1)^T
    a, c = _per_copy(_combine_invertible, b[0][2], b[1][2], b[2][2])
    b = emit({(0, 1): a, (0, 2): c})
    b = emit({(2, 0): (one + b[2][2]) * b[0][2].inverse()})
    b = emit({(0, 2): b[0][2], (1, 2): b[1][2]})

    # column 2 -> (0, 1, 0)^T, keeping column 3 intact
    (a,) = _per_copy(_combine_invertible, b[0][1], b[1][1])
    b = emit({(0, 1): a})
    b = emit({(1, 0): (one + b[1][1]) * b[0][1].inverse()})
    b = emit({(0, 1): b[0][1], (2, 1): b[2][1]})

    # column 1 -> (p, 0, 0)^T with p invertible
    p11 = b[0][0]
    p11_inv = p11.inverse()
    emit({(1, 0): b[1][0] * p11_inv, (2, 0): b[2][0] * p11_inv})

    # corner diag(p, 1, 1): two Whitehead-type factors, each four letters in
    # positions 12/21 with product diag(1 + x*y, (1 + y*x)^-1, 1)
    x1, y1, x2, y2 = _per_copy(_corner_parameters, p11)
    corner = []
    for x, y in ((x1, y1), (x2, y2)):
        corner += [EL3Element.elementary(s, m, 0, 1, x), EL3Element.elementary(s, m, 1, 0, y),
                   EL3Element.elementary(s, m, 0, 1, (one + x * y).inverse() * x),
                   EL3Element.elementary(s, m, 1, 0, (one + y * x) * y)]
    corner = [letter for letter in corner if not letter.is_identity()]
    result = GemWord([letter for letter in letters if not letter.is_identity()] + corner, g)
    require(len(corner) <= _CORNER_BOUND,
            f"corner length {len(corner)} exceeds {_CORNER_BOUND}")
    require(len(result) <= _WORD_BOUND, f"word length {len(result)} exceeds bound")
    require(result.verify(), "multiply-back mismatch in GEM factorization")
    return result


def random_el3(s, m, rng, length=32, count=1):
    """count random products of length letters from the involution generating set.

    The elements come stacked, element e on copies [e*m, (e+1)*m).  The
    letters are one size=(count, length) draw, which yields the values, and
    leaves rng in the state, of count*length scalar draws in turn: element e
    is what the e-th of count successive calls with count=1 returns.
    """
    gens = list(el3_involutions(s, m))
    acc = EL3Element.identity(s, m * count)
    for picks in rng.integers(len(gens), size=(count, length)).T:
        acc = acc * EL3Element._wrap(3 * s, np.concatenate([gens[k].rows for k in picks]))
    return acc
