"""The product ring R = Mat_s(GF(2))^m, the group EL3(R), and GEM words.

Ring elements hold one s x s bit-matrix per copy, packed as a (m, s) uint32
array of bit rows.  EL3 elements are 3 x 3 grids of ring elements.  The
factorization routine writes any EL3 element as a short product of
generalized elementary matrices (identity plus a single off-diagonal row or
column pattern), which are involutions in characteristic 2.
"""

from functools import lru_cache

import numpy as np

from .errors import require
from .gf2 import MatGF2, projector_with_kernel

_WORD_BOUND = 17  # binding bound on a factorization word
_CORNER_BOUND = 10


@lru_cache(maxsize=64)
def _one_rows(s, m):
    rows = np.tile(np.uint32(1) << np.arange(s, dtype=np.uint32), (m, 1))
    rows.setflags(write=False)
    return rows


class RingElement:
    """Element of Mat_s(GF(2))^m; immutable."""

    __slots__ = ("s", "m", "rows")

    def __init__(self, s, m, rows, copy=True):
        arr = np.asarray(rows, dtype=np.uint32)
        if arr.shape != (m, s):
            raise ValueError(f"expected shape {(m, s)}, got {arr.shape}")
        if copy:
            arr = arr.copy()
        arr.setflags(write=False)
        self.s = s
        self.m = m
        self.rows = arr

    @classmethod
    def zero(cls, s, m):
        return cls(s, m, np.zeros((m, s), dtype=np.uint32), copy=False)

    @classmethod
    def one(cls, s, m):
        return cls(s, m, _one_rows(s, m), copy=False)

    @classmethod
    def constant(cls, mat, m):
        """Every copy equal to the given MatGF2."""
        row = np.array(mat.rows, dtype=np.uint32)
        return cls(mat.n, m, np.tile(row, (m, 1)), copy=False)

    @classmethod
    def from_components(cls, comps):
        """Build from a list of m MatGF2 of equal size."""
        s = comps[0].n
        rows = np.array([c.rows for c in comps], dtype=np.uint32)
        return cls(s, len(comps), rows, copy=False)

    def component(self, c):
        return MatGF2(self.s, [int(r) for r in self.rows[c]])

    def components(self):
        return [self.component(c) for c in range(self.m)]

    def __add__(self, other):
        self._check(other)
        return RingElement(self.s, self.m, self.rows ^ other.rows, copy=False)

    def __mul__(self, other):
        if not isinstance(other, RingElement):
            return NotImplemented
        self._check(other)
        s = self.s
        out = np.zeros((self.m, s), dtype=np.uint32)
        # row i of (A*B) = XOR of B's rows at the set bits of A's row i
        for j in range(s):
            bits = (self.rows >> np.uint32(j)) & np.uint32(1)
            out ^= bits * other.rows[:, j:j + 1]
        return RingElement(s, self.m, out, copy=False)

    def _check(self, other):
        if self.s != other.s or self.m != other.m:
            raise ValueError("ring element shape mismatch")

    def __eq__(self, other):
        return (isinstance(other, RingElement) and self.s == other.s
                and self.m == other.m and np.array_equal(self.rows, other.rows))

    def __hash__(self):
        return hash((self.s, self.m, self.rows.tobytes()))

    def is_zero(self):
        return not self.rows.any()

    def is_one(self):
        return np.array_equal(self.rows, _one_rows(self.s, self.m))

    def is_invertible(self):
        return all(c.is_invertible() for c in self.components())

    def inverse(self):
        return RingElement.from_components([c.inverse() for c in self.components()])

    def __repr__(self):
        return f"RingElement(s={self.s}, m={self.m})"


class EL3Element:
    """Invertible 3 x 3 matrix over R, one per copy in SL_{3s}(GF(2))."""

    __slots__ = ("s", "m", "blocks")

    def __init__(self, blocks):
        # blocks: 3 x 3 nested list of RingElement
        self.blocks = [[blocks[i][j] for j in range(3)] for i in range(3)]
        self.s = blocks[0][0].s
        self.m = blocks[0][0].m

    @classmethod
    def identity(cls, s, m):
        one, zero = RingElement.one(s, m), RingElement.zero(s, m)
        return cls([[one if i == j else zero for j in range(3)] for i in range(3)])

    @classmethod
    def from_pattern(cls, s, m, entries):
        """Identity plus the given {(i, j): RingElement} off-diagonal entries."""
        base = cls.identity(s, m)
        blocks = [row[:] for row in base.blocks]
        for (i, j), val in entries.items():
            if i == j:
                raise ValueError("pattern entries must be off-diagonal")
            blocks[i][j] = blocks[i][j] + val
        return cls(blocks)

    @classmethod
    def elementary(cls, s, m, i, j, coeff):
        return cls.from_pattern(s, m, {(i, j): coeff})

    def __mul__(self, other):
        if not isinstance(other, EL3Element):
            return NotImplemented
        out = []
        for i in range(3):
            row = []
            for j in range(3):
                acc = self.blocks[i][0] * other.blocks[0][j]
                acc = acc + self.blocks[i][1] * other.blocks[1][j]
                acc = acc + self.blocks[i][2] * other.blocks[2][j]
                row.append(acc)
            out.append(row)
        return EL3Element(out)

    def __eq__(self, other):
        return (isinstance(other, EL3Element) and
                all(self.blocks[i][j] == other.blocks[i][j]
                    for i in range(3) for j in range(3)))

    def __hash__(self):
        return hash(tuple(self.blocks[i][j] for i in range(3) for j in range(3)))

    def copy_matrix(self, c):
        """The copy-c component as a single 3s x 3s MatGF2."""
        s = self.s
        rows = [0] * (3 * s)
        for bi in range(3):
            for bj in range(3):
                comp = self.blocks[bi][bj].rows[c]
                for r in range(s):
                    rows[bi * s + r] |= int(comp[r]) << (bj * s)
        return MatGF2(3 * s, rows)

    @classmethod
    def from_copy_matrices(cls, mats):
        """Assemble from m matrices of size 3s x 3s."""
        n = mats[0].n
        if n % 3:
            raise ValueError("matrix size must be divisible by 3")
        s = n // 3
        m = len(mats)
        mask = (1 << s) - 1
        blocks = []
        for bi in range(3):
            row = []
            for bj in range(3):
                rows = np.zeros((m, s), dtype=np.uint32)
                for c, mat in enumerate(mats):
                    for r in range(s):
                        rows[c, r] = (mat.rows[bi * s + r] >> (bj * s)) & mask
                row.append(RingElement(s, m, rows, copy=False))
            blocks.append(row)
        return cls(blocks)

    def inverse(self):
        return EL3Element.from_copy_matrices(
            [self.copy_matrix(c).inverse() for c in range(self.m)])

    def is_identity(self):
        return self == EL3Element.identity(self.s, self.m)

    def is_involution(self):
        return (self * self).is_identity()

    def is_gem(self):
        """Identity diagonal with off-diagonal support in one row or column."""
        one = RingElement.one(self.s, self.m)
        if any(self.blocks[i][i] != one for i in range(3)):
            return False
        nonzero = [(i, j) for i in range(3) for j in range(3)
                   if i != j and not self.blocks[i][j].is_zero()]
        if len(nonzero) <= 1:
            return True
        rows = {i for i, _ in nonzero}
        cols = {j for _, j in nonzero}
        return len(rows) == 1 or len(cols) == 1

    def __repr__(self):
        return f"EL3Element(s={self.s}, m={self.m})"


class GemWord:
    """Ordered list of GEM letters whose product is the factored target."""

    def __init__(self, letters, target):
        self.letters = list(letters)
        self.target = target
        for letter in self.letters:
            if not letter.is_gem():
                raise ValueError("letter fails the GEM predicate")

    def __len__(self):
        return len(self.letters)

    def product(self):
        acc = EL3Element.identity(self.target.s, self.target.m)
        for letter in self.letters:
            acc = acc * letter
        return acc

    def verify(self):
        return self.product() == self.target


# -- generating sets ----------------------------------------------------------


def tuple_length(s, m):
    """Smallest t with |Mat_s(GF(2))|^t >= m."""
    size = 1 << (s * s)
    t = 0
    cap = 1
    while cap < m:
        cap *= size
        t += 1
    return t


def ring_generators(s, m):
    """Generators of R = Mat_s(GF(2))^m as a unital ring: 2 + t elements.

    The first two have constant components (the canonical pair generating one
    matrix algebra); the remaining t spell out each copy's index in base
    |Mat_s(GF(2))|, which separates the copies.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if s == 1:
        # a 1 x 1 algebra is generated by 1; keep the count 2 + t anyway
        abar = MatGF2.identity(1)
        bbar = MatGF2.identity(1)
    else:
        abar = MatGF2.unit(s, 1, 0)
        bbar = MatGF2(s, [1 << (i + 1) if i + 1 < s else 0 for i in range(s)])
    t = tuple_length(s, m)
    gens = [RingElement.constant(abar, m), RingElement.constant(bbar, m)]
    size = 1 << (s * s)
    idx = np.arange(m, dtype=np.int64)
    for i in range(t):
        digits = (idx // size**i) % size
        rows = np.zeros((m, s), dtype=np.uint32)
        for r in range(s):
            rows[:, r] = (digits >> (r * s)) & ((1 << s) - 1)
        gens.append(RingElement(s, m, rows, copy=False))
    return gens


_POSITIONS = [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]


def el3_generating_set(s, m):
    """The involution generating set of EL3(R): 18 + 6t elements.

    Six plain elementary matrices plus one per (ring generator, position)
    pair; every element squares to the identity in characteristic 2.
    """
    one = RingElement.one(s, m)
    out = [EL3Element.elementary(s, m, i, j, one) for i, j in _POSITIONS]
    for gen in ring_generators(s, m):
        for i, j in _POSITIONS:
            out.append(EL3Element.elementary(s, m, i, j, gen))
    return out


def el3_generating_set_size(s, d):
    """Size of the generating set at side K = 2^(3s)-1 without materializing."""
    K = (1 << (3 * s)) - 1
    return 18 + 6 * tuple_length(s, K ** (d - 1))


# -- commutator and involution decompositions --------------------------------


@lru_cache(maxsize=None)
def _gl_elements(s):
    """All invertible s x s matrices, in increasing packed-int order."""
    out = []
    for v in range(1 << (s * s)):
        mat = MatGF2.from_int(s, v)
        if mat.is_invertible():
            out.append(mat)
    return tuple(out)


@lru_cache(maxsize=None)
def _involutions(s):
    ident = MatGF2.identity(s)
    return tuple(m for m in _gl_elements(s) if m * m == ident)


@lru_cache(maxsize=None)
def _commutator_table(s):
    """Map p -> (v, w) with p = v w v^-1 w^-1, exhaustive for small s."""
    table = {}
    els = _gl_elements(s)
    total = len(els)
    for v in els:
        v_inv = v.inverse()
        for w in els:
            p = v * w * v_inv * w.inverse()
            if p not in table:
                table[p] = (v, w)
                if len(table) == total:
                    return table
    return table


def commutator_pair(mat, rng=None, budget=10**6):
    """Find (v, w) with mat = [v, w]; exhaustive for s <= 3, randomized beyond."""
    s = mat.n
    if s <= 3:
        table = _commutator_table(s)
        if mat not in table:
            raise ValueError("component is not a commutator of invertible elements")
        return table[mat]
    if rng is None:
        rng = np.random.default_rng(0)
    for _ in range(budget):
        v = _random_invertible(s, rng)
        w = _random_invertible(s, rng)
        if v * w * v.inverse() * w.inverse() == mat:
            return v, w
    raise ValueError("randomized commutator search exhausted its budget")


def _random_invertible(s, rng):
    while True:
        mat = MatGF2(s, [int(rng.integers(0, 1 << s)) for _ in range(s)])
        if mat.is_invertible():
            return mat


def commutator_decompose(u, rng=None, budget=10**6):
    """Write an invertible RingElement as a group commutator, per copy.

    Every copy must lie in the commutator subgroup of GL_s(GF(2)); copies
    that do not raise a ValueError naming the offending component.
    """
    vs, ws = [], []
    for c in range(u.m):
        comp = u.component(c)
        if not comp.is_invertible():
            raise ValueError(f"component {c} is not invertible")
        try:
            v, w = commutator_pair(comp, rng=rng, budget=budget)
        except ValueError as exc:
            raise ValueError(f"component {c}: {exc}") from exc
        vs.append(v)
        ws.append(w)
    return RingElement.from_components(vs), RingElement.from_components(ws)


def _strongly_real_pair(mat):
    """mat = t1 * t2 with both factors involutions, or None."""
    ident = MatGF2.identity(mat.n)
    for t1 in _involutions(mat.n):
        t2 = t1 * mat
        if t2 * t2 == ident:
            return t1, t2
    return None


# -- the factorization itself -------------------------------------------------


def _combine_invertible(target, helpers):
    """Coefficients a_i with target + sum a_i * helper_i invertible (one copy)."""
    s = target.n
    size = 1 << (s * s)
    k = len(helpers)
    # lex enumeration over coefficient tuples, cheap cases first
    for packed in range(size**k):
        coeffs = []
        rest = packed
        for _ in range(k):
            coeffs.append(MatGF2.from_int(s, rest % size))
            rest //= size
        acc = target
        for coef, helper in zip(coeffs, helpers):
            acc = acc + coef * helper
        if acc.is_invertible():
            return coeffs
    raise ValueError("no invertible combination exists; input not unimodular")


def _ring_combine_invertible(target, helpers):
    """Vector version of _combine_invertible over all copies."""
    m = target.m
    per_copy = []
    for c in range(m):
        per_copy.append(_combine_invertible(
            target.component(c), [h.component(c) for h in helpers]))
    out = []
    for i in range(len(helpers)):
        out.append(RingElement.from_components([per_copy[c][i] for c in range(m)]))
    return out


class _Work:
    """Mutable 3 x 3 grid of ring elements supporting row operations."""

    def __init__(self, el3):
        self.b = [[el3.blocks[i][j] for j in range(3)] for i in range(3)]

    def row_add(self, i, j, coeff):
        """row_i += coeff * row_j."""
        for col in range(3):
            self.b[i][col] = self.b[i][col] + coeff * self.b[j][col]

    def entry(self, i, j):
        return self.b[i][j]


def _corner_parameters(p_comp):
    """Per-copy parameters (x1, y1, x2, y2) for the two four-letter factors.

    Each factor realizes diag(1 + x*y, (1 + y*x)^-1, 1); the pair multiplies
    to diag(p, 1, 1).  Strongly real components use two square-zero unipotent
    factors; everything else goes through a commutator pair.
    """
    s = p_comp.n
    ident = MatGF2.identity(s)
    if p_comp == ident:
        zero = MatGF2.zero(s)
        return zero, zero, zero, zero
    # enumerating involutions is only cheap for small s
    pair = _strongly_real_pair(p_comp) if s <= 4 else None
    if pair is not None:
        t1, t2 = pair
        c1, c2 = t1 + ident, t2 + ident
        return c1, projector_with_kernel(c1), c2, projector_with_kernel(c2)
    v, w = commutator_pair(p_comp)
    a = v * w * v.inverse()
    # factor 1 realizes (A, w); factor 2 realizes (w^-1, w^-1)
    x1 = (a + ident) * v
    y1 = v.inverse()
    w_inv = w.inverse()
    x2 = w_inv + ident
    y2 = ident
    return x1, y1, x2, y2


def _whitehead_letters(s, m, x, y):
    """Four GEM letters with product diag(1 + x*y, (1 + y*x)^-1, 1).

    Positions alternate (1,2) and (2,1); requires 1 + x*y invertible.
    """
    one = RingElement.one(s, m)
    p = one + x * y
    q = one + y * x
    letters = [
        EL3Element.elementary(s, m, 0, 1, x),
        EL3Element.elementary(s, m, 1, 0, y),
        EL3Element.elementary(s, m, 0, 1, p.inverse() * x),
        EL3Element.elementary(s, m, 1, 0, q * y),
    ]
    return letters


def gem_factor(g):
    """Factor g in EL3(R) into at most 17 generalized elementary matrices.

    Seven letters reduce g to a matrix differing from the identity only in
    the top-left corner; the corner is cleared by two four-letter
    Whitehead-type factors.  Identity letters are dropped, the multiply-back
    equality is asserted, and the word length bound is enforced.
    """
    s, m = g.s, g.m
    if g.is_identity():
        return GemWord([], g)
    if g.is_gem():
        return GemWord([g], g)

    work = _Work(g)
    one = RingElement.one(s, m)
    letters = []

    def emit(entries):
        """Apply a left GEM multiplier given as {(i, j): coeff} and record it."""
        rows = {i for i, _ in entries}
        cols = {j for _, j in entries}
        assert len(rows) == 1 or len(cols) == 1
        for (i, j), coeff in entries.items():
            work.row_add(i, j, coeff)
        letters.append(EL3Element.from_pattern(s, m, dict(entries)))

    # column 3 -> (0, 0, 1)^T
    c1, c2, c3 = (work.entry(i, 2) for i in range(3))
    a, b = _ring_combine_invertible(c1, [c2, c3])
    emit({(0, 1): a, (0, 2): b})
    pivot = work.entry(0, 2)
    x = (one + work.entry(2, 2)) * pivot.inverse()
    emit({(2, 0): x})
    assert work.entry(2, 2).is_one()
    emit({(0, 2): work.entry(0, 2), (1, 2): work.entry(1, 2)})
    assert work.entry(0, 2).is_zero() and work.entry(1, 2).is_zero()

    # column 2 -> (0, 1, 0)^T, keeping column 3 intact
    u1, u2 = work.entry(0, 1), work.entry(1, 1)
    (a2,) = _ring_combine_invertible(u1, [u2])
    emit({(0, 1): a2})
    z = (one + work.entry(1, 1)) * work.entry(0, 1).inverse()
    emit({(1, 0): z})
    assert work.entry(1, 1).is_one()
    emit({(0, 1): work.entry(0, 1), (2, 1): work.entry(2, 1)})
    assert work.entry(0, 1).is_zero() and work.entry(2, 1).is_zero()

    # column 1 -> (p, 0, 0)^T with p invertible
    p11 = work.entry(0, 0)
    p11_inv = p11.inverse()
    emit({(1, 0): work.entry(1, 0) * p11_inv, (2, 0): work.entry(2, 0) * p11_inv})
    assert work.entry(1, 0).is_zero() and work.entry(2, 0).is_zero()

    # corner diag(p, 1, 1): two Whitehead-type factors in positions 12/21
    params = [_corner_parameters(p11.component(c)) for c in range(m)]
    corner = []
    for which in range(2):
        x = RingElement.from_components([params[c][2 * which] for c in range(m)])
        y = RingElement.from_components([params[c][2 * which + 1] for c in range(m)])
        corner.extend(_whitehead_letters(s, m, x, y))

    word = [letter for letter in letters if not letter.is_identity()]
    word += [letter for letter in corner if not letter.is_identity()]
    result = GemWord(word, g)
    corner_len = sum(1 for letter in corner if not letter.is_identity())
    require(corner_len <= _CORNER_BOUND,
            f"corner length {corner_len} exceeds {_CORNER_BOUND}")
    require(len(result) <= _WORD_BOUND, f"word length {len(result)} exceeds bound")
    require(result.verify(), "multiply-back mismatch in GEM factorization")
    return result


def random_el3(s, m, rng, length=32):
    """Random product of letters from the involution generating set."""
    gens = el3_generating_set(s, m)
    acc = EL3Element.identity(s, m)
    for _ in range(length):
        acc = acc * gens[rng.integers(len(gens))]
    return acc
