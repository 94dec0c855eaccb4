"""GF(2) linear algebra: batches of bit-packed square matrices and the side-field action.

A matrix row is a word whose bit j is the entry in column j.  Vectors are
words too (bit i = coordinate i) and matrices act on them from the left.
"""

import numpy as np

from .errors import require
from .perms import Permutation

_BIT = np.arange(64, dtype=np.uint64)
_ONE = np.uint64(1)
_UNIT = _ONE << _BIT  # row i of the identity is _UNIT[i]
_UNIT.setflags(write=False)


class MatGF2:
    """Immutable batch of m square n x n matrices over GF(2).

    `rows` is an (m, n) uint64 array; bit j of rows[c, i] is entry (i, j) of
    copy c.  MatGF2(n, rows) with n row ints is a single matrix (m = 1).
    Every operation acts on all copies at once; + and * also pair a single
    matrix with every copy of a batch.
    """

    __slots__ = ("n", "m", "rows")

    def __init__(self, n, rows):
        arr = np.array(rows, dtype=np.uint64, ndmin=2)
        if arr.ndim != 2 or arr.shape[1] != n:
            raise ValueError("row count must equal n")
        if (arr >> np.uint64(n)).any():
            raise ValueError("row has bits outside the matrix width")
        arr.setflags(write=False)
        self.n, self.m, self.rows = n, arr.shape[0], arr

    @classmethod
    def _wrap(cls, n, rows):
        """Wrap trusted (m, n) uint64 rows without a copy or checks."""
        out = object.__new__(cls)
        rows.setflags(write=False)
        out.n, out.m, out.rows = n, rows.shape[0], rows
        return out

    @classmethod
    def identity(cls, n, m=1):
        return cls._wrap(n, np.repeat(_UNIT[None, :n], m, axis=0))

    @classmethod
    def from_int(cls, n, values):
        """One matrix per value, unpacking n*n bits row-major (row i = bits [i*n, (i+1)*n))."""
        values = np.asarray(values, dtype=np.uint64).reshape(-1, 1)
        return cls(n, (values >> (np.uint64(n) * _BIT[:n])) & ((_ONE << np.uint64(n)) - _ONE))

    def __getitem__(self, idx):
        """The copies selected by an index, slice or mask, as a batch."""
        return self._wrap(self.n, self.rows[idx].reshape(-1, self.n))

    def __eq__(self, other):
        return (isinstance(other, MatGF2) and self.n == other.n and self.m == other.m
                and self.rows.tobytes() == other.rows.tobytes())

    def __hash__(self):
        return hash((self.n, self.m, self.rows.tobytes()))

    def __add__(self, other):
        if self.n != other.n:
            raise ValueError("size mismatch")
        return self._wrap(self.n, self.rows ^ other.rows)

    def __mul__(self, other):
        if not isinstance(other, MatGF2):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("size mismatch")
        # row i of A*B is the XOR of B's rows at the set bits of A's row i
        bits = (self.rows[:, :, None] >> _BIT[:self.n]) & _ONE
        return self._wrap(self.n, np.bitwise_xor.reduce(bits * other.rows[:, None, :], axis=2))

    def is_zero(self):
        return not self.rows.any()

    def identity_mask(self):
        """(m,) bool: which copies are the identity."""
        return (self.rows == _UNIT[:self.n]).all(axis=1)

    def _single(self):
        if self.m != 1:
            raise ValueError("operation needs a single matrix")
        return self.rows[0]

    def apply(self, vec):
        """Matrix times column vectors: vec is an int bitmask or an array of them."""
        # bit i of the image is the parity of vec & row i, XOR-folded down to bit 0
        x = np.asarray(vec, dtype=np.uint64)[..., None] & self._single()
        for shift in (32, 16, 8, 4, 2, 1):
            x ^= x >> np.uint64(shift)
        out = np.bitwise_or.reduce((x & _ONE) << _BIT[:self.n], axis=-1)
        return int(out) if out.ndim == 0 else out

    def invertible_mask(self):
        """(m,) bool: which copies are invertible."""
        return self._gauss_jordan()[0]

    def inverse(self):
        ok, inv = self._gauss_jordan()
        if not ok.all():
            raise ValueError("matrix is singular")
        return self._wrap(self.n, inv)

    def _gauss_jordan(self):
        """Batched elimination: (invertible mask, inverse rows valid where invertible)."""
        a = self.rows.copy()
        inv = np.repeat(_UNIT[None, :self.n], self.m, axis=0)
        ok = np.ones(self.m, dtype=bool)
        at = np.arange(self.m)
        for col in range(self.n):
            bit = (a >> _BIT[col]) & _ONE
            ok &= bit[:, col:].any(axis=1)
            # give row col the pivot bit by adding the first row at or below it that has it
            piv = col + bit[:, col:].argmax(axis=1)
            fix = _ONE - bit[:, col]
            a[:, col] ^= fix * a[at, piv]
            inv[:, col] ^= fix * inv[at, piv]
            bit[:, col] = 0
            a ^= bit * a[:, col, None]
            inv ^= bit * inv[:, col, None]
        return ok, inv

    def nullspace_basis(self):
        """Basis vectors (ints) of the right kernel of a single matrix, by enumeration."""
        vecs = np.arange(1 << self.n, dtype=np.uint64)
        return _span_basis(int(v) for v in vecs[self.apply(vecs) == 0])

    def power(self, e):
        result = MatGF2.identity(self.n, self.m)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result


def _span_basis(vectors, basis=()):
    """Reduced basis (ints, largest first) of the span of basis and vectors."""
    basis = list(basis)
    for cur in vectors:
        for b in basis:
            cur = min(cur, cur ^ b)
        if cur:
            basis.append(cur)
            basis.sort(reverse=True)
    return basis


def projector_with_kernel(c):
    """Projector pi with ker(pi) = ker(c); needs a complement of the kernel."""
    n = c.n
    kernel = c.nullspace_basis()
    # extend the kernel basis by unit vectors; the added ones span the image side
    span = _span_basis(kernel)
    complement = []
    for j in range(n):
        grown = _span_basis([1 << j], span)
        if len(grown) > len(span):
            span = grown
            complement.append(1 << j)
    # change of basis: columns are [complement | kernel]
    rows = [0] * n
    for j, v in enumerate(complement + kernel):
        for i in range(n):
            if (v >> i) & 1:
                rows[i] |= 1 << j
    P = MatGF2(n, rows)
    D = MatGF2(n, [1 << i if i < len(complement) else 0 for i in range(n)])
    return P * D * P.inverse()


# -- primitive element search --------------------------------------------------


def _prime_factors(k):
    out = []
    d = 2
    while d * d <= k:
        if k % d == 0:
            out.append(d)
            while k % d == 0:
                k //= d
        d += 1
    if k > 1:
        out.append(k)
    return out


def primitive_polynomial(n):
    """Lowest primitive polynomial of degree n over GF(2), as an int."""
    K = (1 << n) - 1
    primes = _prime_factors(K)
    ident = MatGF2.identity(n)
    # candidates have constant term 1; iterate in increasing numeric order.
    # x^e = 1 modulo f exactly when the companion matrix of f has C^e = I
    for middle in range(0, 1 << (n - 1)):
        f = (1 << n) | (middle << 1) | 1
        C = companion_matrix(f, n)
        if C.power(K) == ident and all(C.power(K // p) != ident for p in primes):
            return f
    require(False, f"no primitive polynomial of degree {n} found")


def companion_matrix(f, n):
    """Companion matrix of a monic degree-n polynomial (acts as mult by x)."""
    rows = [0] * n
    # x * x^(n-1) = f - x^n, i.e. the low n bits of f
    for i in range(n - 1):
        rows[i + 1] |= 1 << i
    for i in range(n):
        if (f >> i) & 1:
            rows[i] |= 1 << (n - 1)
    return MatGF2(n, rows)


def primitive_order_K_element(s):
    """Matrix of size 3s whose multiplicative order is exactly K = 2^(3s)-1.

    Acts as a single K-cycle on the nonzero vectors.
    """
    n = 3 * s
    f = primitive_polynomial(n)
    return companion_matrix(f, n)


class SideFieldAction:
    """Discrete-log labeling of the K nonzero vectors of GF(2)^(3s).

    Label j stands for the vector M^j * e_0 where M is the fixed order-K
    generator, so M itself acts as the shift j -> j+1 mod K.
    """

    def __init__(self, s):
        self.s = s
        self.n = 3 * s
        self.K = (1 << self.n) - 1
        self.generator = primitive_order_K_element(s)
        # M^j e_0 for j <= K, doubling: the next 2^k vectors are M^(2^k) times the first 2^k
        vecs = np.ones(1, dtype=np.uint64)
        step = self.generator
        while len(vecs) <= self.K:
            vecs = np.concatenate([vecs, step.apply(vecs)])
            step = step * step
        require(vecs[self.K] == 1, "generator does not have order exactly K")
        self.vectors = vecs[:self.K]
        require(len(np.unique(self.vectors)) == self.K,
                "generator orbit does not cover all vectors")
        self.dlog = np.zeros(self.K + 1, dtype=np.int64)
        self.dlog[self.vectors] = np.arange(self.K)

    def matrix_to_permutation(self, mat):
        """Permutation of the K labels induced by an invertible matrix."""
        if mat.n != self.n:
            raise ValueError("matrix size mismatch")
        images = mat.apply(self.vectors)
        # the vectors are all the nonzero ones, so mat is singular iff one maps to 0
        if not images.all():
            raise ValueError("singular matrix does not permute the labels")
        return Permutation(self.dlog[images], _validate=False)
