"""Permutations of a finite point set, stored as image tables."""

import numpy as np


class Permutation:
    """Bijection on [0, n), immutable after construction.

    The image table maps x to table[x].  Composition follows the usual
    convention (p * q)(x) = p(q(x)).
    """

    __slots__ = ("table", "_parity")

    def __init__(self, table, _validate=True):
        arr = np.asarray(table, dtype=np.int64)
        if _validate:
            if arr.ndim != 1:
                raise ValueError("image table must be one-dimensional")
            seen = np.zeros(arr.shape[0], dtype=bool)
            if arr.shape[0]:
                if arr.min() < 0 or arr.max() >= arr.shape[0]:
                    raise ValueError("image table entries out of range")
            seen[arr] = True
            if not seen.all():
                raise ValueError("image table is not a bijection")
        arr.setflags(write=False)
        self.table = arr
        self._parity = None

    @property
    def n(self):
        return self.table.shape[0]

    @classmethod
    def identity(cls, n):
        return cls(np.arange(n, dtype=np.int64), _validate=False)

    @classmethod
    def from_cycles(cls, n, cycles):
        """Build from disjoint cycles given as sequences of points."""
        table = np.arange(n, dtype=np.int64)
        seen = set()
        for cyc in cycles:
            for x in cyc:
                if x in seen:
                    raise ValueError(f"point {x} appears in two cycles")
                seen.add(x)
            for a, b in zip(cyc, cyc[1:]):
                table[a] = b
            if len(cyc) > 1:
                table[cyc[-1]] = cyc[0]
        return cls(table, _validate=False)

    @classmethod
    def random(cls, n, rng):
        return cls(rng.permutation(n).astype(np.int64), _validate=False)

    def __mul__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"degree mismatch: {self.n} vs {other.n}")
        return Permutation(self.table[other.table], _validate=False)

    def inverse(self):
        inv = np.empty(self.n, dtype=np.int64)
        inv[self.table] = np.arange(self.n, dtype=np.int64)
        return Permutation(inv, _validate=False)

    def __eq__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.table, other.table)

    def is_identity(self):
        return bool((self.table == np.arange(self.n)).all())

    def _moved_cycle_labels(self):
        """(support, count, labels): the cycles of the moved points alone,
        renumbered in order, so a permutation moving few of many points
        costs its support."""
        support = self.support()
        count, labels = cycle_labels(np.searchsorted(support, self.table[support]))
        return support, count, labels

    def cycle_count(self):
        """Number of cycles, fixed points included."""
        support, count, _ = self._moved_cycle_labels()
        return count + self.n - len(support)

    def cycle_type(self):
        """Multiset of cycle lengths, fixed points included, sorted descending."""
        support, _, labels = self._moved_cycle_labels()
        moved = sorted(np.bincount(labels).tolist(), reverse=True)
        return tuple(moved) + (1,) * (self.n - len(support))

    @property
    def parity(self):
        """0 for even, 1 for odd; equals (n - #cycles) mod 2."""
        if self._parity is None:
            self._parity = (self.n - self.cycle_count()) % 2
        return self._parity

    def support(self):
        """Sorted array of non-fixed points."""
        return np.flatnonzero(self.table != np.arange(self.n))


def cycle_labels(tables):
    """Cycles of a permutation table, or of each row of a stack of tables.

    The cycles are the strongly connected components of the graph
    x -> table[x].  Returns (count, labels): labels has the shape of
    `tables`, and rows of a stack never share a label.
    """
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import connected_components

    tables = np.asarray(tables, dtype=np.int64)
    rows = np.atleast_2d(tables)
    n = rows.shape[1]
    heads = (rows + n * np.arange(len(rows))[:, None]).ravel()
    size = heads.size
    graph = csr_array((np.ones(size, dtype=np.int8), heads, np.arange(size + 1)),
                      shape=(size, size))
    count, labels = connected_components(graph, connection="strong")
    return count, labels.reshape(tables.shape)


def product(perms, n=None):
    """Left-to-right product: product([a, b, c]) = a * b * c."""
    perms = list(perms)
    if not perms:
        if n is None:
            raise ValueError("empty product needs an explicit degree")
        return Permutation.identity(n)
    acc = perms[0]
    for p in perms[1:]:
        acc = acc * p
    return acc
