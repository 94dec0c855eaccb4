"""Checks of altgen's outputs made apart from altgen.

Every function here takes plain numpy arrays and lists, imports nothing from
altgen, and returns a list of problems (empty when the output is right).
Permutations are image tables: p maps x to p[x], and a word's product is
composed the way altgen composes it, (p * q)(x) = p(q(x)).
"""

import math

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix, diags
from scipy.sparse.csgraph import connected_components


def cycle_count(table):
    """Number of cycles of a permutation, fixed points included.

    The cycles are the connected components of the graph x -> table[x].
    """
    n = len(table)
    graph = coo_matrix((np.ones(n, dtype=np.int8), (np.arange(n), table)),
                       shape=(n, n))
    return connected_components(graph, directed=True, connection="weak")[0]


def parity(table):
    return (len(table) - cycle_count(table)) % 2


def is_permutation(table, n):
    table = np.asarray(table)
    return (table.shape == (n,) and table.min(initial=0) >= 0
            and table.max(initial=-1) < n
            and np.array_equal(np.sort(table), np.arange(n)))


def compose(tables, n):
    """Product t0 * t1 * ... of image tables, i.e. x -> t0(t1(...(x)))."""
    acc = np.arange(n, dtype=np.int64)
    for t in tables:
        acc = acc[t]
    return acc


# -- cube words -----------------------------------------------------------------


class CubeIndex:
    """Point indices of the K^d cube, axis 1 fastest, and its shift letters."""

    def __init__(self, K, d):
        self.K, self.d, self.N = K, d, K ** d
        idx = np.arange(self.N, dtype=np.int64)
        self.coords = [(idx // K ** j) % K for j in range(d)]

    def valid_letters(self, records):
        """Each letter names an axis and gives one shift per line of it."""
        return all(1 <= r["axis"] <= self.d and len(r["shifts"]) == self.N // self.K
                   for r in records)

    def letter(self, axis, shifts):
        """Image table of the letter shifting every axis-`axis` line by its shift.

        A line is named by its other d-1 coordinates, encoded with the first
        remaining axis fastest.
        """
        K = self.K
        shifts = np.asarray(shifts, dtype=np.int64)
        line = np.zeros(self.N, dtype=np.int64)
        mult = 1
        for j in range(self.d):
            if j != axis - 1:
                line += self.coords[j] * mult
                mult *= K
        old = self.coords[axis - 1]
        new = (old + shifts[line]) % K
        return np.arange(self.N, dtype=np.int64) + (new - old) * K ** (axis - 1)

    def word_product(self, records):
        """Product of a word given as [{"axis": a, "shifts": [...]}, ...]."""
        return compose([self.letter(r["axis"], r["shifts"]) for r in records],
                       self.N)


def check_face_route(cube, records, sigma):
    """The word has 4d-5 letters and restricts to sigma on the face x1 = 0."""
    problems = []
    if len(records) != 4 * cube.d - 5:
        problems.append(f"grid_route gave {len(records)} letters, "
                        f"not {4 * cube.d - 5}")
    if not records or not cube.valid_letters(records):
        return problems + ["grid_route letters are malformed"]
    prod = cube.word_product(records)
    face = np.arange(len(sigma), dtype=np.int64) * cube.K
    if not np.array_equal(prod[face], np.asarray(sigma) * cube.K):
        problems.append("grid_route product differs from sigma on the face")
    return problems


def check_cycle_word(cube, records, cycle_table):
    """The word has at most 8d-1 letters and its product is the cycle exactly."""
    problems = []
    if len(records) > 8 * cube.d - 1:
        problems.append(f"conjugacy word has {len(records)} letters, "
                        f"more than {8 * cube.d - 1}")
    if not cube.valid_letters(records):
        return problems + ["conjugacy word letters are malformed"]
    if not np.array_equal(cube.word_product(records), cycle_table):
        problems.append("conjugacy word product differs from the cycle")
    return problems


# -- window block factors ---------------------------------------------------------


def check_block_factors(g, m, factors, windows):
    """Even factors, each inside one m-point window, multiplying back to g."""
    n = len(g)
    problems = []
    bound = 3 * math.ceil(n / m) + 3
    if len(factors) > bound:
        problems.append(f"{len(factors)} block factors exceed {bound}")
    window_sets = []
    for w in windows:
        if len(set(w)) != m or min(w) < 0 or max(w) >= n:
            problems.append("a window is not an m-subset of the points")
        window_sets.append(set(w))
    for i, f in enumerate(factors):
        if not is_permutation(f, n):
            problems.append(f"factor {i} is not a permutation")
            continue
        if parity(f):
            problems.append(f"factor {i} is odd")
        support = set(np.flatnonzero(f != np.arange(n)).tolist())
        if not any(support <= w for w in window_sets):
            problems.append(f"factor {i} lies in no window")
    if not problems and not np.array_equal(compose(factors, n), g):
        problems.append("block factors do not multiply back to g")
    return problems


# -- EL3 words ------------------------------------------------------------------


def check_gem_word(letters, target, max_letters=17):
    """Letters are (m, 3s, 3s) 0/1 arrays whose copy-wise product mod 2 is target."""
    problems = []
    if len(letters) > max_letters:
        problems.append(f"GEM word has {len(letters)} letters, more than {max_letters}")
    acc = np.broadcast_to(np.eye(target.shape[1], dtype=np.int64), target.shape)
    for letter in letters:
        acc = (acc @ letter.astype(np.int64)) % 2
    if not np.array_equal(acc, target):
        bad = int(np.count_nonzero((acc != target).any(axis=(1, 2))))
        problems.append(f"GEM word misses the target on {bad} copies")
    return problems


# -- generating sets and spectra ----------------------------------------------------


class GeneratorAudit:
    """Generator tables fed a batch at a time, so a large set never sits whole.

    Each table must be an involution, and even by a count of its cycles; the
    audit also merges the orbits of the group the tables generate (with
    scipy's connected components) and sums the sparse normalized adjacency
    T = (1/2k) sum over the k generators of (P_g + P_g^T).
    """

    def __init__(self, n):
        self.n = n
        self.count = 0
        self.problems = []
        self.label = np.arange(n)
        self.fixed = np.zeros(n)         # diagonal of sum P_g
        self.moves = csr_matrix((n, n))  # off-diagonal part of sum P_g

    def add(self, batch):
        n = self.n
        ident = np.arange(n)
        for t in batch:
            if len(t) != n or not np.array_equal(t[t], ident):
                self.problems.append(f"generator {self.count} does not square "
                                     "to the identity")
            elif np.count_nonzero(t != ident) // 2 % 2:
                # an involution's cycles are its fixed points and its 2-cycles
                self.problems.append(f"generator {self.count} is odd")
            self.count += 1
        rows = np.tile(ident, len(batch))
        cols = np.asarray(batch).ravel()
        moved = rows != cols
        self.fixed += np.bincount(rows[~moved], minlength=n)
        rows, cols = rows[moved], cols[moved]
        ones = np.ones(len(rows), dtype=np.int8)
        merged = coo_matrix((ones, (self.label[rows], self.label[cols])), shape=(n, n))
        self.label = connected_components(merged, directed=False)[1][self.label]
        self.moves = self.moves + coo_matrix((ones.astype(float), (rows, cols)),
                                             shape=(n, n)).tocsr()

    def orbits(self):
        return len(np.unique(self.label))

    def adjacency(self):
        both = self.moves + self.moves.T + diags(2 * self.fixed)
        return (both / (2 * self.count)).tocsr()


def audit(tables, batch=18):
    """A GeneratorAudit of a whole (k, n) table array."""
    result = GeneratorAudit(tables.shape[1])
    for start in range(0, len(tables), batch):
        result.add(tables[start:start + batch])
    return result


def check_eigenpair(T, lam, vec, tol=1e-8):
    """T vec = lam vec up to tol, with vec orthogonal to the constants."""
    vec = np.asarray(vec, dtype=float)
    norm = np.linalg.norm(vec)
    if not norm:
        return ["eigenvector is zero"]
    problems = []
    residual = np.linalg.norm(T @ vec - lam * vec) / norm
    if not residual <= tol:
        problems.append(f"eigenpair residual {residual:.3g} exceeds {tol:g}")
    drift = abs(vec.sum()) / (norm * math.sqrt(len(vec)))
    if not drift <= tol:
        problems.append(f"eigenvector is not orthogonal to the constants ({drift:.3g})")
    return problems


def check_gap(gap, sweep):
    problems = []
    if not gap > 0:
        problems.append(f"spectral gap {gap} is not positive")
    if sweep is not None and not gap / 2 <= sweep + 1e-12:
        problems.append(f"half the gap {gap / 2} exceeds the sweep bound {sweep}")
    return problems


def dense_gap(T):
    """1 minus the second eigenvalue of a small T, by numpy's dense eigvalsh."""
    vals = np.linalg.eigvalsh(T.toarray())
    return 1.0 - vals[-2]
