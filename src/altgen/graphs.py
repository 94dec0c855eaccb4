"""Schreier and Cayley graphs in explicit and implicit (action) form.

All spectral work uses the degree-normalized adjacency T as the single
convention; generating multisets are symmetrized (every generator listed
together with its inverse, involutions twice), which keeps T symmetric and
doubly stochastic.
"""

import numpy as np

from .errors import require
from .perms import Permutation

CAYLEY_LIMIT = 2 * 10**6
# cube sets of at most this many points materialize their permutations
ACTION_FORM_LIMIT = 4000
# bytes an AxisBlockGraph may spend on its float blocks plus integer counts
AXIS_BLOCK_BUDGET = 2**30


class SparseGraph:
    """Regular multigraph given by its normalized adjacency action."""

    n = 0
    degree = 0

    def matvec(self, v):
        raise NotImplementedError

    def displacements(self, v):
        """v o g - v in point order for each (unsymmetrized) generator g, in any order."""
        raise NotImplementedError

    def edge_counts(self):
        """Integer adjacency as (src, dst, count) chunks; the counts sum to n * degree."""
        raise NotImplementedError

    def to_dense(self, limit=4000):
        if self.n > limit:
            raise ValueError(f"{self.n} vertices exceed the dense limit {limit}")
        T = np.zeros((self.n, self.n))
        for src, dst, count in self.edge_counts():
            np.add.at(T, (src, dst), count)
        return T / self.degree

    def is_connected(self):
        """Merge components one edge_counts chunk at a time.

        Each chunk's arcs join the component labels found so far, so no CSR
        holds more than one chunk.
        """
        from scipy.sparse import csr_array
        from scipy.sparse.csgraph import connected_components

        components, labels = self.n, np.arange(self.n)
        for src, dst, _ in self.edge_counts():
            merged = csr_array((np.ones(len(src), dtype=bool), (labels[src], labels[dst])),
                               shape=(components, components))
            components, relabel = connected_components(merged, directed=False)
            labels = relabel[labels]
        return components == 1


class ActionGraph(SparseGraph):
    """Graph of a point set under a list of permutations (plus inverses)."""

    def __init__(self, perms):
        if not perms:
            raise ValueError("need at least one permutation")
        self.n = perms[0].n
        self.perms = list(perms)
        tables = []
        for p in perms:
            if p.n != self.n:
                raise ValueError("permutations act on different point counts")
            tables.append(p.table)
            tables.append(p.inverse().table)
        self._tables = np.array(tables)
        self.degree = len(tables)

    def matvec(self, v):
        # one gather; the axis-0 sum adds the rows in table order
        return np.add.reduce(v[self._tables], axis=0, dtype=float) / self.degree

    def displacements(self, v):
        for t in self._tables[::2]:
            yield v[t] - v

    def edge_counts(self):
        # one table-major chunk, so is_connected merges once
        yield np.tile(np.arange(self.n), self.degree), self._tables.ravel(), 1


class EdgeGraph(SparseGraph):
    """Explicit symmetric multigraph from an edge list; must be regular."""

    def __init__(self, n, edges):
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        self.n = n
        both = np.concatenate([edges, edges[:, ::-1]])
        deg = np.bincount(both[:, 0], minlength=n)
        if n and not (deg == deg[0]).all():
            raise ValueError("edge list is not regular; spectral convention needs "
                             "a constant degree")
        self.degree = int(deg[0]) if n else 0
        self._both = both

    def matvec(self, v):
        out = np.zeros(self.n, dtype=float)
        np.add.at(out, self._both[:, 0], v[self._both[:, 1]])
        return out / self.degree

    def displacements(self, v):
        raise ValueError("edge-list graphs carry no generator actions")

    def edge_counts(self):
        yield self._both[:, 0], self._both[:, 1], 1


class AxisBlockGraph(SparseGraph):
    """Schreier graph of an axis-embedded generating set, as one sparse T.

    Each line action of the set acts on the lines of all d axes alike, so
    one (lines, K, K) array of integer edge counts, over the actions and
    their inverses, serves every axis.  Its entries are mapped through each
    axis's `lines` view to point pairs, so no index table is built, and
    summed over the axes as integers in one CSR over the points.  Only then
    is it divided by the degree, once, which keeps every entry an exact
    count / degree.
    """

    def __init__(self, genset):
        from scipy.sparse import csr_array

        model = genset.model
        self.model = model
        self.genset = genset
        self.n = model.N
        K = model.K
        m = model.lines_per_axis
        self.degree = 2 * len(genset)
        # no merged count exceeds the degree, which sets the narrowest exact
        # dtype; the estimate bounds the counts plus a CSR in which every
        # (axis, line, row, column) entry is nonzero
        count_type = np.min_scalar_type(self.degree)
        estimate = m * K * K * (count_type.itemsize + model.d * (4 + 8))
        if estimate > AXIS_BLOCK_BUDGET:
            raise ValueError(f"the axis operator needs about {estimate} bytes, over the "
                             f"budget of {AXIS_BLOCK_BUDGET} bytes")
        if not genset.materializable:
            raise ValueError("axis-block form needs line actions")
        counts = np.zeros((m, K, K), dtype=count_type)
        rows = np.arange(K)
        for vid, tables in genset.actions:
            onehots = np.zeros((len(tables), K, K), dtype=count_type)
            for v, t in enumerate(tables):
                onehots[v, rows, t] = 1
            # generator and its inverse (transpose of each onehot)
            counts += (onehots + onehots.transpose(0, 2, 1))[vid]
        line, a, b = np.nonzero(counts)
        points = model.points().astype(np.int32)
        src = np.empty((model.d, len(line)), dtype=np.int32)
        dst = np.empty_like(src)
        for i in range(model.d):
            lp = model.lines(points, i + 1).reshape(-1, K)
            src[i], dst[i] = lp[line, a], lp[line, b]
        # integer counts into the CSR, so the axes' shared diagonal sums exactly
        T = csr_array((np.tile(counts[line, a, b], model.d), (src.ravel(), dst.ravel())),
                      shape=(self.n, self.n))
        T.data = T.data / self.degree
        self._T = T

    def matvec(self, v):
        return self._T @ v

    def displacements(self, v):
        # v on each axis's (line, coordinate) grid; an action's gather index
        # serves all d axes, so generators come grouped by action
        grids = [(axis, self.model.lines(v, axis).copy().ravel())
                 for axis in range(1, self.model.d + 1)]
        rows = np.arange(self.model.lines_per_axis)[:, None] * self.model.K
        moved = np.empty(self.n)
        for vid, tables in self.genset.actions:
            index = (rows + tables[vid]).ravel()
            for axis, grid in grids:
                np.subtract(grid.take(index, out=moved), grid, out=moved)
                diff = np.empty(self.n)
                lines = self.model.lines(diff, axis)
                lines[...] = moved.reshape(lines.shape)
                yield diff

    def edge_counts(self):
        # T holds counts / degree; recover the counts and insist that dividing
        # them again gives T bit for bit.  About d row slices, so no caller
        # holds every entry at once
        T, degree = self._T, self.degree
        step = -(-self.n // self.model.d)
        for lo in range(0, self.n, step):
            hi = min(lo + step, self.n)
            first, last = T.indptr[lo], T.indptr[hi]
            weight = T.data[first:last]
            count = np.rint(weight * degree).astype(np.int64)
            require(np.array_equal(count / degree, weight),
                    "axis operator is not integer edge counts over the degree")
            src = np.repeat(np.arange(lo, hi), np.diff(T.indptr[lo:hi + 1]))
            yield src, T.indices[first:last], count


def schreier_graph(genset):
    """Action graph of a generating set on the cube points.

    Small sets materialize their permutations; larger ones build the
    axis-block sparse operator from their line actions.
    """
    if not genset.materializable:
        raise ValueError("shape-only generating set cannot be realized")
    if genset.model.N <= ACTION_FORM_LIMIT:
        return ActionGraph(genset.permutations())
    return AxisBlockGraph(genset)


def cayley_graph(gens):
    """Cayley graph of the generated group, vertices enumerated by BFS.

    Edges join g to g*s by right multiplication.  Refuses to grow past
    CAYLEY_LIMIT vertices, naming the size reached.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    n_pts = gens[0].n
    step = []
    for g in gens:
        step.append(g)
        inv = g.inverse()
        step.append(inv)

    ident = Permutation.identity(n_pts)
    index = {ident.table.tobytes(): 0}
    elements = [ident]
    frontier = [ident]
    while frontier:
        nxt = []
        for e in frontier:
            for s in step:
                f = e * s
                key = f.table.tobytes()
                if key not in index:
                    index[key] = len(elements)
                    elements.append(f)
                    nxt.append(f)
                    if len(elements) > CAYLEY_LIMIT:
                        raise ValueError(
                            f"group closure exceeded the limit {CAYLEY_LIMIT} "
                            f"(reached {len(elements)} elements)")
        frontier = nxt

    n = len(elements)
    vertex_perms = []
    for g in gens:
        table = np.empty(n, dtype=np.int64)
        for i, e in enumerate(elements):
            table[i] = index[(e * g).table.tobytes()]
        vertex_perms.append(Permutation(table, _validate=False))
    graph = ActionGraph(vertex_perms)
    graph.elements = elements
    return graph


def _write_pairs(fh, pairs, counts):
    # each slice of rows is formatted by one C-level %-format and each line
    # repeated by its count, not one f-string per edge
    step = 1 << 12
    for lo in range(0, len(pairs), step):
        part = pairs[lo:lo + step]
        lines = ("%d %d\n" * len(part) % tuple(part.ravel().tolist())).splitlines(True)
        fh.write("".join(map(str.__mul__, lines, counts[lo:lo + step].tolist())))


def write_edge_list(graph, path):
    """Text export: header '# vertices N degree k', then one 'u v' per edge.

    The arcs of `edge_counts` pair up (u -> v with v -> u), so an edge with
    u < v is written once per arc and a loop once per two arcs, after all
    other edges; read_edge_list rebuilds the same graph.
    """
    loops = np.zeros(graph.n, dtype=np.int64)
    with open(path, "w") as fh:
        fh.write(f"# vertices {graph.n} degree {graph.degree}\n")
        for src, dst, count in graph.edge_counts():
            count = np.broadcast_to(count, src.shape)
            up = src < dst
            _write_pairs(fh, np.stack([src[up], dst[up]], axis=1), count[up])
            on = src == dst
            np.add.at(loops, src[on], count[on])
        require(not (loops % 2).any(), "loop arcs do not pair up")
        vertex = np.arange(graph.n)
        _write_pairs(fh, np.stack([vertex, vertex], axis=1), loops // 2)


def read_edge_list(path):
    """EdgeGraph from write_edge_list's text.

    Without the '# vertices' header, n is one more than the largest vertex.
    """
    with open(path) as fh:
        header = fh.readline().split()
        fh.seek(0)
        edges = np.loadtxt(fh, dtype=np.int64, ndmin=2).reshape(-1, 2)
    n = int(header[2]) if header[:1] == ["#"] else 1 + int(edges.max())
    return EdgeGraph(n, edges)
