"""Schreier and Cayley graphs in explicit and implicit (action) form.

All spectral work uses the degree-normalized adjacency T as the single
convention; generating multisets are symmetrized (every generator listed
together with its inverse, involutions twice), which keeps T symmetric and
doubly stochastic.
"""

import os
from functools import partial

import numpy as np

from .errors import require
from .perms import Permutation

CAYLEY_LIMIT = 2 * 10**6
# graphs of at most this many vertices may build their dense T
DENSE_LIMIT = 4000
# cube sets of at most this many points materialize their permutations
ACTION_FORM_LIMIT = 4000
# bytes an AxisBlockGraph may spend on its float blocks plus integer counts
AXIS_BLOCK_BUDGET = 2**30

# threads that run AxisBlockGraph row blocks beside the calling thread;
# started by the first graph with more than one block
_pool = None


def _cpu_count():
    """CPUs in this process's affinity mask."""
    return len(os.sched_getaffinity(0))


def _start_pool(threads):
    """Start the pool with this many threads, unless it is running."""
    global _pool
    if _pool is None and threads > 0:
        from concurrent.futures import ThreadPoolExecutor
        _pool = ThreadPoolExecutor(threads, thread_name_prefix="altgen")


def _run_all(tasks):
    """Call every task, the first on this thread and the rest on the pool,
    and return once all have finished."""
    futures = [_pool.submit(task) for task in tasks[1:]]
    tasks[0]()
    for future in futures:
        future.result()


class SparseGraph:
    """Regular multigraph given by its normalized adjacency action.

    Subclasses give `matvec(v)` (T v), `displacement_norms(v)` (||v o g - v||
    for each unsymmetrized generator g, in generator order) and
    `edge_counts()` (the integer adjacency as (src, dst, count) chunks whose
    counts sum to n * degree).
    """

    def to_dense(self):
        if self.n > DENSE_LIMIT:
            raise ValueError(f"{self.n} vertices exceed the dense limit {DENSE_LIMIT}")
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

    def displacement_norms(self, v):
        return np.array([np.linalg.norm(v[t] - v) for t in self._tables[::2]])

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

    def displacement_norms(self, v):
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

    The CSR is held as row blocks, one per CPU the process may run on, each
    (first row, indptr, indices, data) with indices and data views of the
    one operator.  `matvec` and `displacement_norms` split their work over
    the blocks' threads and give the same floats as one thread would.
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
        # the COO side goes before the division and the split allocate
        del counts, line, a, b, points, src, dst, lp
        T.data = T.data / self.degree
        # summing the axes' shared diagonal leaves T.indices a view of the
        # longer COO-length buffer; a compact copy lets the rest go
        T.indices = T.indices.copy()
        self._blocks = _row_blocks(T, _cpu_count())
        _start_pool(len(self._blocks) - 1)

    def matvec(self, v):
        # each block sums its rows of T v into its slice of one output, in
        # the CSR's per-row order; the C loop releases the GIL
        from scipy.sparse._sparsetools import csr_matvec

        v = np.ascontiguousarray(v, dtype=float)
        if v.shape != (self.n,):   # the C loop reads v unchecked
            raise ValueError(f"vector of shape {v.shape} for {self.n} vertices")
        out = np.zeros(self.n)
        _run_all([partial(csr_matvec, len(indptr) - 1, self.n, indptr, indices, data, v,
                          out[lo:lo + len(indptr) - 1])
                  for lo, indptr, indices, data in self._blocks])
        return out

    def displacement_norms(self, v):
        # v o g - v in point order for each generator g, so each norm sums
        # the same array a materialized generator's v[t] - v would give.  For
        # each action the blocks' threads, taking the axes in turn, move v's
        # (line, coordinate) grid of each of their axes and write the
        # difference to that axis's point-order buffer; the norms are taken
        # here, since concurrent calls into a threaded BLAS contend.  'clip'
        # lets take write straight to its output (the indices are in range),
        # where 'raise' first copies
        model, actions = self.model, self.genset.actions
        d, shape = model.d, (model.K,) * model.d
        workers = min(len(self._blocks), d)
        rows = np.arange(model.lines_per_axis)[:, None] * model.K
        index = np.empty((workers, model.lines_per_axis, model.K), dtype=np.int64)
        moved = np.empty_like(index, dtype=float)
        grids = [np.ascontiguousarray(model.lines(v, axis)) for axis in range(1, d + 1)]
        diffs = np.empty((d, self.n))
        spreads = [model.lines(diffs[axis - 1], axis) for axis in range(1, d + 1)]
        norms = np.empty((len(actions), d))

        def move(w, vid, tables):
            np.take(tables, vid, axis=0, out=index[w], mode="clip")
            np.add(index[w], rows, out=index[w])
            for axis in range(w, d, workers):
                grids[axis].take(index[w], out=moved[w], mode="clip")
                np.subtract(moved[w].reshape(shape), grids[axis], out=spreads[axis])

        for k, (vid, tables) in enumerate(actions):
            _run_all([partial(move, w, vid, tables) for w in range(workers)])
            for axis in range(d):
                norms[k, axis] = np.linalg.norm(diffs[axis])
        return norms.T.ravel()

    def edge_counts(self):
        # T holds counts / degree; recover the counts and insist that dividing
        # them again gives T bit for bit.  Rows in ascending slices of about
        # n / d, so no caller holds every entry at once
        degree = self.degree
        step = -(-self.n // self.model.d)
        for lo, indptr, indices, data in self._blocks:
            for a in range(0, len(indptr) - 1, step):
                b = min(a + step, len(indptr) - 1)
                first, last = indptr[a], indptr[b]
                weight = data[first:last]
                count = np.rint(weight * degree).astype(np.int64)
                require(np.array_equal(count / degree, weight),
                        "axis operator is not integer edge counts over the degree")
                src = np.repeat(np.arange(lo + a, lo + b), np.diff(indptr[a:b + 1]))
                yield src, indices[first:last], count


def _row_blocks(T, count):
    """The CSR T as `count` blocks of consecutive rows, each (first row,
    indptr from 0, indices, data); indices and data are views of T's."""
    bounds = [T.shape[0] * k // count for k in range(count + 1)]
    blocks = []
    for lo, hi in zip(bounds, bounds[1:]):
        first, last = T.indptr[lo], T.indptr[hi]
        blocks.append((lo, T.indptr[lo:hi + 1] - first, T.indices[first:last],
                       T.data[first:last]))
    return blocks


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
