"""Schreier and Cayley graphs, each held as one sparse operator.

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
# graphs of at most this many vertices may build their dense T, and run
# their matvec on the calling thread alone
DENSE_LIMIT = 4000
# bytes an AxisBlockGraph may spend on its integer counts plus its CSR
AXIS_BLOCK_BUDGET = 2**30

# threads that run row ranges beside the calling thread; started by the
# first graph with more than one range
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
    """Regular multigraph held as its normalized adjacency T, one CSR.

    Each subclass turns its input into integer arc counts in one scipy CSR
    and hands it to `_hold`, which divides by the degree once, so every
    entry is an exact count / degree, and keeps T as the numpy arrays
    (data, indices, indptr).  Subclasses also give `displacement_norms(v)`
    (||v o g - v|| for each unsymmetrized generator g, in generator order).
    """

    def _hold(self, counts, slices):
        """Take T from the integer-count CSR `counts`, which gives up its
        arrays; `edge_counts` yields T's rows in `slices` ascending slices."""
        from scipy.sparse._sparsetools import csr_matvec

        # bound once, so a matvec pays no import
        self._csr_matvec = csr_matvec
        counts.data = counts.data / self.degree
        # summing duplicate arcs leaves the indices a view of the longer
        # COO-length buffer; a compact copy lets the rest go.  scipy keeps
        # the index dtype it was built from, so int32 is set here
        index = np.int32 if max(self.n, counts.nnz) <= np.iinfo(np.int32).max else np.int64
        counts.indices = counts.indices.astype(index)
        counts.indptr = counts.indptr.astype(index, copy=False)
        self._csr = (counts.data, counts.indices, counts.indptr)
        self._slices = [self.n * k // slices for k in range(slices + 1)]
        # one row range per CPU, run on the pool, once a matvec outweighs
        # the pool's hand-off
        ranges = _cpu_count() if self.n > DENSE_LIMIT else 1
        self._ranges = [self.n * k // ranges for k in range(ranges + 1)]
        _start_pool(ranges - 1)

    def matvec(self, v):
        """T v as a fresh array, which the caller owns and may overwrite."""
        # each row range sums its rows of T v into its slice of one output,
        # in the CSR's per-row order, so any range count gives the same
        # floats; the C loop releases the GIL
        csr_matvec = self._csr_matvec
        v = np.ascontiguousarray(v, dtype=float)
        if v.shape != (self.n,):   # the C loop reads v unchecked
            raise ValueError(f"vector of shape {v.shape} for {self.n} vertices")
        data, indices, indptr = self._csr
        out = np.zeros(self.n)
        if len(self._ranges) == 2:
            csr_matvec(self.n, self.n, indptr, indices, data, v, out)
            return out
        _run_all([partial(csr_matvec, hi - lo, self.n, indptr[lo:hi + 1], indices, data, v,
                          out[lo:hi])
                  for lo, hi in zip(self._ranges, self._ranges[1:])])
        return out

    def edge_counts(self):
        """The integer adjacency as (src, dst, count) chunks of ascending rows,
        whose counts sum to n * degree.

        T holds counts / degree; the counts are recovered, and dividing them
        again must give T bit for bit.
        """
        data, indices, indptr = self._csr
        degree = self.degree
        for a, b in zip(self._slices, self._slices[1:]):
            first, last = indptr[a], indptr[b]
            weight = data[first:last]
            count = np.rint(weight * degree).astype(np.int64)
            require(np.array_equal(count / degree, weight),
                    "graph operator is not integer edge counts over the degree")
            yield np.repeat(np.arange(a, b), np.diff(indptr[a:b + 1])), indices[first:last], count

    def _csr_array(self):
        from scipy.sparse import csr_array
        return csr_array(self._csr, shape=(self.n, self.n))

    def to_dense(self):
        if self.n > DENSE_LIMIT:
            raise ValueError(f"{self.n} vertices exceed the dense limit {DENSE_LIMIT}")
        return self._csr_array().toarray()

    def is_connected(self):
        """Whether T has one strong component: every arc comes with its
        reverse, so the strong components are the components."""
        from scipy.sparse.csgraph import connected_components
        return connected_components(self._csr_array(), connection="strong")[0] == 1


class ActionGraph(SparseGraph):
    """Graph of a point set under a list of permutations (plus inverses)."""

    def __init__(self, perms):
        from scipy.sparse import csr_array

        if not perms:
            raise ValueError("need at least one permutation")
        self.n = perms[0].n
        self.perms = list(perms)
        if any(p.n != self.n for p in perms):
            raise ValueError("permutations act on different point counts")
        self.degree = 2 * len(perms)
        dst = np.concatenate([t for p in perms for t in (p.table, p.inverse().table)])
        arcs = np.ones(len(dst), dtype=np.min_scalar_type(self.degree))
        self._hold(csr_array((arcs, (np.tile(np.arange(self.n), self.degree), dst)),
                             shape=(self.n, self.n)), 1)

    matvec = SparseGraph.matvec

    def displacement_norms(self, v):
        return np.array([np.linalg.norm(v[p.table] - v) for p in self.perms])


class EdgeGraph(SparseGraph):
    """Explicit symmetric multigraph from an edge list; must be regular."""

    def __init__(self, n, edges):
        from scipy.sparse import csr_array

        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        self.n = n
        both = np.concatenate([edges, edges[:, ::-1]])
        deg = np.bincount(both[:, 0], minlength=n)
        if n and not (deg == deg[0]).all():
            raise ValueError("edge list is not regular; spectral convention needs "
                             "a constant degree")
        self.degree = int(deg[0]) if n else 0
        arcs = np.ones(len(both), dtype=np.min_scalar_type(self.degree))
        self._hold(csr_array((arcs, (both[:, 0], both[:, 1])), shape=(n, n)), 1)

    matvec = SparseGraph.matvec

    def displacement_norms(self, v):
        raise ValueError("edge-list graphs carry no generator actions")


class AxisBlockGraph(SparseGraph):
    """Schreier graph of an axis-embedded generating set.

    Each line action of the set acts on the lines of all d axes alike, so
    one (lines, K, K) array of integer edge counts, over the actions and
    their inverses, serves every axis.  Its entries are mapped through each
    axis's `lines` view to point pairs, so no index table is built, and
    summed over the axes as integers in the one CSR over the points.
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
        # the COO side goes before the division allocates
        del counts, line, a, b, points, src, dst, lp
        # slices of about n / d rows hold about one axis's arcs each
        self._hold(T, model.d)

    matvec = SparseGraph.matvec

    def displacement_norms(self, v):
        # v o g - v in point order for each generator g, so each norm sums
        # the same array a materialized generator's v[t] - v would give.  For
        # each action the row ranges' threads, taking the axes in turn, move
        # v's (line, coordinate) grid of each of their axes and write the
        # difference to that axis's point-order buffer; the norms are taken
        # here, since concurrent calls into a threaded BLAS contend.  'clip'
        # lets take write straight to its output (the indices are in range),
        # where 'raise' first copies
        model, actions = self.model, self.genset.actions
        d, shape = model.d, (model.K,) * model.d
        workers = min(len(self._ranges) - 1, d)
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
            if workers == 1:
                move(0, vid, tables)
            else:
                _run_all([partial(move, w, vid, tables) for w in range(workers)])
            for axis in range(d):
                norms[k, axis] = np.linalg.norm(diffs[axis])
        return norms.T.ravel()


def schreier_graph(genset):
    """Action graph of a materializable generating set on the cube points,
    built from its line actions."""
    if not genset.materializable:
        raise ValueError("shape-only generating set cannot be realized")
    return AxisBlockGraph(genset)


def cayley_graph(gens):
    """Cayley graph of the generated group, vertices enumerated by BFS.

    Edges join g to g*s by right multiplication.  Refuses to grow past
    CAYLEY_LIMIT vertices, naming the size reached.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    step = [p for g in gens for p in (g, g.inverse())]
    ident = Permutation.identity(gens[0].n)
    index = {ident.table.tobytes(): 0}
    elements = [ident]
    right = [[] for _ in step]   # right[k][i]: the vertex of element i times step k
    # the list grows while it is read, so elements are expanded breadth
    # first, in vertex order
    for e in elements:
        for k, s in enumerate(step):
            f = e * s
            key = f.table.tobytes()
            if key not in index:
                index[key] = len(elements)
                elements.append(f)
                if len(elements) > CAYLEY_LIMIT:
                    raise ValueError(
                        f"group closure exceeded the limit {CAYLEY_LIMIT} "
                        f"(reached {len(elements)} elements)")
            right[k].append(index[key])

    # the even steps are the generators themselves
    graph = ActionGraph([Permutation(np.array(r, dtype=np.int64), _validate=False)
                         for r in right[::2]])
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
