"""Spectral gaps, Cheeger sweeps and Kazhdan bounds of action graphs."""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import require

DENSE_LIMIT = 4000
POWER_BUDGET = 10**5
# eigenpairs one Lanczos run converges; the gap reads the second of them
LANCZOS_PAIRS = 10


@dataclass
class SpectralReport:
    gap: float                      # 1 - second largest eigenvalue of T
    second_eigenvalue: float
    iterations: int
    cheeger_upper: float | None = None     # float(cheeger_exact)
    cheeger_exact: Fraction | None = None  # minimum conductance over all sweep cuts
    kazhdan_lower: float | None = None
    kazhdan_upper: float | None = None


class PowerIterationError(RuntimeError):
    """Power iteration did not converge within its iteration budget."""


def _deflate(v):
    return v - v.mean()


def _power_second_eigenpair(graph, tol, seed):
    """Largest non-principal eigenpair of T via the lazy operator (I+T)/2.

    The shift makes the target eigenvalue dominant in absolute value among
    the non-principal spectrum, so plain power iteration with deflation of
    the constant vector converges to it.  The product that gives an
    iterate's Rayleigh quotient is the next step's product, so each
    iteration costs one matvec.
    """
    rng = np.random.default_rng(seed)
    v = _deflate(rng.standard_normal(graph.n))
    v /= np.linalg.norm(v)
    lazy_v = 0.5 * (v + graph.matvec(v))
    mu_prev = None
    for it in range(1, POWER_BUDGET + 1):
        w = _deflate(lazy_v)
        norm = np.linalg.norm(w)
        if norm < 1e-300:
            # operator annihilates the complement: lazy eigenvalue 0
            return -1.0, v, it
        w /= norm
        lazy_w = 0.5 * (w + graph.matvec(w))
        mu = float(w @ lazy_w)
        if mu_prev is not None and abs(mu - mu_prev) < tol:
            lam2 = 2.0 * mu - 1.0
            return lam2, w, it
        mu_prev = mu
        v, lazy_v = w, lazy_w
    raise PowerIterationError(
        f"power iteration did not converge within {POWER_BUDGET} iterations")


def _lanczos_second_eigenpair(graph, tol, seed):
    """Top non-principal eigenpair via restarted Lanczos on the lazy operator.

    Power iteration stalls when the second eigenvalue sits in a near-degenerate
    cluster (the big axis-embedded graphs do exactly that); Lanczos resolves
    the cluster in a few hundred matvecs.
    """
    from scipy.sparse.linalg import LinearOperator, eigsh

    n = graph.n
    calls = [0]

    def lazy(v):
        calls[0] += 1
        return 0.5 * (v + graph.matvec(v))

    op = LinearOperator((n, n), matvec=lazy, dtype=float)
    v0 = np.random.default_rng(seed).standard_normal(n)
    k = min(LANCZOS_PAIRS, n - 1)
    vals, vecs = eigsh(op, k=k, which="LA", v0=v0, tol=max(tol, 1e-12),
                       ncv=min(n, max(4 * k, 80)), maxiter=5000)
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]
    lam2 = 2.0 * float(vals[1]) - 1.0
    return lam2, vecs[:, 1], calls[0]


def spectral_gap(graph, method="auto", tol=1e-12, seed=0):
    """Gap of the normalized Laplacian: 1 minus the second eigenvalue of T.

    method 'dense' diagonalizes (vertex count <= 4000); 'power' runs
    deflated power iteration on the lazy operator; 'lanczos' uses restarted
    Lanczos for clustered spectra; 'auto' picks by size.
    """
    if method == "auto":
        method = "dense" if graph.n <= DENSE_LIMIT else "lanczos"
    if method == "dense":
        T = graph.to_dense(limit=DENSE_LIMIT)
        vals, vecs = np.linalg.eigh(T)
        lam2 = float(vals[-2]) if graph.n > 1 else 0.0
        vec = vecs[:, -2] if graph.n > 1 else np.zeros(1)
        iterations = 0
    elif method == "power":
        lam2, vec, iterations = _power_second_eigenpair(graph, tol, seed)
    elif method == "lanczos":
        lam2, vec, iterations = _lanczos_second_eigenpair(graph, tol, seed)
    else:
        raise ValueError(f"unknown method {method!r}")

    gap = 1.0 - lam2
    report = SpectralReport(gap=gap, second_eigenvalue=lam2, iterations=iterations)
    if graph.n > 1:
        report.cheeger_exact = cheeger_sweep(graph, vec)
        report.cheeger_upper = float(report.cheeger_exact)
    report.kazhdan_lower = float(np.sqrt(max(2.0 * gap, 0.0)))
    try:
        report.kazhdan_upper = kazhdan_upper(graph, vec)
    except (ValueError, NotImplementedError):
        report.kazhdan_upper = None
    return report


def cheeger_sweep(graph, vec):
    """Exact upper bound on the edge conductance from every sweep cut of vec.

    The vertices are ranked by vec (stable sort).  An edge (x, y) of
    multiplicity c lies inside every prefix longer than max(rank x, rank y),
    so one bincount by that rank and one cumsum give the inside weight I_k
    of all prefixes; phi_k = (kD - I_k) / (D min(k, n - k)) is minimized
    over k = 1..n-1 in integers and returned as a Fraction.
    """
    n, degree = graph.n, graph.degree
    # float64 bincount sums of integers and the int64 cross-products below
    # (at most n^2 D / 4) stay exact under this size
    if n * n * degree >= 2**53:
        raise ValueError(f"{n} vertices of degree {degree} are too many for "
                         "the exact sweep")
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(vec, kind="stable")] = np.arange(n)
    weight = np.zeros(n)
    for src, dst, count in graph.edge_counts():
        top = np.maximum(rank[src], rank[dst])
        weight += np.bincount(top, weights=np.broadcast_to(count, top.shape),
                              minlength=n)
    weight = weight.astype(np.int64)
    require(int(weight.sum()) == n * degree,
            f"edge counts sum to {int(weight.sum())}, not n * degree = {n * degree}")
    k = np.arange(1, n)
    cut = k * degree - np.cumsum(weight)[:-1]
    size = np.minimum(k, n - k)
    best = int(np.argmin(cut / size))
    while True:  # settle the float argmin in integers
        below = np.flatnonzero(cut * size[best] < cut[best] * size)
        if below.size == 0:
            return Fraction(int(cut[best]), degree * int(size[best]))
        best = int(below[np.argmin(cut[below] / size[below])])


def kazhdan_upper(graph, vec):
    """max over generators of ||v1 o g - v1|| for the unit gap eigenvector.

    Any unit vector orthogonal to the invariants upper-bounds the minimax in
    the permutation representation.
    """
    v = _deflate(np.asarray(vec, dtype=float))
    norm = np.linalg.norm(v)
    if norm == 0:
        raise ValueError("eigenvector is constant")
    v = v / norm
    worst = 0.0
    for diff in graph.displacements(v):
        worst = max(worst, float(np.linalg.norm(diff)))
    return worst

