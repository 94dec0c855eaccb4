"""Spectral gaps, Cheeger sweeps and Kazhdan bounds of action graphs."""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import require

DENSE_LIMIT = 4000
POWER_BUDGET = 10**5
# Lanczos basis size: the second eigenvalue sits in a near-degenerate cluster
# (gap 9e-5 to the third at S_N(1, 6)), and a smaller basis restarts far more
LANCZOS_NCV = 40


@dataclass
class SpectralReport:
    gap: float                      # 1 - second largest eigenvalue of T
    second_eigenvalue: float
    iterations: int
    gap_upper: Fraction | None = None      # Courant-Fischer bound from the eigenvector
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
    the cluster in a few hundred matvecs.  The operator and the start vector
    are deflated, so the constant's eigenvalue 1 becomes 0 and the one pair
    converged is the second.
    """
    from scipy.sparse.linalg import LinearOperator, eigsh

    n = graph.n
    calls = [0]

    def lazy(v):
        calls[0] += 1
        return _deflate(0.5 * (v + graph.matvec(v)))

    op = LinearOperator((n, n), matvec=lazy, dtype=float)
    v0 = _deflate(np.random.default_rng(seed).standard_normal(n))
    vals, vecs = eigsh(op, k=1, which="LA", v0=v0, tol=max(tol, 1e-12),
                       ncv=min(n, LANCZOS_NCV), maxiter=5000)
    return 2.0 * float(vals[0]) - 1.0, vecs[:, 0], calls[0]


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
        report.gap_upper = gap_upper_bound(graph, vec)
        report.cheeger_exact = cheeger_sweep(graph, vec)
        report.cheeger_upper = float(report.cheeger_exact)
    report.kazhdan_lower = float(np.sqrt(max(2.0 * gap, 0.0)))
    try:
        report.kazhdan_upper = kazhdan_upper(graph, vec)
    except (ValueError, NotImplementedError):
        report.kazhdan_upper = None
    return report


def gap_upper_bound(graph, vec):
    """Exact upper bound on the gap from the Rayleigh quotient of vec.

    By Courant-Fischer, gap <= 1 - w.Tw / w.w for every nonzero w orthogonal
    to the constants.  vec is scaled and rounded to integers u with
    |u| <= 2^15, and w = u - S/N with S = sum(u), so w.Tw = u.Tu - S^2/N and
    w.w = u.u - S^2/N.  u.Tu is sum(c u_x u_y) / D over the edge counts,
    summed in int64.  Returns a Fraction, or None when u is constant.
    """
    n, degree = graph.n, graph.degree
    vec = np.asarray(vec, dtype=float)
    u = np.rint(vec * (2**15 / np.abs(vec).max())).astype(np.int64)
    # each term is at most 2^30 c, and the counts sum to n * degree
    require(2**30 * n * degree < 2**63,
            f"{n} vertices of degree {degree} overflow the int64 Rayleigh sum")
    cross = 0
    for src, dst, count in graph.edge_counts():
        cross += int((u[src] * u[dst] * count).sum())
    uu, total = int(u @ u), int(u.sum())
    spread = n * uu - total * total
    if spread == 0:
        return None
    return Fraction(n * (degree * uu - cross), degree * spread)


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

