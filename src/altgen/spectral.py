"""Spectral gaps, Cheeger sweeps and Kazhdan bounds of action graphs."""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import require
from .graphs import DENSE_LIMIT

POWER_BUDGET = 10**5
# Lanczos basis size for the Chebyshev-filtered operator.  The second
# eigenvalue sits in a near-degenerate cluster (gap 9e-5 to the third at
# S_N(1, 6)); the filter widens that gap, so 20 vectors suffice where the
# unfiltered operator needed 40.  At S_N(1, 6) the solve time barely moves
# for a basis from 12 to 30 vectors or a degree from 7 to 15
LANCZOS_NCV = 20
CHEB_DEGREE = 11   # odd, so the bottom of the spectrum stays near -1, far below 1
RITZ_STEPS = 20    # Lanczos steps that find the filter's cut


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
        converged = mu_prev is not None and abs(mu - mu_prev) < tol
        if converged:
            break
        mu_prev = mu
        v, lazy_v = w, lazy_w
    require(converged, f"power iteration did not converge within {POWER_BUDGET} iterations")
    return 2.0 * mu - 1.0, w, it


def _ritz_cut(matvec, v):
    """Second-largest Ritz value of a short Lanczos run on deflated T from v.

    The run takes RITZ_STEPS steps, capped at n - 2, and reorthogonalizes
    each vector fully (classical Gram-Schmidt twice).  Cauchy interlacing puts
    the value at or below lambda_3.  On breakdown the Ritz values are exact
    eigenvalues and the run stops.  The value is floored at -1 + 1/n: T has a
    nonnegative trace, so lambda_2 >= -1/(n - 1) lies above the floor.
    """
    n = v.size
    basis = np.empty((min(RITZ_STEPS, n - 2), n))
    basis[0] = v / np.linalg.norm(v)
    alpha, beta = [], []
    for j in range(len(basis)):
        w = _deflate(matvec(basis[j]))
        q = basis[:j + 1]
        h = q @ w
        w -= h @ q
        h2 = q @ w
        w -= h2 @ q
        alpha.append(h[j] + h2[j])
        norm = float(np.linalg.norm(w))
        if j + 1 == len(basis) or norm < 1e-12:
            break
        beta.append(norm)
        basis[j + 1] = w / norm
    ritz = np.linalg.eigvalsh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
    return max(ritz[-2] if ritz.size > 1 else -1.0, -1.0 + 1.0 / n)


def _lanczos_second_eigenpair(graph, tol, seed):
    """Top non-principal eigenpair via restarted Lanczos on a Chebyshev filter of T.

    Power iteration stalls when the second eigenvalue sits in a near-degenerate
    cluster (the big axis-embedded graphs do exactly that).  A short Lanczos
    run gives a cut c below lambda_2 (see _ritz_cut).  T is symmetric and
    doubly stochastic, so its spectrum lies in [-1, 1], and the degree-m
    Chebyshev polynomial C mapping [-1, c] onto [-1, 1] stays within [-1, 1]
    there and rises above 1 on (c, 1].  With the constants projected out, the
    top eigenpair of C(T) is therefore lambda_2's, and ARPACK converges it in
    far fewer steps, each carrying m cheap matvecs.  lambda_2 is the Rayleigh
    quotient of the returned unit vector; `iterations` counts every
    application of T.
    """
    from scipy.sparse.linalg import LinearOperator, eigsh

    n = graph.n
    if n < 3:
        raise ValueError(f"Lanczos needs at least 3 vertices, not {n}")
    calls = [0]

    def matvec(v):
        calls[0] += 1
        return graph.matvec(v)

    v0 = _deflate(np.random.default_rng(seed).standard_normal(n))
    cut = _ritz_cut(matvec, v0)
    # lambda -> scale * lambda + shift maps [-1, cut] onto [-1, 1]
    scale, shift = 2.0 / (cut + 1.0), (1.0 - cut) / (cut + 1.0)

    def filtered(v):
        # three-term recurrence C_{k+1} = 2 (scale T + shift) C_k - C_{k-1};
        # T keeps the constants' complement, so one projection suffices
        prev, cur = v, scale * matvec(v) + shift * v
        for _ in range(CHEB_DEGREE - 1):
            nxt = matvec(cur)
            nxt *= 2.0 * scale
            nxt -= prev
            nxt += (2.0 * shift) * cur
            prev, cur = cur, nxt
        return _deflate(cur)

    op = LinearOperator((n, n), matvec=filtered, dtype=float)
    tol = max(tol, 1e-12)
    _, vecs = eigsh(op, k=1, which="LA", v0=v0, tol=tol, ncv=min(n, LANCZOS_NCV),
                    maxiter=5000)
    # once the Krylov space is exhausted (as at n = 3), ARPACK's restart vector can
    # leave a trace of the constants in the pair
    vec = _deflate(vecs[:, 0])
    vec /= np.linalg.norm(vec)
    t_vec = matvec(vec)
    lam2 = float(vec @ t_vec)
    require(lam2 > cut, f"Ritz value {lam2!r} is not above the cut {cut!r}: "
            "a damped eigenvalue, not lambda_2")
    residual = float(np.linalg.norm(t_vec - lam2 * vec))
    bound = 1e3 * tol
    require(residual <= bound,
            f"eigenpair residual {residual:.3g} exceeds {bound:.3g}")
    return lam2, vec, calls[0]


def spectral_gap(graph, method="auto", tol=1e-12, seed=0):
    """Gap of the normalized Laplacian: 1 minus the second eigenvalue of T.

    method 'dense' diagonalizes (vertex count <= 4000); 'power' runs
    deflated power iteration on the lazy operator; 'lanczos' uses restarted
    Lanczos for clustered spectra; 'auto' picks by size.
    """
    if method == "auto":
        method = "dense" if graph.n <= DENSE_LIMIT else "lanczos"
    if method == "dense":
        T = graph.to_dense()
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
    except ValueError:
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
    return float(np.max(graph.displacement_norms(v / norm)))

