"""Exact symmetric-group characters on one-cycle classes, and the decay bound.

Only the classes the random-walk argument needs are supported: one cycle of
length L plus fixed points.  Values come from border-strip removal followed
by hook-length dimension counts, all in exact integers.
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .errors import require


def is_partition(parts):
    return (all(isinstance(p, int) and p > 0 for p in parts)
            and all(parts[i] >= parts[i + 1] for i in range(len(parts) - 1)))


def partitions(n):
    """All partitions of n, largest part first, in lexicographic-ish order."""
    if n == 0:
        yield ()
        return
    def rec(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest
    yield from rec(n, n)


def conjugate(parts):
    """The transposed Young diagram."""
    if not parts:
        return ()
    out = []
    for i in range(parts[0]):
        out.append(sum(1 for p in parts if p > i))
    return tuple(out)


@lru_cache(maxsize=None)
def dimension(parts):
    """Number of standard Young tableaux, by the hook length formula."""
    parts = tuple(parts)
    if not is_partition(parts):
        raise ValueError(f"{parts} is not a partition")
    n = sum(parts)
    conj = conjugate(parts)
    hooks = 1
    for i, row in enumerate(parts):
        for j in range(row):
            hooks *= row - j + conj[j] - i - 1
    dim, rem = divmod(factorial(n), hooks)
    require(rem == 0, f"hook product {hooks} does not divide {n}!")
    return dim


def _beta_set(parts):
    r = len(parts)
    return [parts[i] + (r - 1 - i) for i in range(r)]


def _partition_from_beta(beta):
    beta = sorted(beta, reverse=True)
    r = len(beta)
    parts = [beta[i] - (r - 1 - i) for i in range(r)]
    require(all(p >= 0 for p in parts), f"beta set {beta} gives negative parts")
    return tuple(p for p in parts if p > 0)


@lru_cache(maxsize=None)
def mn_character(parts, L):
    """Exact character value on the class of one L-cycle plus fixed points.

    Border strips of length L are removed through the beta-set description;
    each removal contributes its sign times the dimension of what is left.
    """
    parts = tuple(parts)
    n = sum(parts)
    if not is_partition(parts):
        raise ValueError(f"{parts} is not a partition")
    if not 1 <= L <= n:
        raise ValueError(f"cycle length {L} out of range for n={n}")
    if L == 1:
        return dimension(parts)
    beta = _beta_set(parts)
    beta_set = set(beta)
    total = 0
    for b in beta:
        if b >= L and (b - L) not in beta_set:
            crossings = sum(1 for c in beta if b - L < c < b)
            rest = _partition_from_beta([c for c in beta if c != b] + [b - L])
            total += (-1) ** crossings * dimension(rest)
    return total


def character_column(n, L):
    """chi_lambda(one L-cycle) for every lambda of n, as a dict."""
    return {parts: mn_character(parts, L) for parts in partitions(n)}


def column_orthogonality_defect(n, L):
    """sum of chi^2 over the column minus the centralizer order (zero iff exact)."""
    total = sum(v * v for v in character_column(n, L).values())
    centralizer = factorial(n) if L == 1 else L * factorial(n - L)
    return total - centralizer


def roichman_violations(n, L):
    """Partitions violating |chi(C_L)| <= dim * max(l1/n, l1'/n, 3/4)^((L-5)/4).

    The comparison is exact: both sides are raised to the fourth power and
    cross-multiplied in big integers.  Expected to be empty.
    """
    if not 6 <= L <= n:
        raise ValueError("the bound needs 6 <= L <= n")
    out = []
    for parts in partitions(n):
        chi = mn_character(parts, L)
        dim = dimension(parts)
        base = max(Fraction(parts[0], n),
                   Fraction(conjugate(parts)[0], n),
                   Fraction(3, 4))
        e = L - 5
        lhs = chi ** 4 * base.denominator ** e
        rhs = dim ** 4 * base.numerator ** e
        if lhs > rhs:
            out.append((parts, chi, dim, base))
    return out


def decay_factor(K, d, h, L, bits=128):
    """Certified enclosure of (1 - h/N)^((L-5)/4) and its e^-3 comparison.

    Returns a dict with the exact interval, the e^-3 interval, and a verdict:
    'holds' when the factor is certified below e^-3, otherwise 'reported'
    (desk-scale sides are reported, never asserted).
    """
    from .certify import BoundExpr

    N = K ** d
    if h == 0:
        one = BoundExpr.rational(1)
        return {"factor": one, "threshold": BoundExpr.exp_of(Fraction(-3)),
                "verdict": "reported", "interval": (Fraction(1), Fraction(1))}
    # (1 - h/N)^((L-5)/4) through the log domain: the exponent can be huge
    log_base = BoundExpr.ln_of(Fraction(N - h, N))
    factor = (log_base * Fraction(L - 5, 4)).exp()
    threshold = BoundExpr.exp_of(Fraction(-3))
    lo, hi = factor.interval(bits)
    t_lo, t_hi = threshold.interval(bits)
    if hi < t_lo:
        verdict = "holds"
    elif lo > t_hi:
        verdict = "exceeds"
    else:
        verdict = "reported"
    return {"factor": factor, "threshold": threshold, "verdict": verdict,
            "interval": (lo, hi), "threshold_interval": (t_lo, t_hi)}
