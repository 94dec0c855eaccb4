"""Brute-force reference values for small cases, independent of the package.

Each oracle enumerates directly what the package computes by formula or by
a sweep, so a test can compare the two on inputs small enough to enumerate.
"""

from itertools import combinations

import numpy as np

# subsets of more vertices than this are too many to enumerate
CONDUCTANCE_LIMIT = 22


def dimension_by_tableaux(parts):
    """Brute-force SYT count; the independent oracle for small partitions."""
    parts = tuple(parts)
    n = sum(parts)
    if n == 0:
        return 1
    count = 0
    def rec(rows, k):
        nonlocal count
        if k == n:
            count += 1
            return
        for i, row in enumerate(parts):
            filled = rows[i]
            if filled < row and (i == 0 or rows[i - 1] > filled):
                rows[i] += 1
                rec(rows, k + 1)
                rows[i] -= 1
    rec([0] * len(parts), 0)
    return count


def exact_conductance(graph):
    """Exact edge conductance by subset enumeration (tiny graphs only)."""
    n = graph.n
    if n > CONDUCTANCE_LIMIT:
        raise ValueError(f"{n} vertices exceed the enumeration limit")
    best = np.inf
    for k in range(1, n // 2 + 1):
        for subset in combinations(range(n), k):
            ind = np.zeros(n)
            ind[list(subset)] = 1.0
            inside = float(ind @ graph.matvec(ind))
            best = min(best, (k - inside) / k)
    return float(best)
