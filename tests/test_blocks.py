import numpy as np
import pytest

from altgen.blocks import block_factor, factor_count_bound, window_family
from altgen.perms import Permutation, product


def random_even(n, rng):
    while True:
        g = Permutation.random(n, rng)
        if g.parity == 0:
            return g


def test_window_family_shape():
    wins = window_family(50, 10)
    assert all(len(w) == 10 for w in wins)
    assert len(wins) <= factor_count_bound(50, 10)
    covered = set()
    for w in wins[:5]:  # the five columns partition the points
        covered.update(w)
    assert covered == set(range(50))


def test_window_family_count_at_spec_shape():
    wins = window_family(100, 49)
    assert len(wins) <= 3 * 3 + 3 == factor_count_bound(100, 49)


def test_single_window_cases():
    g = Permutation.from_cycles(10, [(0, 1, 2)])
    factors, wins = block_factor(g, 10)
    assert len(factors) == 1 and factors[0] == g and len(wins) == 1


def test_window_supported_factor():
    # a permutation already inside the first column comes out as few factors
    rng = np.random.default_rng(0)
    table = np.arange(50)
    table[:10] = np.random.default_rng(1).permutation(10)
    g = Permutation(table)
    if g.parity:
        table[[0, 1]] = table[[1, 0]]
        g = Permutation(table)
    factors, wins = block_factor(g, 10)
    assert product(factors, n=50) == g


def test_block_factor_bounds_and_evenness():
    rng = np.random.default_rng(2)
    for _ in range(30):
        g = random_even(50, rng)
        factors, wins = block_factor(g, 10)
        assert len(factors) <= 18
        assert product(factors, n=50) == g
        window_sets = [set(w) for w in wins]
        for f in factors:
            assert f.parity == 0
            supp = set(map(int, f.support()))
            assert any(supp <= ws for ws in window_sets)


def test_block_factor_various_shapes():
    rng = np.random.default_rng(3)
    for n, m in [(23, 8), (45, 10), (60, 12), (31, 8), (100, 49), (11, 10)]:
        for _ in range(5):
            g = random_even(n, rng)
            factors, _ = block_factor(g, m)
            assert len(factors) <= factor_count_bound(n, m)


def test_block_factor_rejects_odd():
    g = Permutation.from_cycles(20, [(0, 1)])
    with pytest.raises(ValueError):
        block_factor(g, 10)


def test_window_size_preconditions():
    with pytest.raises(ValueError):
        window_family(100, 4)   # below the minimum window size
    with pytest.raises(ValueError):
        window_family(200, 10)  # m < 2 ceil(n/m)
    with pytest.raises(ValueError, match="m >= 2"):
        window_family(1200, 49)  # 49 < 2 ceil(1200/49) = 50, though n <= m*m/2
