import math
from fractions import Fraction

import numpy as np
import pytest

from altgen.characters import (column_orthogonality_defect, conjugate,
                               decay_factor, dimension, mn_character, partitions,
                               roichman_violations)
from oracles import dimension_by_tableaux


def test_partition_count():
    # p(n) oracle values
    for n, p in [(1, 1), (5, 7), (8, 22), (10, 42), (14, 135)]:
        assert len(list(partitions(n))) == p


def test_conjugate_involution():
    for parts in partitions(9):
        assert conjugate(conjugate(parts)) == parts


def test_dimension_trivial_and_sign():
    for n in range(1, 12):
        assert dimension((n,)) == 1
        assert dimension(tuple([1] * n)) == 1


def test_dimension_standard_reps():
    for n in range(3, 11):
        assert dimension((n - 1, 1)) == n - 1


def test_dimension_against_tableaux_oracle():
    for n in range(1, 9):
        for parts in partitions(n):
            assert dimension(parts) == dimension_by_tableaux(parts)


def test_dimension_squares_sum_to_factorial():
    for n in range(1, 9):
        assert sum(dimension(p) ** 2 for p in partitions(n)) == math.factorial(n)


def test_character_trivial_row():
    for n in range(2, 10):
        for L in range(1, n + 1):
            assert mn_character((n,), L) == 1


def test_character_sign_row():
    # sign of an L-cycle is (-1)^(L-1)
    for n in range(2, 10):
        for L in range(1, n + 1):
            assert mn_character(tuple([1] * n), L) == (-1) ** (L - 1)


def test_character_natural_action_oracle():
    # fixed points of an L-cycle acting naturally, minus one
    for n in range(3, 11):
        for L in range(2, n):
            fixed = n - L
            assert mn_character((n - 1, 1), L) == fixed - 1


def test_character_duality_sign():
    for n in range(2, 10):
        for parts in partitions(n):
            for L in range(2, n + 1):
                lhs = mn_character(conjugate(parts), L)
                rhs = (-1) ** (L - 1) * mn_character(parts, L)
                assert lhs == rhs


def test_character_bounded_by_dimension():
    for n in range(2, 12):
        for parts in partitions(n):
            for L in range(1, n + 1):
                assert abs(mn_character(parts, L)) <= dimension(parts)


def test_column_orthogonality_full_tables():
    for n in range(2, 9):
        for L in range(1, n + 1):
            assert column_orthogonality_defect(n, L) == 0


def test_roichman_spec_point():
    # N=12, L=7, lambda=(11,1): |chi| = 4, bound 11 * (11/12)^(1/2)
    chi = mn_character((11, 1), 7)
    assert chi == 12 - 7 - 1 == 4
    viols = roichman_violations(12, 7)
    assert ((11, 1), chi, 11, Fraction(11, 12)) not in viols


def test_roichman_no_violations_midrange():
    for n in (8, 10):
        for L in range(6, n + 1):
            assert roichman_violations(n, L) == []


def test_roichman_requires_sane_range():
    with pytest.raises(ValueError):
        roichman_violations(10, 5)


def test_decay_factor_trivial_and_regimes():
    info = decay_factor(7, 6, 0, 100)
    assert info["interval"] == (Fraction(1), Fraction(1))
    assert info["verdict"] == "reported"
    # huge-side regime: the factor is certified below e^-3
    K = 10**6 + 1
    from altgen.words import standard_cycle_length
    L, _ = standard_cycle_length(K, 6)
    h = int(K ** 1.5 // 2)
    info = decay_factor(K, 6, h, L, bits=256)
    assert info["verdict"] == "holds"
    # desk side: reported only, value computed
    L7, _ = standard_cycle_length(7, 6)
    desk = decay_factor(7, 6, 9, L7)
    assert desk["verdict"] in ("holds", "exceeds", "reported")
    lo, hi = desk["interval"]
    assert 0 < lo <= hi < 1
