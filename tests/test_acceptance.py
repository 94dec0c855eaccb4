"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Tolerances are pinned here; nothing is calibrated
at run time.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from altgen.embeddings import build_SN
from altgen.geometry import CubeGeometry
from altgen.perms import Permutation
from altgen.schreier_sims import group_order


def _verdict(num, description, ok):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {description}"
    print(line, flush=True)
    assert ok, line


def test_criterion_1_constant_chain():
    from altgen.certify import derive_paper_constants, derive_decay_chain
    t0 = time.time()
    nodes = derive_paper_constants()
    sbar = nodes["sbar"].value
    ok = sbar.greater_than(Fraction(1, 535)) and sbar.less_than(Fraction(1, 534))
    ok = ok and sbar.greater_than(Fraction(1, 550))
    ok = ok and nodes["alt-involutions"].value.interval() == \
        (Fraction(1, 77000), Fraction(1, 77000))
    ok = ok and nodes["alt-involutions"].value.greater_than(Fraction(1, 10**5))
    ok = ok and nodes["alt-general"].value.greater_than(Fraction(1, 10**12))
    ok = ok and nodes["sym-factor"].value.greater_than(Fraction(1, 3))
    ok = ok and nodes["split"].value.interval()[0] == Fraction(97, 100)
    ok = ok and nodes["split"].value.less_than(1)
    decay = derive_decay_chain()
    ok = ok and all(passed for _, passed in decay["checks"])
    elapsed = time.time() - t0
    ok = ok and elapsed < 1.0
    _verdict(1, f"constant chain reproduced exactly in {elapsed:.3f}s", ok)


def test_criterion_2_generation():
    from altgen.graphs import schreier_graph
    t0 = time.time()
    sn2 = build_SN(1, 2)
    order = group_order(sn2.permutations())
    ok = order == math.factorial(49) // 2

    sn6 = build_SN(1, 6)
    ok = ok and sn6.all_even()
    graph = schreier_graph(sn6)
    ok = ok and graph.n == 117649 and graph.is_connected()
    elapsed = time.time() - t0
    ok = ok and elapsed < 120
    _verdict(2, f"exact order 49!/2 and connected action on 117649 points "
             f"({elapsed:.1f}s)", ok)


def test_criterion_3_gem_factorization():
    from altgen.ring import gem_factor, random_el3
    t0 = time.time()
    worst = 0
    total = 0
    for s in (1, 2):
        for m in (1, 2):
            rng = np.random.default_rng(1000 + 10 * s + m)
            for _ in range(250):
                g = random_el3(s, m, rng, length=24)
                word = gem_factor(g)
                assert word.verify()
                worst = max(worst, len(word))
                total += 1
    elapsed = time.time() - t0
    ok = total == 1000 and worst <= 17 and elapsed < 60
    _verdict(3, f"1000/1000 elements factored, max word {worst} <= 17 "
             f"({elapsed:.1f}s)", ok)


def test_criterion_4_word_constructors():
    from altgen.words import (conjugacy_word47, cycle_word, grid_route,
                              standard_cycle_length)
    t0 = time.time()
    model = CubeGeometry(1, 6)
    face = np.arange(7**5, dtype=np.int64) * 7
    rng = np.random.default_rng(42)

    ok = True
    for _ in range(20):
        sigma = rng.permutation(7**5).astype(np.int64)
        word = grid_route(model, sigma)
        got = word.product().table[face]
        ok = ok and len(word) == 19 and (got % 7 == 0).all() \
            and np.array_equal(got // 7, sigma)

    L, a = standard_cycle_length(7, 6)
    ok = ok and (L, a) == (2875, 479)
    c479 = cycle_word(model, a).product()
    ok = ok and c479.cycle_type()[0] == 2875

    successes = 0
    trials = 25
    for _ in range(trials):
        pts = rng.choice(model.N, size=2875, replace=False)
        order = rng.permutation(2875)
        c = Permutation.from_cycles(model.N, [[int(pts[i]) for i in order]])
        word = conjugacy_word47(model, c)
        if word is None:
            continue
        successes += 1
        ok = ok and len(word) <= 47 and word.product() == c
    elapsed = time.time() - t0
    ok = ok and elapsed < 600
    _verdict(4, f"routing exact with 19 letters, 2875-cycle built, "
             f"{successes}/{trials} conjugations exact within 47 letters "
             f"(success rate reported only; {elapsed:.1f}s)", ok)


def test_criterion_5_exact_walk_identities():
    from altgen.walks import ExactDistribution, full_sweep
    t0 = time.time()
    model = CubeGeometry(1, 6)
    rng = np.random.default_rng(0)

    # idempotence, exactly, at six axes and at two
    w = rng.integers(0, 1000, size=model.N)
    once = ExactDistribution(model, w, w.sum()).axis_average(4)
    twice = once.axis_average(4)
    ok = np.array_equal(once.num * twice.den, twice.num * once.den)
    e = ExactDistribution.point_mass(CubeGeometry(1, 2), 5).axis_average(2)
    e2 = e.axis_average(2)
    ok = ok and [Fraction(n, e.den) for n in e.num] == \
        [Fraction(n, e2.den) for n in e2.num]

    exact = full_sweep(ExactDistribution.point_mass(model, 31415))
    ok = ok and exact.tv_to_uniform() == 0
    small = CubeGeometry(1, 2)
    nums = [i % 3 for i in range(small.N)]
    arb = ExactDistribution(small, nums, sum(nums))
    ok = ok and full_sweep(arb).tv_to_uniform() == 0

    # h = 1: one tuple walk block is the point walk, exactly uniform
    h1 = full_sweep(ExactDistribution.point_mass(model, 7))
    ok = ok and h1.tv_to_uniform() == 0
    elapsed = time.time() - t0
    ok = ok and elapsed < 60
    _verdict(5, f"idempotence, exact uniformization (TV = 0), h=1 block "
             f"({elapsed:.1f}s)", ok)


def test_criterion_6_mc_bounds():
    from altgen.walks import (binomial_sigma, point_walk_batch, tuple_walk,
                              urn_bound, urn_mc)
    t0 = time.time()
    model = CubeGeometry(1, 6)

    start = [model.index((0, 0, 0, i % 7, i // 7, 0)) for i in range(9)]
    b1 = tuple_walk(model, np.array(start), seed=6, samples=10**4)
    bound = 1 - 81 / 686
    sigma = binomial_sigma(bound, 10**4)
    ok = b1 >= bound - 3 * sigma

    pts = point_walk_batch(model, seed=7, samples=10**7, start_point=5,
                           axes=[3, 2, 1, 6, 5, 4])
    p = 1 / model.N
    sig = binomial_sigma(p, 10**7)
    freq = float((pts == 77777).mean())
    ok = ok and abs(freq - p) <= 4 * sig

    for l, k, pp, q in [(10, 10, 10, 3), (5, 4, 6, 2), (3, 7, 5, 4),
                        (8, 2, 9, 2), (4, 4, 7, 3)]:
        b = urn_bound(l, k, pp, q)
        f = urn_mc(l, k, pp, q, 2000, seed=8)
        ok = ok and f <= float(b) + 3 * binomial_sigma(b, 2000)
    elapsed = time.time() - t0
    ok = ok and elapsed < 600
    _verdict(6, f"B1 fraction {b1:.4f} >= {bound - 3*sigma:.4f}, "
             f"hit frequency within 4 sigma, urn bounds hold ({elapsed:.1f}s)", ok)


def test_criterion_7_characters():
    from altgen.characters import (column_orthogonality_defect,
                                   roichman_violations)
    t0 = time.time()
    ok = True
    for n in range(2, 9):
        for L in range(1, n + 1):
            ok = ok and column_orthogonality_defect(n, L) == 0
    violations = 0
    for n in range(8, 15):
        for L in range(6, n + 1):
            violations += len(roichman_violations(n, L))
    elapsed = time.time() - t0
    ok = ok and violations == 0 and elapsed < 120
    _verdict(7, f"exact orthogonality (N <= 8) and zero character-bound "
             f"violations for N in [8,14] ({elapsed:.1f}s)", ok)


def test_criterion_8_spectral():
    from altgen.graphs import ActionGraph, schreier_graph
    from altgen.spectral import spectral_gap
    t0 = time.time()
    rng = np.random.default_rng(3)

    ok = True
    suite = [ActionGraph([Permutation.random(n, rng) for _ in range(k)])
             for n, k in [(120, 2), (600, 3), (2000, 2)]]
    suite.append(schreier_graph(build_SN(1, 2)))
    for g in suite:
        dense = spectral_gap(g, method="dense").gap
        power = spectral_gap(g, method="power", seed=5).gap
        ok = ok and abs(dense - power) < 1e-6

    big = schreier_graph(build_SN(1, 6))
    g42 = spectral_gap(big, seed=42)
    g7 = spectral_gap(big, seed=7)
    ok = ok and g42.gap > 0 and abs(g42.gap - g7.gap) < 1e-6

    # S = G on groups of order up to 60: regular action includes the identity
    from altgen.graphs import cayley_graph
    a = Permutation.from_cycles(5, [(0, 1, 2)])
    b = Permutation.from_cycles(5, [(0, 1, 2, 3, 4)])
    alt5 = cayley_graph([a, b])
    full_set = [Permutation(np.array([alt5.elements.index(e * f)
                                      for e in alt5.elements]))
                for f in alt5.elements]
    whole = ActionGraph(full_set)
    rep = spectral_gap(whole, method="dense")
    ok = ok and abs(rep.kazhdan_lower - math.sqrt(2)) < 1e-9
    for n in (3, 12, 30):
        cyc = [Permutation(np.array([(i + k) % n for i in range(n)]))
               for k in range(n)]
        rep = spectral_gap(ActionGraph(cyc), method="dense")
        ok = ok and abs(rep.kazhdan_lower - math.sqrt(2)) < 1e-9
    elapsed = time.time() - t0
    ok = ok and elapsed < 300
    _verdict(8, f"dense vs matrix-free within 1e-6, action gap "
             f"{g42.gap:.9f} (reported-only) reproducible within 1e-6, "
             f"full-set bracket sqrt(2) ({elapsed:.1f}s)", ok)


def test_criterion_9_block_factorization():
    from altgen.blocks import block_factor
    from altgen.perms import product
    t0 = time.time()
    rng = np.random.default_rng(9)
    ok = True
    worst = 0
    for _ in range(100):
        while True:
            g = Permutation.random(50, rng)
            if g.parity == 0:
                break
        factors, windows = block_factor(g, 10)
        worst = max(worst, len(factors))
        ok = ok and product(factors, n=50) == g
        window_sets = [set(w) for w in windows]
        for f in factors:
            ok = ok and f.parity == 0
            supp = set(map(int, f.support()))
            ok = ok and any(supp <= ws for ws in window_sets)
    elapsed = time.time() - t0
    ok = ok and worst <= 18 and elapsed < 60
    _verdict(9, f"100 elements factored, max {worst} <= 18 window-supported "
             f"even factors ({elapsed:.1f}s)", ok)
