import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import altgen
from altgen.gf2 import (MatGF2, SideFieldAction, _prime_factors, companion_matrix,
                        primitive_order_K_element, primitive_polynomial,
                        projector_with_kernel)


def rand_mat(n, rng):
    return MatGF2(n, [int(rng.integers(0, 1 << n)) for _ in range(n)])


def rand_invertible(n, rng):
    while True:
        m = rand_mat(n, rng)
        if m.invertible_mask().all():
            return m


def test_primitive_polynomial_degree_3():
    # brute-force oracle: order of the companion matrix must be exactly 7
    f = primitive_polynomial(3)
    assert f == 0b1011  # x^3 + x + 1 is the lowest one
    M = companion_matrix(f, 3)
    ident = MatGF2.identity(3)
    assert [k for k in range(1, 8) if M.power(k) == ident] == [7]


def test_order_K_element_defining_property():
    # M^K = I and M^(K/p) != I for every prime p | K: the order is exactly K
    for s, primes in ((1, [7]), (2, [3, 7]), (3, [7, 73])):
        M = primitive_order_K_element(s)
        K = (1 << (3 * s)) - 1
        ident = MatGF2.identity(3 * s)
        assert M.power(K) == ident
        assert _prime_factors(K) == primes
        for p in primes:
            assert M.power(K // p) != ident


def test_orbit_covers_all_nonzero_vectors():
    M = primitive_order_K_element(1)
    v = 1
    orbit = set()
    for _ in range(7):
        orbit.add(v)
        v = M.apply(v)
    assert orbit == set(range(1, 8))


def test_dlog_labeling_shift():
    act = SideFieldAction(1)
    p = act.matrix_to_permutation(act.generator)
    assert np.array_equal(p.table, (np.arange(7) + 1) % 7)


def test_matrix_to_permutation_homomorphism():
    act = SideFieldAction(1)
    rng = np.random.default_rng(0)
    for _ in range(100):
        A, B = rand_invertible(3, rng), rand_invertible(3, rng)
        assert act.matrix_to_permutation(A * B) == \
            act.matrix_to_permutation(A) * act.matrix_to_permutation(B)


def test_action_parity_always_even():
    act = SideFieldAction(1)
    rng = np.random.default_rng(1)
    for _ in range(100):
        assert act.matrix_to_permutation(rand_invertible(3, rng)).parity == 0


def test_singular_rejected():
    act = SideFieldAction(1)
    with pytest.raises(ValueError):
        act.matrix_to_permutation(MatGF2(3, [0] * 3))


def test_ring_axioms_sampled():
    rng = np.random.default_rng(2)
    for _ in range(200):
        a, b, c = (rand_mat(3, rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        assert a + a == MatGF2(3, [0] * 3)


def test_inverse_and_rank():
    rng = np.random.default_rng(3)
    for _ in range(50):
        m = rand_invertible(4, rng)
        assert m * m.inverse() == MatGF2.identity(4)
    # rank 0 and rank 1 are singular
    assert not MatGF2(4, [0] * 4).invertible_mask().any()
    assert not MatGF2(4, [0, 1 << 2, 0, 0]).invertible_mask().any()


def test_nullspace():
    rng = np.random.default_rng(4)
    for _ in range(50):
        m = rand_mat(5, rng)
        basis = m.nullspace_basis()
        # rank-nullity: the image has 2^rank vectors and the kernel 2^(5 - rank)
        image = np.unique(m.apply(np.arange(32, dtype=np.uint64)))
        assert len(image) << len(basis) == 32
        for v in basis:
            assert m.apply(v) == 0


def test_projector_with_square_zero_kernel():
    rng = np.random.default_rng(5)
    found = 0
    while found < 30:
        c = rand_mat(4, rng)
        if not (c * c).is_zero() or c.is_zero():
            continue
        found += 1
        pi = projector_with_kernel(c)
        assert pi * pi == pi
        assert c * pi == c       # kernel of pi inside kernel of c
        assert (pi * c).is_zero()  # image of c inside kernel of pi


@pytest.mark.parametrize("rows, check", [
    # order 2, which does not divide K = 7: M^7 e0 = e0 + e1
    ([0b001, 0b011, 0b100], "order exactly K"),
    # the identity has M^7 e0 = e0 but an orbit of one vector
    ([0b001, 0b010, 0b100], "orbit does not cover"),
])
def test_generator_order_check_survives_optimize(rows, check):
    # python -O strips assert statements; a generator of order below K
    # must still be refused, by the check that names its fault
    script = textwrap.dedent(f"""
        import sys
        from altgen import gf2
        from altgen.errors import VerificationError
        gf2.primitive_order_K_element = lambda s: gf2.MatGF2(3, {rows!r})
        try:
            gf2.SideFieldAction(1)
        except VerificationError as exc:
            sys.exit(0 if sys.flags.optimize and {check!r} in str(exc) else 3)
        sys.exit(1)
    """)
    src = str(Path(altgen.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_apply_matches_the_int_reference():
    # bit i of M v is the parity of v & row i, at widths past every fold step
    rng = np.random.default_rng(9)
    for n in (1, 3, 9, 33, 64):
        top = (1 << n) - 1
        m = MatGF2(n, [int(x) for x in rng.integers(0, top, size=n, dtype=np.uint64, endpoint=True)])
        vecs = rng.integers(0, top, size=20, dtype=np.uint64, endpoint=True)
        want = [sum((bin(int(v) & int(r)).count("1") & 1) << i for i, r in enumerate(m.rows[0]))
                for v in vecs]
        assert m.apply(vecs).tolist() == want
        assert m.apply(int(vecs[0])) == want[0]


def _ref_mul(a, b):
    # plain int-row product: row i of A*B is the XOR of B's rows at A's row-i bits
    out = []
    for r in a:
        acc = 0
        for j, row in enumerate(b):
            if (r >> j) & 1:
                acc ^= row
        out.append(acc)
    return out


def _ref_inverse(rows):
    # plain Gauss-Jordan on int rows; None when singular
    n = len(rows)
    a, inv = list(rows), [1 << i for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if (a[r] >> col) & 1), None)
        if piv is None:
            return None
        a[col], a[piv], inv[col], inv[piv] = a[piv], a[col], inv[piv], inv[col]
        for r in range(n):
            if r != col and (a[r] >> col) & 1:
                a[r] ^= a[col]
                inv[r] ^= inv[col]
    return inv


def test_batched_ops_match_the_per_copy_loop():
    rng = np.random.default_rng(6)
    for n in (1, 2, 3, 6):
        A = MatGF2(n, rng.integers(0, 1 << n, size=(40, n)))
        B = MatGF2(n, rng.integers(0, 1 << n, size=(40, n)))
        prod, mask = (A * B).rows, A.invertible_mask()
        for c in range(40):
            a, b = [int(r) for r in A.rows[c]], [int(r) for r in B.rows[c]]
            assert prod[c].tolist() == _ref_mul(a, b)
            assert (A + B).rows[c].tolist() == [x ^ y for x, y in zip(a, b)]
            ref = _ref_inverse(a)
            assert mask[c] == (ref is not None)
            if ref is not None:
                assert A[c].inverse().rows[0].tolist() == ref
        # a single matrix pairs with every copy of a batch
        assert (A[0] * B).rows.tolist() == [_ref_mul([int(r) for r in A.rows[0]],
                                                     [int(r) for r in row])
                                            for row in B.rows]
