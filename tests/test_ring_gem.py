import numpy as np
import pytest

from altgen import ring
from altgen.errors import VerificationError
from altgen.gf2 import MatGF2
from altgen.ring import (EL3Element, GemWord, commutator_pair,
                         el3_generating_set, el3_generating_set_size,
                         gem_factor, random_el3, ring_generators, tuple_length,
                         _combine_invertible, _commutator_table, _gl_elements,
                         _per_copy)


def ring_closure_size(gens, s, m):
    """Oracle: dimension of the unital closure under + and *, as 2^dim."""
    one = MatGF2.identity(s, m)

    def tovec(x):
        flat = 0
        for c in range(m):
            for r in range(s):
                flat |= int(x.rows[c][r]) << (c * s * s + r * s)
        return flat

    basis_vecs, basis_els = [], []

    def reduce(v):
        for b in basis_vecs:
            v = min(v, v ^ b)
        return v

    def add(x):
        v = reduce(tovec(x))
        if v:
            basis_vecs.append(v)
            basis_vecs.sort(reverse=True)
            basis_els.append(x)
            return True
        return False

    add(one)
    for g in gens:
        add(g)
    changed = True
    while changed:
        changed = False
        for a in list(basis_els):
            for b in list(basis_els):
                if add(a * b):
                    changed = True
    return 1 << len(basis_vecs)


def test_tuple_length_matches_formula():
    # ceil(log_{2^(s^2)} m); at the full model this is ceil(3(d-1)/s)
    assert tuple_length(1, 7**5) == 15
    assert tuple_length(7, ((1 << 21) - 1) ** 5) == 3
    assert tuple_length(2, 1) == 0
    assert tuple_length(1, 2) == 1


def test_ring_generator_counts():
    assert len(ring_generators(1, 2)) == 3
    assert len(ring_generators(2, 1)) == 2
    assert len(ring_generators(1, 7**5)) == 17


def test_ring_generation_exhaustive_small():
    for s, m, size in [(1, 2, 4), (2, 1, 16), (1, 4, 16), (2, 2, 256),
                       (1, 3, 8), (2, 3, 16**3), (2, 4, 16**4)]:
        gens = ring_generators(s, m)
        assert ring_closure_size(gens, s, m) == size == (1 << (s * s)) ** m


def test_ring_generator_words_span_the_matrix_algebra():
    # the words in a and b (the empty word included) must span all of Mat_s;
    # with a = E_10 row s - 1 of every word stays zero and the span is 3s - 2
    for s in range(1, 8):
        a, b = (gen[0] for gen in ring_generators(s, 1)[:2])

        def key(x):
            return sum(int(r) << (s * i) for i, r in enumerate(x.rows[0]))

        basis, frontier = [], [MatGF2.identity(s)]
        while frontier:
            grown = []
            for x in frontier:
                v = key(x)
                for u in basis:
                    v = min(v, v ^ u)
                if v:
                    basis.append(v)
                    basis.sort(reverse=True)
                    grown += [x * a, x * b]
            frontier = grown
        assert len(basis) == s * s, f"s = {s}: span dimension {len(basis)}"


def test_generating_set_sizes():
    assert el3_generating_set_size(1, 6) == 108
    assert el3_generating_set_size(7, 6) == 36
    assert len(el3_generating_set(1, 2)) == 24
    assert len(el3_generating_set(2, 1)) == 18


def test_generating_set_involutions():
    for s, m in [(1, 1), (1, 3), (2, 2)]:
        for x in el3_generating_set(s, m):
            assert (x * x).is_identity()
            assert x.is_gem()


def test_gem_factor_identity_and_single_letter():
    g = EL3Element.identity(2, 2)
    assert len(gem_factor(g)) == 0
    coeff = MatGF2.identity(1, 3)
    e = EL3Element.elementary(1, 3, 0, 2, coeff)
    w = gem_factor(e)
    assert len(w) == 1 and w.verify()


def test_gem_factor_random_words():
    for s in (1, 2):
        for m in (1, 2):
            rng = np.random.default_rng(100 * s + m)
            for _ in range(50):
                g = random_el3(s, m, rng, length=20)
                word = gem_factor(g)
                assert word.verify()
                assert len(word) <= 17
                for letter in word.letters:
                    assert letter.is_gem()


def test_gem_factor_s3():
    rng = np.random.default_rng(9)
    for _ in range(5):
        g = random_el3(3, 1, rng, length=16)
        word = gem_factor(g)
        assert word.verify() and len(word) <= 17


def test_commutator_table_s2_covers_exactly_the_even_elements():
    table = _commutator_table(2)
    # oracle: the commutator subgroup of GL_2(F2) has index 2 (order 3)
    assert len(table) == 3
    for p, (v, w) in table.items():
        assert v * w * v.inverse() * w.inverse() == p


def test_commutator_table_s3_is_complete():
    table = _commutator_table(3)
    assert len(table) == _gl_elements(3).m == 168


def test_commutator_pair_rejects_odd_component():
    # a transvection is outside the commutator subgroup of GL_2(F2)
    odd = MatGF2(2, [0b11, 0b10])
    assert odd.invertible_mask().all()
    with pytest.raises(ValueError, match="component 0: .*not a commutator"):
        _per_copy(commutator_pair, odd)


def test_el3_copy_matrix_roundtrip():
    rng = np.random.default_rng(4)
    g = random_el3(2, 3, rng, length=10)
    mats = [MatGF2(6, [int(r) for r in g.rows[c]]) for c in range(3)]
    assert EL3Element(6, np.concatenate([mat.rows for mat in mats])) == g
    for mat in mats:
        assert mat.invertible_mask().all()
    # block (i, j) of copy c is the s x s slice of copy c's matrix
    for c, mat in enumerate(mats):
        for i in range(3):
            for j in range(3):
                want = [(mat.rows[0, 2 * i + r] >> (2 * j)) & 3 for r in range(2)]
                assert g.blocks[i][j].rows[c].tolist() == want


def test_el3_inverse():
    rng = np.random.default_rng(5)
    g = random_el3(2, 2, rng, length=12)
    assert (g * g.inverse()).is_identity()


def test_el3_product_is_the_block_product():
    # entry (i, j) of g*h over R is sum_k g_ik h_kj, computed on the blocks
    rng = np.random.default_rng(7)
    for s, m in [(1, 5), (2, 3), (3, 2)]:
        g, h = random_el3(s, m, rng, length=8), random_el3(s, m, rng, length=8)
        gb, hb, prod = g.blocks, h.blocks, (g * h).blocks
        for i in range(3):
            for j in range(3):
                want = gb[i][0] * hb[0][j] + gb[i][1] * hb[1][j] + gb[i][2] * hb[2][j]
                assert prod[i][j] == want


def test_batched_searches_match_loop_references():
    # first invertible coefficient tuple in lex order, as a plain loop finds it
    rng = np.random.default_rng(8)
    every = MatGF2.from_int(2, np.arange(16))
    for _ in range(30):
        target, h1, h2 = (MatGF2(2, rng.integers(0, 4, size=2)) for _ in range(3))
        for helpers in ((h1,), (h1, h2)):
            want = None
            for packed in range(16 ** len(helpers)):
                coeffs = [every[(packed >> (4 * i)) & 15] for i in range(len(helpers))]
                acc = target
                for coef, helper in zip(coeffs, helpers):
                    acc = acc + coef * helper
                if acc.invertible_mask().all():
                    want = coeffs
                    break
            if want is None:
                with pytest.raises(ValueError, match="not unimodular"):
                    _combine_invertible(target, *helpers)
            else:
                assert list(_combine_invertible(target, *helpers)) == want
    # the commutator table keeps each p's first (v, w) in v-major pair order
    els = _gl_elements(2)
    first = {}
    for v in range(els.m):
        for w in range(els.m):
            p = els[v] * els[w] * els[v].inverse() * els[w].inverse()
            first.setdefault(p, (els[v], els[w]))
    assert list(_commutator_table(2).items()) == list(first.items())


def test_per_copy_search_runs_once_per_distinct_copy():
    # repeated copies share one search; results land on every copy
    comps = list(_commutator_table(2).keys())
    u = MatGF2(2, np.concatenate([comps[k].rows for k in (1, 0, 1, 2, 0, 1)]))
    calls = []

    def search(x):
        calls.append(x)
        return commutator_pair(x)

    v, w = _per_copy(search, u)
    # one search per distinct copy, in the order of the copies' first indices
    assert calls == [u[0], u[1], u[3]]
    assert v * w * v.inverse() * w.inverse() == u
    for c in range(6):
        assert (v[c], w[c]) == commutator_pair(u[c])


def test_per_copy_names_the_lowest_index_failing_copy():
    # copy 0 is the identity; copies 1 and 2 are singular, and copy 2 has the smallest byte key
    u = MatGF2(2, [[0b01, 0b10], [0, 0b10], [0, 0b01]])
    def pair(comp):
        if not comp.invertible_mask().all():
            raise ValueError("not invertible")
        return commutator_pair(comp)

    with pytest.raises(ValueError, match="component 1: not invertible"):
        _per_copy(pair, u)


def test_randomized_commutator_pair_factors_a_non_real_seven_cycle():
    # diag(C, 1) with C the companion matrix of x^3 + x + 1: order 7 in GL_4(2) = A_8
    p = MatGF2(4, [0b0100, 0b0101, 0b0010, 0b1000])
    ident = MatGF2.identity(4)
    assert p.power(7) == ident and p != ident
    # not a product of two involutions, so the corner search needs a commutator pair
    els = _gl_elements(4)
    t1 = els[(els * els).identity_mask()]
    assert not ((t1 * p) * (t1 * p)).identity_mask().any()
    v, w = commutator_pair(p)
    assert v * w * v.inverse() * w.inverse() == p


def test_randomized_commutator_budget_counts_invertible_pairs(monkeypatch):
    # the zero matrix is no commutator, so the search spends its whole budget;
    # it must test exactly `budget` invertible pairs, drawing past the singular ones
    class Recorder:
        def __init__(self):
            self.rng, self.draws = np.random.default_rng(5), []

        def integers(self, *args, **kwargs):
            self.draws.append(self.rng.integers(*args, **kwargs))
            return self.draws[-1]

    rec, budget = Recorder(), 3000
    monkeypatch.setattr(ring, "COMMUTATOR_BUDGET", budget)
    with pytest.raises(ValueError, match="budget"):
        commutator_pair(MatGF2(4, [0] * 4), rng=rec)
    counts = [int((MatGF2(4, v).invertible_mask() & MatGF2(4, w).invertible_mask()).sum())
              for v, w in zip(rec.draws[::2], rec.draws[1::2])]
    assert sum(counts[:-1]) < budget <= sum(counts)


def _stack(*elements):
    return EL3Element(elements[0].n, np.concatenate([el.rows for el in elements]))


def test_stacked_draw_equals_successive_draws():
    for s, m, length in [(1, 1, 32), (1, 2, 5), (2, 3, 24), (3, 2, 7)]:
        stacked_rng, single_rng = np.random.default_rng(s + m), np.random.default_rng(s + m)
        stack = random_el3(s, m, stacked_rng, length=length, count=6)
        singles = [random_el3(s, m, single_rng, length=length) for _ in range(6)]
        assert stack == _stack(*singles)
        assert stacked_rng.bit_generator.state == single_rng.bit_generator.state


def test_stacked_word_cuts_to_each_elements_word():
    # element e's letters are the stacked letters cut to copies [e*m, (e+1)*m),
    # identity letters dropped, letter for letter
    for s in (1, 2, 3):
        for m in (1, 2, 5):
            rng = np.random.default_rng(10 * s + m)
            count = 8
            stack = random_el3(s, m, rng, length=16, count=count)
            word = gem_factor(stack)
            lengths = word.part_lengths(count)
            full = 0
            for e in range(count):
                single = gem_factor(stack[e * m:(e + 1) * m])
                cut = [letter[e * m:(e + 1) * m] for letter in word.letters]
                cut = [letter for letter in cut if not letter.is_identity()]
                # an identity or GEM element takes gem_factor's shortcut instead
                if len(single) > 1:
                    assert cut == single.letters
                    full += 1
                assert lengths[e] == len(single)
            assert full >= count // 2


def test_part_lengths_keeps_the_identity_and_gem_shortcuts():
    # a random element makes the stack run the full elimination, whose cuts
    # leave letters on the identity and the GEM parts; gem_factor gives them
    # [] and [e], and part_lengths must read 0 and 1
    for s, m in [(1, 1), (1, 2), (2, 2)]:
        rng = np.random.default_rng(3)
        g = random_el3(s, m, rng)
        e = EL3Element.elementary(s, m, 1, 2, MatGF2.identity(s, m))
        stack = _stack(g, EL3Element.identity(s, m), e)
        word = gem_factor(stack)
        assert len(word) > 1 and word.verify()
        assert word.part_lengths(3).tolist() == [len(gem_factor(g)), 0, 1]
    ident = EL3Element.identity(2, 2)
    assert gem_factor(_stack(ident, ident)).part_lengths(2).tolist() == [0, 0]
    e = EL3Element.elementary(1, 1, 0, 2, MatGF2.identity(1))
    f = EL3Element.elementary(1, 1, 1, 2, MatGF2.identity(1))
    word = gem_factor(_stack(e, EL3Element.identity(1, 1), f))
    assert len(word) == 1 and word.part_lengths(3).tolist() == [1, 0, 1]


def test_one_flipped_bit_in_a_stacked_letter_fails_the_multiply_back():
    rng = np.random.default_rng(11)
    s, m, count = 2, 2, 5
    word = gem_factor(random_el3(s, m, rng, count=count))
    assert word.verify()
    # flip one moved bit of the first letter that moves element 3, on one of its
    # copies; the flipped letter moves a subset of the blocks, so it is still a GEM
    part = slice(3 * m, 4 * m)
    k = next(k for k, letter in enumerate(word.letters) if not letter[part].is_identity())
    rows = word.letters[k].rows.copy()
    moved = rows ^ EL3Element.identity(s, 1).rows
    copies, moved_rows = np.nonzero(moved[part])
    copy, row = 3 * m + int(copies[0]), int(moved_rows[0])
    rows[copy, row] ^= np.uint64(1 << (int(moved[copy, row]).bit_length() - 1))
    letters = list(word.letters)
    letters[k] = EL3Element(3 * s, rows)
    assert letters[k].is_gem()
    assert not GemWord(letters, word.target).verify()


def test_gem_letter_check_is_a_verification_error():
    # a full EL3 element is no GEM; the check must survive python -O
    rng = np.random.default_rng(12)
    g = random_el3(1, 2, rng)
    assert not g.is_gem()
    with pytest.raises(VerificationError, match="GEM predicate"):
        GemWord([g], g)
