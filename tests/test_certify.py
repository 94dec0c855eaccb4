import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

import altgen
from altgen.certify import (BoundExpr, derive_decay_chain,
                            derive_paper_constants, revalidate_tree,
                            rule_kcball, rule_kcrel, rule_reltconst, axiom,
                            tree_to_json)


def contains(expr, true_value, bits=128):
    # the float oracle itself carries ulp error, so allow a hair of slack
    lo, hi = expr.interval(bits)
    slack = 1e-12 * max(1.0, abs(true_value))
    return float(lo) - slack <= true_value <= float(hi) + slack


def test_sqrt_enclosures():
    for x in (2, 5, 18, Fraction(1, 3), Fraction(97, 13)):
        e = BoundExpr.sqrt_of(x)
        assert contains(e, math.sqrt(float(x)))
        lo, hi = e.interval(128)
        assert lo * lo <= Fraction(x) <= hi * hi
        assert hi - lo < Fraction(1, 2**100)


def test_exp_ln_enclosures():
    for x in (-3, -1, 0, 2, Fraction(5, 7), -12):
        assert contains(BoundExpr.exp_of(Fraction(x)), math.exp(float(x)))
    for x in (2, 10**6 + 1, Fraction(3, 2), Fraction(1, 7)):
        assert contains(BoundExpr.ln_of(Fraction(x)), math.log(float(x)))


def test_interval_arithmetic_soundness():
    a = BoundExpr.sqrt_of(2)
    b = BoundExpr.sqrt_of(3)
    combo = (a + b) * (a - b) / 7  # (2 - 3)/7 = -1/7
    assert contains(combo, -1 / 7)
    sq = a * a
    lo, hi = sq.interval(192)
    assert lo <= 2 <= hi


def test_widening_never_flips_verdicts():
    pairs = [
        (BoundExpr.sqrt_of(2) / 17, BoundExpr.rational(Fraction(1, 13))),
        (BoundExpr.rational(Fraction(1, 550)),
         1 / (6 * (3 + BoundExpr.sqrt_of(5)) * 17)),
        (BoundExpr.exp_of(Fraction(-3)), BoundExpr.rational(Fraction(5, 100))),
    ]
    for x, y in pairs:
        verdicts = set()
        for bits in (64, 128, 256, 512):
            (a, b), (c, d) = x.interval(bits), y.interval(bits)
            if b < c:
                verdicts.add("lt")
            elif a > d:
                verdicts.add("gt")
        assert len(verdicts) == 1


def test_rule_kcball():
    n = axiom(BoundExpr.sqrt_of(2), "start")
    out = rule_kcball(n, 17)
    lo, hi = out.interval()
    assert float(lo) <= math.sqrt(2) / 17 <= float(hi)
    same = rule_kcball(n, 1)
    assert same.interval() == n.interval()


def test_rule_kcrel_values():
    a = axiom(BoundExpr.rational(Fraction(1, 70)), "a")
    b = axiom(BoundExpr.rational(Fraction(1, 550)), "b")
    out = rule_kcrel(a, b)
    assert out.interval()[0] == Fraction(1, 77000)
    # saturation is never applied: the rule is used verbatim
    two = axiom(BoundExpr.rational(2), "two")
    sat = rule_kcrel(two, two)
    assert sat.interval()[0] == Fraction(2)


def test_rule_reltconst_matches_displayed_form():
    n = rule_reltconst(5)
    half = n.value / 2
    displayed = 1 / (6 * BoundExpr.sqrt_of(2) * (3 + BoundExpr.sqrt_of(5)))
    (a, b), (c, d) = half.interval(256), displayed.interval(256)
    assert not (b < c or a > d)  # equal reals: enclosures always overlap


def test_sl_chain_shape():
    # (1/10 relative, sqrt(2)/N enlarged) -> sqrt(2)/(20 N)
    rel = axiom(BoundExpr.rational(Fraction(1, 10)), "rel")
    N = 3 * 16**2 // 2 + 60
    enlarged = rule_kcball(axiom(BoundExpr.sqrt_of(2), "full"), N)
    out = rule_kcrel(rel, enlarged)
    assert contains(out.value, math.sqrt(2) / (20 * N))


def test_full_chain_values():
    nodes = derive_paper_constants()
    sbar = nodes["sbar"].value
    assert sbar.greater_than(Fraction(1, 550))
    assert sbar.greater_than(Fraction(1, 535)) and sbar.less_than(Fraction(1, 534))
    assert nodes["alt-involutions"].value.interval()[0] == Fraction(1, 77000)
    assert nodes["alt-general"].value.greater_than(Fraction(1, 10**12))
    assert nodes["sym-factor"].value.greater_than(Fraction(1, 3))
    assert nodes["split"].value.interval()[0] == Fraction(97, 100)
    assert all(n.all_checks_pass() for n in nodes.values())


def test_decay_chain():
    rep = derive_decay_chain()
    assert all(ok for _, ok in rep["checks"])
    # the sampled exponent factors grow with the side length
    samples = [lo for _, lo, _ in rep["samples"]]
    assert samples == sorted(samples)
    assert samples[0] > 3


def test_tree_revalidation(tmp_path):
    nodes = derive_paper_constants()
    payload = tree_to_json(nodes)
    assert revalidate_tree(payload)
    # corrupting an interval must be caught
    broken = payload.replace("1/77000", "1/77001", 1)
    with pytest.raises(ValueError):
        revalidate_tree(broken)


def test_comparison_of_equal_values_raises():
    with pytest.raises(ValueError):
        BoundExpr.rational(1).less_than(BoundExpr.rational(1))


def test_division_by_interval_containing_zero():
    span = BoundExpr.sqrt_of(2) - BoundExpr.sqrt_of(2)
    with pytest.raises(ZeroDivisionError):
        (BoundExpr.rational(1) / span).interval()


def test_interval_soundness_check_survives_optimize():
    # python -O strips assert statements; a square-root enclosure that
    # overshoots must still raise
    script = textwrap.dedent("""
        import math
        import sys
        from altgen import certify
        from altgen.errors import VerificationError
        certify.isqrt = lambda x: math.isqrt(x) + 2
        try:
            certify.BoundExpr.sqrt_of(2).interval()
        except VerificationError:
            sys.exit(0 if sys.flags.optimize else 3)
        sys.exit(1)
    """)
    src = str(Path(altgen.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
