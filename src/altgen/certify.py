"""Exact-arithmetic derivation of every numeric constant in the bound chain.

Values are expression trees over rationals closed under arithmetic, square
roots, exp and ln; every tree evaluates to a certified rational enclosure at
any requested precision, so each inequality verdict is exact (no floating
point).  Derivation nodes record which rule produced which bound, and the
whole tree re-validates from its inputs.
"""

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt

from .errors import require

DEFAULT_BITS = 128
# precision past which a comparison gives up on separating two bounds
COMPARE_BITS = 2048


def _round_out(a, b, bits):
    """Outward rounding to denominators 2^(bits+32); keeps rationals tame."""
    scale = 1 << (bits + 32)
    lo = Fraction((a * scale).__floor__(), scale)
    hi = Fraction(-((-b * scale).__floor__()), scale)
    return lo, hi


def _sqrt_interval(x, bits):
    """Certified enclosure of sqrt of a nonnegative Fraction."""
    if x < 0:
        raise ValueError("square root of a negative bound")
    p, q = x.numerator, x.denominator
    scale = 1 << bits
    s = isqrt(p * q * scale * scale)
    lo = Fraction(s, q * scale)
    hi = Fraction(s + 1, q * scale)
    require(lo * lo <= x <= hi * hi, "square-root enclosure is not sound")
    return lo, hi


def _exp_interval(x, bits):
    """Certified enclosure of exp of a Fraction, via scaled Taylor series."""
    # halve the argument until |x| <= 1, then square the enclosure back up
    halvings = 0
    while abs(x) > 1:
        x /= 2
        halvings += 1
    terms = max(20, bits // 2)
    total = Fraction(1)
    term = Fraction(1)
    for k in range(1, terms + 1):
        term = term * x / k
        total += term
    # tail bound: |x|^(T+1)/(T+1)! * 1/(1 - |x|/(T+2)) <= 2 * |term * x/(T+1)|
    tail = 2 * abs(term * x) / (terms + 1)
    lo, hi = total - tail, total + tail
    require(lo > 0, "exp enclosure is not positive")
    for _ in range(halvings):
        lo, hi = _round_out(lo * lo, hi * hi, bits + 64)
    return lo, hi


def _ln_interval(x, bits):
    """Certified enclosure of ln of a positive Fraction."""
    if x <= 0:
        raise ValueError("logarithm of a nonpositive bound")
    if x < 1:
        lo, hi = _ln_interval(1 / x, bits)
        return -hi, -lo
    # write x = m * 2^e with m in [1, 2)
    e = 0
    while x >= 2:
        x /= 2
        e += 1
    ln2_lo, ln2_hi = _atanh_series(Fraction(1, 3), bits)
    ln2_lo, ln2_hi = 2 * ln2_lo, 2 * ln2_hi
    t = (x - 1) / (x + 1)
    m_lo, m_hi = _atanh_series(t, bits)
    return e * ln2_lo + 2 * m_lo, e * ln2_hi + 2 * m_hi


def _atanh_series(t, bits):
    """Enclosure of atanh(t) for 0 <= t <= 1/2, with a geometric tail bound."""
    require(0 <= t <= Fraction(1, 2), "atanh argument outside [0, 1/2]")
    if t == 0:
        return Fraction(0), Fraction(0)
    terms = max(10, bits // 3)
    total = Fraction(0)
    power = t
    t2 = t * t
    for k in range(terms):
        total += power / (2 * k + 1)
        power *= t2
    tail = power / ((2 * terms + 1) * (1 - t2))
    return total, total + tail


class BoundExpr:
    """Expression over Q closed under +,-,*,/, sqrt, exp, ln.

    interval(bits) returns a certified Fraction enclosure; comparisons refine
    until decided.  Immutable; shared subtrees are fine.
    """

    __slots__ = ("kind", "args", "value", "_cache")

    def __init__(self, kind, args=(), value=None):
        self.kind = kind
        self.args = tuple(args)
        self.value = value
        self._cache = {}

    # -- constructors --

    @classmethod
    def rational(cls, x):
        return cls("rat", value=Fraction(x))

    @classmethod
    def sqrt_of(cls, x):
        return cls.rational(x).sqrt()

    @classmethod
    def exp_of(cls, x):
        return cls("exp", (cls.rational(x),))

    @classmethod
    def ln_of(cls, x):
        return cls("ln", (cls.rational(x),))

    def sqrt(self):
        return BoundExpr("sqrt", (self,))

    def exp(self):
        return BoundExpr("exp", (self,))

    @staticmethod
    def _coerce(x):
        return x if isinstance(x, BoundExpr) else BoundExpr.rational(x)

    def __add__(self, other):
        return BoundExpr("add", (self, self._coerce(other)))

    def __radd__(self, other):
        return self._coerce(other) + self

    def __sub__(self, other):
        return BoundExpr("sub", (self, self._coerce(other)))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        return BoundExpr("mul", (self, self._coerce(other)))

    def __rmul__(self, other):
        return self._coerce(other) * self

    def __truediv__(self, other):
        return BoundExpr("div", (self, self._coerce(other)))

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    # -- evaluation --

    def interval(self, bits=DEFAULT_BITS):
        if bits in self._cache:
            return self._cache[bits]
        k = self.kind
        if k == "rat":
            out = (self.value, self.value)
        elif k == "add":
            (a, b), (c, d) = (x.interval(bits) for x in self.args)
            out = (a + c, b + d)
        elif k == "sub":
            (a, b), (c, d) = (x.interval(bits) for x in self.args)
            out = (a - d, b - c)
        elif k == "mul":
            (a, b), (c, d) = (x.interval(bits) for x in self.args)
            prods = (a * c, a * d, b * c, b * d)
            out = (min(prods), max(prods))
        elif k == "div":
            (a, b), (c, d) = (x.interval(bits) for x in self.args)
            if c <= 0 <= d:
                raise ZeroDivisionError("denominator interval contains zero")
            recips = (1 / c, 1 / d)
            prods = (a * recips[0], a * recips[1], b * recips[0], b * recips[1])
            out = (min(prods), max(prods))
        elif k == "sqrt":
            a, b = _round_out(*self.args[0].interval(bits), bits)
            out = (_sqrt_interval(max(a, Fraction(0)), bits)[0],
                   _sqrt_interval(b, bits)[1])
        elif k == "exp":
            a, b = _round_out(*self.args[0].interval(bits), bits)
            out = (_exp_interval(a, bits)[0], _exp_interval(b, bits)[1])
        elif k == "ln":
            a, b = _round_out(*self.args[0].interval(bits), bits)
            out = (_ln_interval(a, bits)[0], _ln_interval(b, bits)[1])
        else:
            raise ValueError(f"unknown node kind {k!r}")
        require(out[0] <= out[1], f"{k} enclosure is empty")
        self._cache[bits] = out
        return out

    def less_than(self, other):
        return _refine_compare(self, self._coerce(other)) < 0

    def greater_than(self, other):
        return _refine_compare(self, self._coerce(other)) > 0


def _refine_compare(x, y):
    """-1, 0(+error), or 1 once the enclosures separate."""
    bits = 64
    while bits <= COMPARE_BITS:
        (a, b), (c, d) = x.interval(bits), y.interval(bits)
        if b < c:
            return -1
        if a > d:
            return 1
        if a == b == c == d:
            raise ValueError("compared bounds are exactly equal")
        bits *= 2
    raise ValueError("bounds too close to separate at the precision limit")


# -- derivation rules -----------------------------------------------------------


@dataclass
class DerivationNode:
    rule: str
    citation: str
    inputs: list = field(default_factory=list)
    value: BoundExpr = None
    checks: list = field(default_factory=list)   # (description, bool)

    def interval(self, bits=DEFAULT_BITS):
        return self.value.interval(bits)

    def all_checks_pass(self):
        return all(ok for _, ok in self.checks)


def axiom(value, citation, rule="axiom"):
    return DerivationNode(rule=rule, citation=citation, value=value)


def rule_kcball(node, k, citation=""):
    """Shrinking a generating set to short products divides the bound by k."""
    if k < 1:
        raise ValueError("word length must be at least 1")
    return DerivationNode(rule="bounded-gen" if k > 2 else "kcball",
                          citation=citation, inputs=[node],
                          value=node.value / k)


def rule_kcrel(rel_node, union_node, citation=""):
    """Relative bound times enlarged-set bound, halved."""
    return DerivationNode(rule="kcrel", citation=citation,
                          inputs=[rel_node, union_node],
                          value=rel_node.value * union_node.value / 2)


def rule_reltconst(t, citation=""):
    """The relative bound 1/(sqrt(18)(sqrt(t)+3)) for t ring generators."""
    value = 1 / (BoundExpr.sqrt_of(18) * (BoundExpr.sqrt_of(t) + 3))
    return DerivationNode(rule="relTconst", citation=citation, value=value)


def _check(node, description, ok):
    node.checks.append((description, bool(ok)))
    require(ok, f"derivation check failed: {description}")
    return node


def derive_paper_constants():
    """The full derivation tree reproducing the published constant chain.

    Every inequality along the chain is verified in exact arithmetic; any
    failure raises immediately (it would mean a transcription bug).
    """
    nodes = {}

    n_full = axiom(BoundExpr.sqrt_of(2), "full generating set moves some vector "
                   "by sqrt(2)", rule="full-set")
    nodes["full-set"] = n_full

    n_gem = rule_kcball(n_full, 17, "every product-group element is a product "
                        "of 17 generalized elementary matrices")
    _check(n_gem, "sqrt(2)/17 matches",
           n_gem.interval() == (BoundExpr.sqrt_of(2) / 17).interval())
    nodes["gem"] = n_gem

    n_rel = rule_reltconst(5, "relative bound for the pair over a ring with "
                           "five generators")
    half_rel = n_rel.value / 2
    target = 1 / (6 * BoundExpr.sqrt_of(2) * (3 + BoundExpr.sqrt_of(5)))
    lo1, hi1 = half_rel.interval()
    lo2, hi2 = target.interval()
    _check(n_rel, "half the relative constant equals 1/(6 sqrt2 (3+sqrt5))",
           not (hi1 < lo2 or lo1 > hi2))
    nodes["reltconst"] = n_rel

    n_sbar = rule_kcrel(n_rel, n_gem, "combining the relative pair bound with "
                        "the elementary-set bound")
    _check(n_sbar, "involution-set bound exceeds 1/550",
           n_sbar.value.greater_than(Fraction(1, 550)))
    _check(n_sbar, "value lies in (1/535, 1/534)",
           n_sbar.value.greater_than(Fraction(1, 535))
           and n_sbar.value.less_than(Fraction(1, 534)))
    nodes["sbar"] = n_sbar

    n_sbar_paper = axiom(BoundExpr.rational(Fraction(1, 550)),
                         "rounded involution-set bound used downstream")
    nodes["sbar-rounded"] = n_sbar_paper

    n_lines = axiom(BoundExpr.rational(Fraction(1, 70)),
                    "bound for the union of line groups (large-side regime)")
    nodes["line-groups"] = n_lines

    n_sn = rule_kcrel(n_sbar_paper, n_lines,
                      "relative bound through the axis embeddings")
    _check(n_sn, "equals 1/77000",
           n_sn.value.interval()[0] == Fraction(1, 77000)
           and n_sn.value.interval()[1] == Fraction(1, 77000))
    _check(n_sn, "exceeds 1e-5", n_sn.value.greater_than(Fraction(1, 10**5)))
    nodes["alt-involutions"] = n_sn

    # general-degree chain: bounded generation by 1e6 window copies
    n_windows = rule_kcball(n_full, 10**6, "every element is a product of at "
                            "most 1e6 window-embedded elements")
    n_general = DerivationNode(
        rule="composition", citation="window chain: (sqrt2/P) * base bound",
        inputs=[n_windows, n_sn], value=n_windows.value * n_sn.value)
    _check(n_general, "general-degree bound exceeds 1e-12",
           n_general.value.greater_than(Fraction(1, 10**12)))
    nodes["alt-general"] = n_general

    n_sym_factor = axiom(BoundExpr.sqrt_of(2) / 4,
                         "odd-coset extension multiplies the bound by sqrt(2)/4")
    _check(n_sym_factor, "sqrt(2)/4 at least 1/3",
           n_sym_factor.value.greater_than(Fraction(1, 3)))
    nodes["sym-factor"] = n_sym_factor

    n_sym = DerivationNode(
        rule="composition", citation="symmetric-group set from the alternating one",
        inputs=[n_sym_factor, n_general],
        value=n_sym_factor.value * n_general.value)
    nodes["sym-general"] = n_sym

    # the almost-invariance split: 63 eps + 0.07 < 1 at eps = 1/70
    eps = Fraction(1, 70)
    n_split = axiom(BoundExpr.rational(63 * eps + Fraction(7, 100)),
                    "distance of an almost-invariant vector to an invariant one")
    _check(n_split, "63/70 + 0.07 = 0.97", n_split.value.interval()[0] == Fraction(97, 100))
    _check(n_split, "less than 1", n_split.value.less_than(1))
    nodes["split"] = n_split

    n_decay = axiom(BoundExpr.exp_of(Fraction(-3)) + Fraction(2, 100),
                    "character decay plus the missed conjugacy-class mass")
    _check(n_decay, "e^-3 + 0.02 below 0.07",
           n_decay.value.less_than(Fraction(7, 100)))
    nodes["decay"] = n_decay

    return nodes


def derive_decay_chain():
    """Checks around the character-decay exponent.

    Verifies the boundary inequality
    sqrt(K)/(24 ln K) * (1 - 3 (K+4) K^(1-d) ln K) >= 3 at d = 6 and
    K = 1e6 + 1, and reports sampled values upward (monotonicity observed,
    not asserted).
    """
    d, bits = 6, 192
    report = {"checks": [], "samples": []}

    def exponent_expr(Kv):
        lnK = BoundExpr.ln_of(Kv)
        return (BoundExpr.sqrt_of(Kv) / (24 * lnK)) * \
            (1 - 3 * (Kv + 4) * BoundExpr.rational(Fraction(1, Kv ** (d - 1))) * lnK)

    boundary = 10**6 + 1
    e0 = exponent_expr(boundary)
    ok = e0.greater_than(3)
    report["checks"].append((f"exponent factor at K={boundary} is at least 3", ok))
    for Kv in (10**7, 10**8, 10**10, 10**12):
        lo, hi = exponent_expr(Kv).interval(bits)
        report["samples"].append((Kv, float(lo), float(hi)))

    eps = Fraction(1, 70)
    v1 = 47 * eps + Fraction(7, 100)
    total = 63 * eps + Fraction(7, 100)
    report["checks"].append(("47 eps + 0.07 stays below 1", v1 < 1))
    report["checks"].append(("16 eps contraction term", 16 * eps < 1))
    report["checks"].append(("63 eps + 0.07 = 0.97 < 1", total == Fraction(97, 100)))

    require(all(ok for _, ok in report["checks"]),
            f"decay chain check failed: {report['checks']}")
    return report


# -- serialization ----------------------------------------------------------------


def _expr_to_dict(expr):
    if expr.kind == "rat":
        return {"kind": "rat", "value": str(expr.value)}
    return {"kind": expr.kind, "args": [_expr_to_dict(a) for a in expr.args]}


def _expr_from_dict(data):
    if data["kind"] == "rat":
        return BoundExpr.rational(Fraction(data["value"]))
    args = tuple(_expr_from_dict(a) for a in data["args"])
    return BoundExpr(data["kind"], args)


def tree_to_json(nodes):
    """Serialize a derivation tree; intervals stored as rational strings."""
    order = list(nodes)
    index = {id(nodes[k]): i for i, k in enumerate(order)}
    out = []
    for key in order:
        node = nodes[key]
        lo, hi = node.interval()
        out.append({
            "name": key,
            "rule": node.rule,
            "citation": node.citation,
            "inputs": [index[id(p)] for p in node.inputs if id(p) in index],
            "interval": [str(lo), str(hi)],
            "expr": _expr_to_dict(node.value),
            "checks": [{"description": d, "ok": ok} for d, ok in node.checks],
        })
    return json.dumps({"bits": DEFAULT_BITS, "nodes": out}, indent=1)


def revalidate_tree(payload):
    """Recompute every stored interval from its expression; exact match required."""
    data = json.loads(payload)
    bits = data["bits"]
    for entry in data["nodes"]:
        expr = _expr_from_dict(entry["expr"])
        lo, hi = expr.interval(bits)
        if [str(lo), str(hi)] != entry["interval"]:
            raise ValueError(f"node {entry['name']} does not revalidate")
        if not all(c["ok"] for c in entry["checks"]):
            raise ValueError(f"node {entry['name']} has failed checks")
    return True
