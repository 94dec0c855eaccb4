"""Command-line surface: reproducible construction and verification runs.

Every subcommand echoes its configuration (including the seed) into a
machine-readable report; identical configurations produce byte-identical
reports apart from the timing field.  `main` builds the report and each
subcommand's handler only adds records to it.  Three `verify` suites run
their subcommand at desk settings and prefix its record names with the
suite: `certify` runs `certify`, `blocks` runs `factor blocks` and
`spectral` runs `spectral`.  Exit codes: 0 when nothing failed,
1 when at least one check failed, 2 for configuration errors.  A failed
`require` ends the run with a `verification-error` fail record, and the
report is still written.
"""

import argparse
import decimal
import json
import math
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import blocks as blocks_mod
from . import walks
from .embeddings import build_SN, build_Fn, build_sym
from .errors import VerificationError, require
from .geometry import CubeGeometry
from .perms import Permutation
from .ring import el3_generating_set_size, el3_involutions
from .schreier_sims import group_order

SCHEMA = "altgen-report-1"
SUITES = ("certify", "characters", "gem", "blocks", "walk", "words", "spectral")


@dataclass
class CheckRecord:
    name: str
    citation: str
    computed: object
    bound: object = None
    verdict: str = "pass"   # pass | fail | reported-only

    def as_dict(self):
        return {
            "name": self.name,
            "citation": self.citation,
            "computed": _jsonable(self.computed),
            "bound": _jsonable(self.bound),
            "verdict": self.verdict,
        }


def _jsonable(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.floating,)):
        return float(x)
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


@dataclass
class Report:
    config: dict
    records: list = field(default_factory=list)
    started: float = field(default_factory=time.time)

    def add(self, record):
        self.records.append(record)

    def check(self, name, citation, computed, bound=None, ok=None):
        """Record a check; ok=None marks a value that is only reported."""
        if ok is None:
            verdict = "reported-only"
        else:
            verdict = "pass" if ok else "fail"
        self.add(CheckRecord(name, citation, computed, bound, verdict))

    def exit_code(self):
        return 1 if any(r.verdict == "fail" for r in self.records) else 0

    def as_json(self):
        body = {
            "schema": SCHEMA,
            "config": _jsonable(self.config),
            "records": [r.as_dict() for r in sorted(self.records, key=lambda r: r.name)],
            "timing_seconds": round(time.time() - self.started, 3),
        }
        return json.dumps(body, indent=1, sort_keys=True)

    def emit(self, out_path=None):
        text = self.as_json()
        if out_path:
            with open(out_path, "w") as fh:
                fh.write(text + "\n")
        print(text)
        return self.exit_code()


# -- gens.json -------------------------------------------------------------------


def _ring_element_hex(el):
    # bit (copy, row, col) flattened copy-major, then packed to bytes
    s = el.n
    bits = ((el.rows[:, :, None] >> np.arange(s, dtype=np.uint32)) & 1)
    return {"m": el.m, "s": s,
            "rows": np.packbits(bits.astype(np.uint8).ravel()).tobytes().hex()}


def _el3_to_json(el):
    return {"blocks": [[_ring_element_hex(block) for block in row] for row in el.blocks]}


def write_gens_json(genset, path):
    """Dump the set's document to path and return it."""
    model = genset.model
    data = {
        "schema": "altgen-gens-1",
        "s": model.s,
        "d": model.d,
        "K": model.K,
        "N": str(model.N),
        "regime": genset.regime,
        "name": genset.name,
        "count": len(genset),
        "generators": [],
    }
    kind = "lines" if genset.materializable else "symbolic"
    for label, axis, provenance in genset.describe():
        data["generators"].append({"label": label, "axis": axis,
                                   "provenance": provenance, "kind": kind})
    if genset.materializable:
        # each involution is built, converted and dropped in turn
        data["involution_set"] = [_el3_to_json(el) for el in
                                  el3_involutions(model.s, model.lines_per_axis)]
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
    return data


# -- small desk bases ---------------------------------------------------------------


def desk_base(m):
    """A small generating set of Alt(m) for window embeddings."""
    if m < 3:
        raise ValueError("need at least 3 points")
    three = Permutation.from_cycles(m, [(0, 1, 2)])
    if m % 2:
        cyc = Permutation.from_cycles(m, [tuple(range(m))])
    else:
        cyc = Permutation.from_cycles(m, [tuple(range(1, m))])
    return [three, cyc]


# -- subcommands --------------------------------------------------------------------


def cmd_construct(args, report):
    genset = build_SN(args.s, args.d)
    expect = args.d * el3_generating_set_size(args.s, args.d)
    report.check("generator-count", "union of the involution set over all axes",
                 len(genset), ok=len(genset) == expect)
    report.check("regime", "explicit bounds hold for s > 6 at d = 6", genset.regime)
    if genset.materializable:
        even = genset.all_even()
        report.check("all-even", "product-group elements act evenly", even, ok=even)
    if args.out:
        data = write_gens_json(genset, args.out)
        try:
            # the file must read back as the document written
            with open(args.out) as fh:
                ok = json.load(fh) == data
        except ValueError:
            ok = False
        report.check("gens-json", "serialized generating set", args.out, ok=ok)


def cmd_construct_general(args, report):
    n, m = args.n, args.base_m
    base = desk_base(m)
    perms, windows = build_Fn(n, base, m)
    bound = blocks_mod.factor_count_bound(n, m)
    report.check("window-count", "at most 3 ceil(n/m) + 3 window images",
                 len(windows), bound=bound, ok=len(windows) <= bound)
    report.check("generator-count", "union bound: windows times base size",
                 len(perms), bound=len(windows) * len(base),
                 ok=len(perms) <= len(windows) * len(base))
    if args.sym:
        perms = build_sym(n, perms)
        # the appended generator is the transposition of points 0 and 1
        report.check("odd-extension", "one odd generator extends to the full group",
                     "t01", ok=perms[-1].parity == 1)
    order = group_order(perms, seed=args.seed)
    expect = math.factorial(n) if args.sym else math.factorial(n) // 2
    # str() of an int refuses more than 4300 digits; Decimal has no limit
    report.check("generated-order", "the window images generate the target group",
                 str(decimal.Decimal(order)), bound=str(decimal.Decimal(expect)),
                 ok=order == expect)


def cmd_schreier(args, report):
    from .graphs import schreier_graph, write_edge_list
    genset = build_SN(args.s, args.d)
    graph = schreier_graph(genset)
    report.check("vertices", "action graph on the cube points", graph.n)
    row_sums = np.zeros(graph.n)
    for src, _, count in graph.edge_counts():
        row_sums += np.bincount(src, weights=count, minlength=graph.n)
    report.check("degree", "generator applications counted with multiplicity",
                 graph.degree, ok=bool((row_sums == graph.degree).all()))
    conn = graph.is_connected()
    report.check("connected", "the involution set generates a transitive group",
                 conn, ok=conn)
    if args.out:
        if graph.n * graph.degree > 5 * 10**7:
            report.check("edge-list", "export skipped: too large", args.out)
        else:
            write_edge_list(graph, args.out)
            report.check("edge-list", "text export", args.out, ok=True)


def cmd_spectral(args, report):
    from .graphs import schreier_graph, read_edge_list
    from .spectral import spectral_gap
    if args.edges:
        graph = read_edge_list(args.edges)
    else:
        graph = schreier_graph(build_SN(args.s, args.d))
    rep = spectral_gap(graph, method=args.method, tol=args.tol, seed=args.seed)
    report.check("gap", "spectral gap of the normalized adjacency", rep.gap)
    report.check("gap-positive", "expansion requires a positive gap",
                 rep.gap, bound=0.0, ok=rep.gap > 0)
    report.check("gap-upper-certified", "Courant-Fischer: one minus the exact Rayleigh "
                 "quotient of the rounded eigenvector bounds the gap above",
                 rep.gap_upper, bound=rep.gap,
                 ok=rep.gap_upper is not None and rep.gap <= rep.gap_upper + 1e-12)
    report.check("kazhdan-bracket", "averaging lower bound and eigenvector upper "
                 "bound, for this permutation representation only",
                 [rep.kazhdan_lower, rep.kazhdan_upper])
    report.check("cheeger-sandwich", "half the gap never exceeds the sweep bound",
                 {"half_gap": rep.gap / 2, "sweep": rep.cheeger_upper,
                  "sweep_exact": rep.cheeger_exact},
                 ok=rep.cheeger_upper is None or rep.gap / 2 <= rep.cheeger_upper + 1e-12)


def cmd_mixing(args, report):
    from .graphs import schreier_graph
    genset = build_SN(args.s, args.d)
    graph = schreier_graph(genset)
    steps, curve = walks.mixing_time_points(graph.matvec, genset.model, tol=args.tol)
    report.check("mixing-steps", "lazy walk total-variation mixing time", steps)
    monotone = all(curve[i + 1] <= curve[i] + 1e-12 for i in range(len(curve) - 1))
    report.check("tv-monotone", "lazy-walk distance to uniform never increases",
                 monotone, ok=monotone)
    report.check("tv-curve-tail", "last distances", curve[-3:])


def cmd_characters(args, report):
    from . import characters as ch
    n = args.n
    defect_rows = []
    for L in range(1, n + 1):
        defect_rows.append((L, ch.column_orthogonality_defect(n, L)))
    ok = all(d == 0 for _, d in defect_rows)
    report.check("column-orthogonality", "squared column sums equal the "
                 "centralizer order", {str(L): d for L, d in defect_rows}, ok=ok)
    if args.l is not None:
        viol = ch.roichman_violations(n, args.l)
        report.check("character-bound", "cycle-class character bound",
                     len(viol), bound=0, ok=not viol)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("partition,class,value\n")
            for L in range(1, n + 1):
                for parts, value in ch.character_column(n, L).items():
                    name = ".".join(map(str, parts))
                    fh.write(f"{name},cycle{L},{value}\n")
        report.check("table-csv", "character table export", args.out, ok=True)


def cmd_certify(args, report):
    from . import certify as ce
    nodes = ce.derive_paper_constants()
    derived = {}
    for name, node in nodes.items():
        derived[name] = [str(x) for x in node.interval()]
        report.check(f"constant.{name}", node.citation, derived[name],
                     ok=node.all_checks_pass())
    decay = ce.derive_decay_chain()
    for desc, ok in decay["checks"]:
        report.check(f"decay.{desc}", "exponent and split arithmetic", ok, ok=ok)
    report.check("decay.samples", "exponent factor grows with the side length",
                 decay["samples"])
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(ce.tree_to_json(nodes))
        with open(args.out) as fh:
            payload = fh.read()
        try:
            # the file must revalidate alone and hold every interval this run derived
            stored = {e["name"]: e["interval"] for e in json.loads(payload)["nodes"]}
            ok = ce.revalidate_tree(payload) and stored == derived
        except ValueError:
            ok = False
        report.check("tree-json", "derivation tree export", args.out, ok=ok)


def cmd_factor(args, report):
    rng = np.random.default_rng(args.seed)
    if args.what == "gem":
        worst = _longest_gem_word(args.s, args.m, args.count, rng)
        report.check("gem-words", "every element is a product of at most 17 "
                     "generalized elementary matrices",
                     {"count": args.count, "max_length": worst}, bound=17,
                     ok=worst <= 17)
    elif args.what == "butterfly":
        from .words import butterfly_factor
        for _ in range(args.count):
            g = Permutation.random(args.rows * args.cols, rng)
            butterfly_factor(g, args.rows, args.cols)
        report.check("butterfly", "grid permutations split into "
                     "row/column/row stages", args.count, ok=True)
    elif args.what == "blocks":
        worst = 0
        for _ in range(args.count):
            while True:
                g = Permutation.random(args.n, rng)
                if g.parity == 0:
                    break
            factors, _ = blocks_mod.block_factor(g, args.base_m)
            worst = max(worst, len(factors))
        bound = blocks_mod.factor_count_bound(args.n, args.base_m)
        report.check("block-words", "window factor count bound",
                     {"count": args.count, "max_factors": worst}, bound=bound,
                     ok=worst <= bound)
    elif args.what == "word47":
        from .words import conjugacy_word47, standard_cycle_length
        model = CubeGeometry(args.s, args.d)
        length, _ = standard_cycle_length(model.K, model.d)
        succ = 0
        for _ in range(args.trials):
            pts = rng.choice(model.N, size=length, replace=False)
            order = rng.permutation(length)
            c = Permutation.from_cycles(model.N, [[int(pts[i]) for i in order]])
            word = conjugacy_word47(model, c)
            if word is None:
                continue
            require(word.product() == c, "conjugation word does not reproduce the cycle")
            succ += 1
        report.check("word47-exact", "conjugation word reproduces the cycle "
                     "exactly on success", {"trials": args.trials, "successes": succ},
                     ok=True)
        report.check("word47-success-rate", "greedy face-moving succeeds with "
                     "high probability only at large sides",
                     succ / args.trials)


def cmd_verify(args, report):
    suites = SUITES if args.suite == "all" else args.suite.split(",")

    if "certify" in suites:
        _run_as("certify", ["certify"], args.seed, report)

    if "characters" in suites:
        from . import characters as ch
        bad = []
        for n in range(8, (args.n or 10) + 1):
            for L in range(6, n + 1):
                bad.extend(ch.roichman_violations(n, L))
        report.check("characters.bound", "no violations of the cycle-class "
                     "character bound", len(bad), bound=0, ok=not bad)

    if "gem" in suites:
        count = args.samples or 200
        # a quarter per (s, m) pair, rounded up so every pair factors some
        worst = max(_longest_gem_word(s, m, -(-count // 4),
                                      np.random.default_rng(args.seed + 13 * s + m))
                    for s in (1, 2) for m in (1, 2))
        report.check("gem.letters", "word length bound", worst, bound=17,
                     ok=worst <= 17)

    if "blocks" in suites:
        _run_as("blocks", ["factor", "blocks", "--count", str(args.trials or 25)],
                args.seed, report)

    if "walk" in suites:
        sweep_model = CubeGeometry(args.s or 1, args.d or 6)
        dist = walks.full_sweep(walks.ExactDistribution.point_mass(sweep_model, 0))
        report.check("walk.sweep-uniform", "a full axis sweep is exactly uniform",
                     str(dist.tv_to_uniform()), bound="0",
                     ok=dist.tv_to_uniform() == 0)
        # the block-averaging fractions live on the six-axis model
        model = CubeGeometry(args.s or 1, 6)
        h = args.h or 9
        start = [model.index((0, 0, 0, i % model.K, i // model.K, 0)) for i in range(h)]
        samples = args.samples or 2000
        b1 = walks.tuple_walk(model, np.array(start, dtype=np.int64),
                              seed=args.seed, samples=samples)
        bound = 1 - h * h / (2 * model.K ** 3)
        sigma = walks.binomial_sigma(bound, samples)
        report.check("walk.b1-fraction", "distinct-coordinate fraction after the "
                     "first averaging block",
                     {"empirical": b1, "analytic": bound,
                      "sigma": sigma},
                     bound=bound - 3 * sigma,
                     ok=b1 >= bound - 3 * sigma)

    if "words" in suites:
        rng = np.random.default_rng(args.seed)
        model = CubeGeometry(args.s or 1, args.d or 6)
        trials = args.trials or 3
        exact = [_route_is_exact(model, rng.permutation(model.lines_per_axis))
                 for _ in range(trials)]
        report.check("words.route-exact", "face routing is exact with the "
                     "stated letter count", trials, ok=all(exact))

    if "spectral" in suites:
        _run_as("spectral", ["spectral", "--s", str(args.s or 1), "--d", str(args.d or 2)],
                args.seed, report)


def _run_as(suite, argv, seed, report):
    """Run subcommand argv at seed into report, each record name prefixed by suite."""
    start = len(report.records)
    args = build_parser().parse_args(argv + ["--seed", str(seed)])
    try:
        args.func(args, report)
    finally:
        for record in report.records[start:]:
            record.name = f"{suite}.{record.name}"


def _longest_gem_word(s, m, count, rng):
    """Longest GEM word over count random EL3 elements.

    The elements are factored as one stack, element e on copies
    [e*m, (e+1)*m).  Every step of gem_factor acts copy by copy, so
    part_lengths reads each element's own word length, and the stacked word's
    GEM predicate, length bound and multiply-back, each under require, cover
    every element.
    """
    from .ring import random_el3, gem_factor
    return int(gem_factor(random_el3(s, m, rng, count=count)).part_lengths(count).max())


def _route_is_exact(model, sigma):
    """Whether grid_route moves face point f to face point sigma[f] in 4d-5 letters.

    Off-face points are unconstrained, so only the face's images are checked.
    """
    from .words import face_points, grid_route
    word = grid_route(model, sigma)
    images = word.images(face_points(model))
    line, coord = model.line_coords(images, 1)
    return (not coord.any() and np.array_equal(line, sigma)
            and len(word) == 4 * model.d - 5)


def _config(args):
    return {k: v for k, v in vars(args).items()
            if k not in ("func", "report") and v is not None}


def _positive_int(text):
    """argparse type for counts of one or more; a smaller value exits 2."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser():
    p = argparse.ArgumentParser(
        prog="altgen",
        description="expander generating sets for alternating groups: "
                    "construction and verification")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--report", help="also write the JSON report here")

    sp = sub.add_parser("construct", help="build the cube generating set")
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--d", type=int, default=6)
    sp.add_argument("--out", help="write gens.json here")
    common(sp)
    sp.set_defaults(func=cmd_construct)

    sp = sub.add_parser("construct-general", help="window-embedded set for any degree")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--base-m", type=int, required=True, dest="base_m")
    sp.add_argument("--sym", action="store_true", help="add one odd generator")
    common(sp)
    sp.set_defaults(func=cmd_construct_general)

    sp = sub.add_parser("schreier", help="action graph on the cube points")
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--d", type=int, default=6)
    sp.add_argument("--out", help="write the edge list here")
    common(sp)
    sp.set_defaults(func=cmd_schreier)

    sp = sub.add_parser("spectral", help="spectral gap of a graph")
    sp.add_argument("--s", type=int)
    sp.add_argument("--d", type=int, default=6)
    sp.add_argument("--edges", help="edge-list file instead of a constructed set")
    sp.add_argument("--method", default="auto",
                    choices=["auto", "dense", "power", "lanczos"])
    sp.add_argument("--tol", type=float, default=1e-12)
    common(sp)
    sp.set_defaults(func=cmd_spectral)

    sp = sub.add_parser("mixing", help="lazy-walk mixing time on the points")
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--d", type=int, default=2)
    sp.add_argument("--tol", type=float, default=1e-9)
    common(sp)
    sp.set_defaults(func=cmd_mixing)

    sp = sub.add_parser("characters", help="character tables and the cycle bound")
    sp.add_argument("--n", type=_positive_int, required=True)
    sp.add_argument("--l", type=int)
    sp.add_argument("--out", help="write the CSV table here")
    common(sp)
    sp.set_defaults(func=cmd_characters)

    sp = sub.add_parser("certify", help="derive and verify the constant chain")
    sp.add_argument("--out", help="write the derivation tree here")
    common(sp)
    sp.set_defaults(func=cmd_certify)

    sp = sub.add_parser("factor", help="exercise a factorization")
    sp.add_argument("what", choices=["gem", "butterfly", "blocks", "word47"])
    sp.add_argument("--s", type=int, default=1)
    sp.add_argument("--d", type=int, default=6)
    sp.add_argument("--m", type=int, default=2)
    sp.add_argument("--n", type=int, default=50)
    sp.add_argument("--base-m", type=int, default=10, dest="base_m")
    sp.add_argument("--rows", type=_positive_int, default=3)
    sp.add_argument("--cols", type=_positive_int, default=4)
    sp.add_argument("--count", type=_positive_int, default=50)
    sp.add_argument("--trials", type=_positive_int, default=5)
    common(sp)
    sp.set_defaults(func=cmd_factor)

    sp = sub.add_parser("verify", help="run one or more verification suites")
    sp.add_argument("--suite", default="certify",
                    help=f"comma list: {','.join(SUITES)}, or 'all'")
    sp.add_argument("--s", type=_positive_int)
    sp.add_argument("--d", type=_positive_int)
    sp.add_argument("--n", type=int)
    sp.add_argument("--h", type=_positive_int)
    sp.add_argument("--samples", type=_positive_int)
    sp.add_argument("--trials", type=_positive_int)
    common(sp)
    sp.set_defaults(func=cmd_verify)

    return p


def _check_args(parser, args):
    """Argument rules argparse cannot state; a breach exits 2 with usage."""
    if args.command == "spectral" and args.s is None and args.edges is None:
        parser.error("spectral needs --s or --edges")
    if args.command == "verify" and args.suite != "all":
        unknown = [name for name in args.suite.split(",") if name not in SUITES]
        if unknown:
            parser.error(f"unknown suite {', '.join(unknown)}; choose from "
                         f"{', '.join(SUITES)}, or 'all'")
    if args.command == "verify" and args.n is not None and args.n < 8:
        # the character suite checks n from 8 up to --n
        parser.error(f"verify --n must be at least 8, got {args.n}")
    if args.command == "verify" and args.n is not None and args.n > 14:
        # the character suite runs at desk scale, up to n = 14
        parser.error(f"verify --n must be at most 14, got {args.n}")
    if args.command == "characters" and args.l is not None and not 6 <= args.l <= args.n:
        # the cycle-class bound is stated for cycle lengths 6 to n
        parser.error(f"characters --l must lie in [6, --n = {args.n}], got {args.l}")
    # spectral --tol 0 runs Lanczos at its 1e-12 floor, but no distance to
    # uniform falls below 0
    if args.command == "spectral" and not args.tol >= 0:
        parser.error(f"spectral --tol must be at least 0, got {args.tol}")
    if args.command == "mixing" and not args.tol > 0:
        parser.error(f"mixing --tol must be above 0, got {args.tol}")


def main(argv=None):
    parser = build_parser()
    # argparse exits with code 2 for usage errors
    args = parser.parse_args(argv)
    _check_args(parser, args)
    report = Report(config=_config(args))
    try:
        args.func(args, report)
    except (ValueError, FileNotFoundError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        report.check("verification-error", "a guarantee checked by require failed",
                     str(exc), ok=False)
        print(f"check failed: {exc}", file=sys.stderr)
    return report.emit(args.report)


if __name__ == "__main__":
    sys.exit(main())
