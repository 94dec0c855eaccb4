"""Inputs and operations of the benchmark's workloads.

`make(workload, seed, pass_index)` draws the pass's inputs from the seed and
returns a `Workload`: the operations in the order they run and a check of
their outputs.  An operation is a call to a public altgen function or an
in-process `altgen.cli.main(argv)`; each reads earlier outputs from `out`.
"""

import contextlib
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from altgen import blocks, cli, embeddings, graphs, ring, spectral, words
from altgen.perms import Permutation

import checks

CUBE_S, CUBE_D = 1, 6                  # N = 7^6 = 117,649 points
CUBE_INVOLUTIONS = 108                 # pulled through each of the 6 axes
AUDIT_BATCH = 36                       # generator tables checked at a time
FACE_ROUTES = 2                        # words6: grid_route calls per pass
CYCLES = 4                             # words6: conjugacy_word47 calls per pass
CYCLE_SUPPORT_STREAM = 47              # words6: seed of the fixed cycle supports
BLOCK_PERMS = 8                        # words6: block_factor calls per pass
BLOCK_N, BLOCK_M = 1000, 49
GEM_ELEMENTS = 4                       # exact: gem_factor calls per pass
GEM_S, GEM_M = 1, 2401


class OperationFailed(Exception):
    pass


@dataclass
class Workload:
    ops: list                          # (name, fn(out) -> output stored as out[name])
    check: object                      # check(out) -> list of problems
    out: dict = field(default_factory=dict)


def make(name, seed, pass_index):
    rng = np.random.default_rng([seed, pass_index])
    return {"cube6": _cube6, "words6": _words6, "exact": _exact}[name](rng)


def _cli(argv):
    """altgen.cli.main in process; returns the parsed report or raises."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    if code != 0:
        raise OperationFailed(f"exit {code}: {stderr.getvalue().strip()}")
    return json.loads(stdout.getvalue())


def _computed(report, name):
    """The computed value of a report's record, or None when it is missing."""
    return next((r["computed"] for r in report["records"] if r["name"] == name), None)


# -- cube6: `altgen construct --s 1 --d 6`, then `altgen spectral ... lanczos` --------


def _cube6(rng):
    lanczos_seed = int(rng.integers(2**31))

    def spectral_gap(out):
        # the eigenvector spectral_gap hands to its Cheeger sweep, for the check
        sweep = spectral.cheeger_sweep

        def capture(graph, vec, *args, **kwargs):
            out["eigenvector"] = vec
            return sweep(graph, vec, *args, **kwargs)

        spectral.cheeger_sweep = capture
        try:
            return spectral.spectral_gap(out["graph"], method="lanczos", tol=1e-12,
                                         seed=lanczos_seed)
        finally:
            spectral.cheeger_sweep = sweep

    ops = [
        ("construct_set", lambda out: embeddings.build_SN(CUBE_S, CUBE_D)),
        ("all_even", lambda out: out["construct_set"].all_even()),
        ("spectral_set", lambda out: embeddings.build_SN(CUBE_S, CUBE_D)),
        ("graph", lambda out: graphs.schreier_graph(out["spectral_set"])),
        ("connected", lambda out: out["graph"].is_connected()),
        ("spectrum", spectral_gap),
    ]
    return Workload(ops, _check_cube6)


def _check_cube6(out):
    # T comes from the construct build, so a spectral build that differs
    # from it shows as a large eigenpair residual
    problems = []
    if "construct_set" not in out:
        return problems
    first = out["construct_set"]
    if len(first.el3_elements or ()) != CUBE_INVOLUTIONS:
        problems.append(f"{len(first.el3_elements or ())} involutions, "
                        f"not {CUBE_INVOLUTIONS}")
    if len(first) != CUBE_INVOLUTIONS * CUBE_D:
        problems.append(f"{len(first)} generators, not {CUBE_INVOLUTIONS * CUBE_D}")
    audit = checks.GeneratorAudit(first.model.N)
    for start in range(0, len(first), AUDIT_BATCH):
        idx = range(start, min(start + AUDIT_BATCH, len(first)))
        audit.add(np.array([first.materialize(i).table for i in idx]))
    problems += audit.problems
    if audit.orbits() != 1:
        problems.append(f"the generators have {audit.orbits()} orbits, not 1")
    for name in ("all_even", "connected"):
        if name in out and out[name] is not True:
            problems.append(f"{name} returned {out[name]}")
    if "spectrum" in out:
        rep = out["spectrum"]
        if "eigenvector" in out:
            problems += checks.check_eigenpair(audit.adjacency(), rep.second_eigenvalue,
                                               out["eigenvector"])
        else:
            problems.append("spectral_gap ran no Cheeger sweep on its eigenvector")
        problems += checks.check_gap(rep.gap, rep.cheeger_upper)
    return problems


# -- words6: face routes, 2875-cycles and window blocks -------------------------------


def _cycle_supports(model, length):
    """The fixed point sets the words6 cycles run on, the same for every seed.

    Whether the greedy face move succeeds depends on the support alone, so
    seed-drawn supports would make the share of None outcomes, and with it
    the pass time, a draw of the seed.
    """
    rng = np.random.default_rng(CYCLE_SUPPORT_STREAM)
    return [rng.choice(model.N, size=length, replace=False) for _ in range(CYCLES)]


def _words6(rng):
    model = embeddings.CubeModel(CUBE_S, CUBE_D)
    cube = checks.CubeIndex(model.K, model.d)
    face = model.K ** (model.d - 1)
    length, _ = words.standard_cycle_length(model.K, model.d)
    sigmas = [rng.permutation(face) for _ in range(FACE_ROUTES)]
    cycles = []
    for support in _cycle_supports(model, length):
        order = support[rng.permutation(length)].tolist()
        cycles.append(Permutation.from_cycles(model.N, [order]))
    cycle_tables = [c.table.copy() for c in cycles]
    perms = []
    for _ in range(BLOCK_PERMS):
        table = rng.permutation(BLOCK_N)
        if checks.parity(table):
            table[[0, 1]] = table[[1, 0]]
        perms.append(table)

    ops = []
    for i, sigma in enumerate(sigmas):
        ops.append((f"route{i}", lambda out, s=sigma: words.grid_route(model, s)))
    for i, c in enumerate(cycles):
        ops.append((f"cycle{i}", lambda out, c=c: words.conjugacy_word47(model, c)))
    for i, table in enumerate(perms):
        ops.append((f"blocks{i}", lambda out, t=table: blocks.block_factor(
            Permutation(t), BLOCK_M)))

    def check(out):
        problems = []
        for i, sigma in enumerate(sigmas):
            if f"route{i}" in out:
                problems += checks.check_face_route(
                    cube, out[f"route{i}"].to_records(), sigma)
        for i, table in enumerate(cycle_tables):
            word = out.get(f"cycle{i}")
            if word is not None:   # None: the greedy face move failed, as documented
                problems += checks.check_cycle_word(cube, word.to_records(), table)
        for i, table in enumerate(perms):
            if f"blocks{i}" in out:
                factors, windows = out[f"blocks{i}"]
                problems += checks.check_block_factors(
                    table, BLOCK_M, [f.table for f in factors], windows)
        return problems

    return Workload(ops, check)


# -- exact: Schreier-Sims, the verify suites, power iteration and GEM words ----------


def _el3_bits(el):
    """(m, 3s, 3s) 0/1 array of an EL3 element; bit c of row r is entry (r, c)."""
    s = el.s
    out = np.zeros((el.m, 3 * s, 3 * s), dtype=np.uint8)
    for i in range(3):
        for j in range(3):
            block = el.blocks[i][j].rows
            bits = (block[:, :, None] >> np.arange(s, dtype=np.uint32)) & 1
            out[:, i * s:(i + 1) * s, j * s:(j + 1) * s] = bits
    return out


def _exact(rng):
    elements = [ring.random_el3(GEM_S, GEM_M, rng) for _ in range(GEM_ELEMENTS)]
    targets = [_el3_bits(el) for el in elements]

    ops = [
        ("construct_general", lambda out: _cli(
            ["construct-general", "--n", "100", "--base-m", "49"])),
        ("verify", lambda out: _cli(["verify", "--suite", "all"])),
        ("power", lambda out: _cli(
            ["spectral", "--s", "1", "--d", "2", "--method", "power"])),
    ]
    for i, el in enumerate(elements):
        ops.append((f"gem{i}", lambda out, el=el: ring.gem_factor(el)))

    def check(out):
        problems = []
        for name in ("construct_general", "verify", "power"):
            if name in out:
                problems += [f"{name}: record {r['name']} is {r['verdict']}"
                             for r in out[name]["records"] if r["verdict"] == "fail"]
        if "construct_general" in out:
            order = _computed(out["construct_general"], "generated-order")
            if order != str(math.factorial(100) // 2):
                problems.append(f"construct-general order {order} is not 100!/2")
        if "power" in out:
            gap = _computed(out["power"], "gap")
            audit = checks.audit(np.array(
                [p.table for p in embeddings.build_SN(1, 2).permutations()]))
            ref = checks.dense_gap(audit.adjacency())
            problems += audit.problems
            if gap is None or not abs(gap - ref) <= 1e-6:
                problems.append(f"power-iteration gap {gap} differs from "
                                f"eigvalsh's {ref}")
        for i, target in enumerate(targets):
            if f"gem{i}" in out:
                problems += checks.check_gem_word(
                    [_el3_bits(letter) for letter in out[f"gem{i}"].letters], target)
        return problems

    return Workload(ops, check)
