"""Fail on any function in src/altgen/ whose body no real run enters.

Under one hook that records each function entry, installed with
`sys.settrace` and, for threads started later (such as the row-block pool in
graphs.py), with `threading.settrace`, this runs every demo in demos/, a
fixed matrix of CLI runs covering each subcommand, and one pass of each
benchmark workload (its operations and its output check, taken read-only
from perfbench/workloads.py).  It then prints, one per
line as `module.py:line qualified.name`, each function or method defined in
the package that never started, and a summary with the wall time on stderr.

It exits 1 when a never-entered function is missing from ALLOWED, when an
ALLOWED name did run (the entry is stale), or when a run fails.  The source
test `test_every_public_definition_has_a_caller` reads names statically, so
a method that shares its name with one that does run (such as
`is_identity`), an operator dunder, or a function only a dead one calls
escapes it; this trace sees all three.  Pytest does not collect this file:
`tests/test_source.py::test_every_package_function_runs` runs it in a
subprocess and requires exit 0.

    python tests/unrun.py          # from the repository root; about 15 s
"""

import contextlib
import inspect
import io
import runpy
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(REPO / "src"), str(REPO / "perfbench")]

import altgen  # noqa: E402
from altgen import cli  # noqa: E402

PACKAGE = Path(altgen.__file__).parent
WORKLOADS = ("cube6", "words6", "exact")

# never-entered functions kept, by module and qualified name, each with its
# reason
ALLOWED = {
    f"geometry.CubeGeometry.{name}": "perfbench/tracer.py wraps it by name"
    for name in ("coord_array", "line_id_array", "line_points")
}


def cli_matrix(tmp):
    """The fixed CLI runs: every subcommand, each export and spectral method."""
    return [
        ["construct", "--s", "1", "--d", "2", "--out", f"{tmp}/gens.json"],
        ["construct", "--s", "7"],
        ["construct-general", "--n", "100", "--base-m", "49"],
        ["construct-general", "--n", "60", "--base-m", "12", "--sym"],
        # below 8 points the order comes from a stabilizer chain
        ["construct-general", "--n", "7", "--base-m", "5"],
        ["schreier", "--s", "1", "--d", "2", "--out", f"{tmp}/edges.txt"],
        ["spectral", "--s", "1", "--d", "2", "--method", "dense"],
        ["spectral", "--s", "1", "--d", "2", "--method", "power"],
        ["spectral", "--s", "1", "--d", "3", "--method", "lanczos"],
        ["spectral", "--edges", f"{tmp}/edges.txt"],
        ["spectral", "--edges", f"{tmp}/edges.txt", "--method", "lanczos"],
        ["mixing", "--s", "1", "--d", "2"],
        ["characters", "--n", "8", "--l", "6", "--out", f"{tmp}/table.csv"],
        ["certify", "--out", f"{tmp}/tree.json"],
        ["factor", "gem", "--s", "1", "--m", "2", "--count", "10"],
        ["factor", "gem", "--s", "3", "--m", "2", "--count", "20"],
        ["factor", "butterfly", "--rows", "3", "--cols", "4", "--count", "5"],
        ["factor", "blocks", "--count", "25"],
        ["factor", "word47", "--s", "1", "--d", "6", "--trials", "3"],
        ["verify", "--suite", "all"],
        ["verify", "--suite", "walk,words", "--s", "1", "--d", "3", "--seed", "3"],
    ]


def run_everything():
    """Run the demos, the CLI matrix and one pass of each workload."""
    import workloads
    failures = []
    for demo in sorted((REPO / "demos").glob("*.py")):
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(demo), run_name="__main__")
    with tempfile.TemporaryDirectory() as tmp:
        for argv in cli_matrix(tmp):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                failures.append(f"altgen {' '.join(argv)} exited {code}")
    for name in WORKLOADS:
        work = workloads.make(name, 0, 0)
        for op, fn in work.ops:
            work.out[op] = fn(work.out)
        failures += [f"{name}: {problem}" for problem in work.check(work.out)]
    return failures


def package_functions():
    """{(file, first line, name): (module.py, line, qualified name)} of every
    named function and method compiled from the package's modules."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack += [c for c in code.co_consts if hasattr(c, "co_code")]
            # class bodies run at import, before the trace starts
            if code.co_flags & inspect.CO_NEWLOCALS and not code.co_name.startswith("<"):
                found[code.co_filename, code.co_firstlineno, code.co_name] = (
                    path.name, code.co_firstlineno, code.co_qualname)
    return found


def main():
    entered = set()

    def record(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno, code.co_name))
        # no line events: entries are all this needs, and they keep it fast

    start = time.perf_counter()
    threading.settrace(record)
    sys.settrace(record)
    try:
        failures = run_everything()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    seconds = time.perf_counter() - start
    defined = package_functions()
    never = set()
    for key in sorted(set(defined) - entered):
        module, line, qualname = defined[key]
        print(f"{module}:{line} {qualname}")
        never.add(f"{module.removesuffix('.py')}.{qualname}")
    print(f"{len(never)} of {len(defined)} package functions never ran "
          f"({seconds:.1f} s)", file=sys.stderr)
    problems = [f"run failed: {failure}" for failure in failures]
    problems += [f"never ran and not in ALLOWED: {name}" for name in sorted(never - set(ALLOWED))]
    problems += [f"in ALLOWED but ran: {name}" for name in sorted(set(ALLOWED) - never)]
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
