"""One pass of a workload in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --pass K --mode MODE

Imports altgen from the checkout's `src`, draws the pass's inputs from the
seed and prints `READY` (the launcher times set-up up to that line).  Mode
`setup` stops there.  Modes `run` and `trace` then run every operation once,
one after another, check the outputs and print one JSON line with the pass's
wall time, peak resident memory, counts and (traced) per-layer metrics.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _import_altgen():
    src = ROOT / "src"
    if not (src / "altgen" / "__init__.py").is_file():
        sys.exit(f"no altgen sources under {src}")
    sys.path.insert(0, str(src))
    import altgen
    if Path(altgen.__file__).resolve().parent != src / "altgen":
        sys.exit(f"imported altgen from {altgen.__file__}, not from {src}")
    # spectral_gap imports this on first use; set-up pays for it, not a pass
    import scipy.sparse.linalg  # noqa: F401


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass", type=int, dest="pass_index", required=True)
    ap.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    ap.add_argument("--trace-out")
    args = ap.parse_args()

    _import_altgen()
    import workloads
    import tracer as tracing

    work = workloads.make(args.workload, args.seed, args.pass_index)
    print("READY", flush=True)
    if args.mode == "setup":
        return

    tracer = tracing.Tracer() if args.mode == "trace" else None
    if tracer:
        tracer.install()
    failures = []
    op_seconds = {}
    start = time.perf_counter()
    for name, fn in work.ops:
        t0 = time.perf_counter()
        try:
            work.out[name] = fn(work.out)
        except Exception as exc:  # a failed operation is counted, not fatal
            failures.append(f"{name}: {type(exc).__name__}: {exc}")
        op_seconds[name] = time.perf_counter() - t0
    run_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()

    checked = time.perf_counter()
    problems = work.check(work.out)
    check_s = time.perf_counter() - checked
    result = {
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(work.ops),
        "failed": len(failures),
        "failures": failures,
        "problems": problems,
        "op_seconds": op_seconds,
        "check_s": check_s,
    }
    if tracer:
        del work  # the tables still alive after this are held by the program
        result["layers"] = tracing.layer_metrics(tracer)
        if args.trace_out:
            tracer.write(args.trace_out)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    main()
