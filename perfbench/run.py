"""altgen benchmark: one closed-loop run of one workload.

    python3 perfbench/run.py --workload cube6 --seed 1 --seconds 16 --trace 0

Run from the root of a checkout.  Each pass (every operation of the workload
once, one after another) runs in a fresh worker process, so nothing one pass
caches carries into the next; passes repeat until --seconds have gone by,
and at least one runs.  With --trace 0 the last line of standard output is
the end-to-end result:

    run_s        median wall time of one pass
    setup_s      median, over SETUP_PROBES extra launches and every pass's
                 launch, of the time from process launch until the first
                 operation can start (interpreter, imports, inputs)
    peak_rss_mb  median over passes of the worker's peak resident memory,
                 read before the outputs are checked

With --trace 1 passes alternate between untraced and traced on the same
inputs, and the last line holds the per-layer metrics of the traced passes
(medians) and the tracing overhead, traced run_s minus untraced run_s.
Details of every run go to perfbench/results/.
"""

import argparse
import json
import os
import select
import signal
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("cube6", "words6", "exact")
SETUP_PROBES = 3
BLAS_THREADS = "1"
HARD_LIMIT_S = 170.0


class WorkerError(RuntimeError):
    pass


def _worker(workload, seed, pass_index, mode, deadline, trace_out=None):
    """Launch one worker; returns (seconds until READY, its JSON result or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--pass", str(pass_index), "--mode", mode]
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS,
               OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS,
               PYTHONHASHSEED="0")
    launched = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    lines, ready_at, buf = [], None, b""
    try:
        fd = proc.stdout.fileno()
        while True:
            left = deadline - time.perf_counter()
            if left <= 0:
                raise WorkerError(f"{mode} pass {pass_index} passed the time limit")
            if not select.select([fd], [], [], left)[0]:
                continue
            chunk = os.read(fd, 1 << 16)
            now = time.perf_counter()
            if not chunk:
                break
            buf += chunk
            while b"\n" in buf:
                line, buf = buf.split(b"\n", 1)
                line = line.decode()
                if line == "READY" and ready_at is None:
                    ready_at = now - launched
                else:
                    lines.append(line)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or ready_at is None:
        raise WorkerError(f"{mode} worker exited with {proc.returncode}")
    if mode == "setup":
        return ready_at, None
    if not lines:
        raise WorkerError(f"{mode} worker printed no result")
    return ready_at, json.loads(lines[-1])


def _machine():
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": version("numpy"), "scipy": version("scipy"),
            "blas_threads": int(BLAS_THREADS)}


def run(workload, seed, seconds, trace):
    deadline = time.perf_counter() + HARD_LIMIT_S
    RESULTS.mkdir(exist_ok=True)
    setups, passes, traced = [], [], []
    if not trace:
        for _ in range(SETUP_PROBES):
            setups.append(_worker(workload, seed, 0, "setup", deadline)[0])
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < seconds:
        ready, result = _worker(workload, seed, k, "run", deadline)
        setups.append(ready)
        passes.append(result)
        if trace:
            out = RESULTS / f"trace-{workload}-seed{seed}-pass{k}.json"
            traced.append(_worker(workload, seed, k, "trace", deadline, out)[1])
        k += 1

    everything = passes + traced
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "machine": _machine(), "setup_s": setups,
              "passes": passes, "traced_passes": traced}
    with open(RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    run_s = median(p["run_s"] for p in passes)
    if trace:
        metrics = {name: {"value": median(p["layers"][name] for p in traced),
                          "unit": _unit(name)} for name in traced[0]["layers"]}
        overhead = median(p["run_s"] for p in traced) - run_s
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = {
            "run_s": {"value": run_s, "unit": "s"},
            "setup_s": {"value": median(setups), "unit": "s"},
            "peak_rss_mb": {"value": median(p["peak_rss_mb"] for p in passes),
                            "unit": "MB"},
        }
    problems = [q for p in everything for q in p["problems"]]
    failures = sorted({f for p in everything for f in p["failures"]})

    print(f"{workload} seed {seed}: {len(passes)} pass(es) of "
          f"{passes[0]['attempted']} operations" +
          (f", {len(traced)} traced" if trace else ""))
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(f"  run_s samples {len(passes)}, setup_s samples {len(setups)}")
    for name, secs in passes[0]["op_seconds"].items():
        print(f"  op {name:20s} {secs:.3f} s")
    for f in failures:
        print(f"  failed operation: {f}")
    for q in problems:
        print(f"  CHECK FAILED: {q}")
    return {"correct": not problems,
            "attempted": sum(p["attempted"] for p in everything),
            "failed": sum(p["failed"] for p in everything),
            "metrics": metrics}


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    # a terminated run still kills and waits for its worker on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit("perfbench: terminated"))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except WorkerError as exc:
        sys.exit(f"perfbench: {exc}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
