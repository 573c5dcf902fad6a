"""Benchmark of the ``elsa`` command-line program.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The run

1. writes the workload's inputs for seed ``N`` (``inputs.py``, its own
   process, never timed);
2. with ``--trace 0``, starts ``SETUP_REPEATS`` set-up-only processes and
   takes ``setup_s`` as the median time from process start until ``elsa``
   is imported and the inputs are loaded through the program's loaders;
3. starts the worker (``worker.py``), which repeats whole rounds of the
   workload's CLI commands for ``S`` seconds, with tracing in every other
   round when ``--trace 1``;
4. checks every operation's outputs (``checks.py``) and that each round
   wrote the same results as the first.

Every child runs with one BLAS and one OpenMP thread.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Outputs go to ``.bench_out/`` in the
checkout; inputs and outputs are removed at the end, traces are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
#: fixed thread counts of every process that runs program code
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: slack on top of ``--seconds`` for the last round, input generation and
#: start-up before a child process is given up
TIMEOUT_SLACK = 120

UNITS = {"_calls": "count", "_s": "s", "_pairs": "count", "_work": "count",
         "iterations": "count", "objective_evals": "count", "evals_per_iteration": "evals/iter",
         "io_bytes": "B", "overhead_pct": "%", "_mb": "MB"}


def unit_of(name):
    return next(u for suffix, u in UNITS.items() if name.endswith(suffix))


def child_env():
    env = dict(os.environ, **THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(script, args, timeout):
    """Run a benchmark script; returns (monotonic start, its last JSON line)."""
    cmd = [sys.executable, str(HERE / script), *map(str, args)]
    start = time.monotonic()
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{script} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return start, (json.loads(lines[-1]) if lines else None)


def check_outputs(workload, d, out, rounds):
    """Count failed operations; True in ``same`` when every round repeats the first."""
    import workloads

    truth = workloads.load_truth(d)
    name = workloads.RESULT_FILE[workload]
    failed, same, measured, messages = 0, True, [], []
    for r, record in enumerate(rounds):
        for k, rc in enumerate(record["rc"]):
            op_out = out / f"r{r:03d}" / f"op{k}"
            if rc != 0:
                failed += 1
                messages.append(f"round {r} op {k}: exit code {rc} {record['errors'][k]}")
                continue
            try:
                fails, values = workloads.check(workload, d, k, op_out, truth)
            except (OSError, ValueError) as exc:
                fails, values = [f"unreadable output: {exc}"], None
            if fails:
                failed += 1
                messages += [f"round {r} op {k}: {f}" for f in fails]
            if values is None:
                continue
            measured.append(values)
            first = out / "r000" / f"op{k}" / name
            if r and first.is_file() and first.read_bytes() != (op_out / name).read_bytes():
                same = False
                messages.append(f"round {r} op {k}: {name} differs from round 0")
    return failed, same, measured, messages


def main(argv=None):
    parser = argparse.ArgumentParser(description="elsa benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "elsa" / "cli.py").is_file():
        raise SystemExit(f"no elsa sources under {SRC}: run from a source checkout")
    sys.path[:0] = [str(HERE), str(SRC)]
    import workloads

    if args.workload not in workloads.NAMES:
        raise SystemExit(f"unknown workload {args.workload!r}; one of {workloads.NAMES}")

    base = ROOT / ".bench_out"
    work = base / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    d, out = work / "inputs", work / "outputs"
    timeout = args.seconds + TIMEOUT_SLACK
    try:
        run_child("inputs.py", ["--workload", args.workload, "--seed", args.seed, "--out", d],
                  timeout)
        worker_args = ["--workload", args.workload, "--inputs", d]
        setup = []
        if not args.trace:
            for _ in range(SETUP_REPEATS):
                start, rec = run_child("worker.py", [*worker_args, "--out", out, "--setup-only"],
                                       timeout)
                setup.append(rec["setup_done"] - start)
        _, result = run_child("worker.py", [*worker_args, "--out", out, "--seconds",
                                            args.seconds, "--trace", args.trace], timeout)
        rounds = result["rounds"]
        failed, same, measured, messages = check_outputs(args.workload, d, out, rounds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [sum(r["times"]) for r in rounds if not r["traced"]]
    print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} rounds of "
          f"{len(rounds[0]['rc'])} operations; threads {result['threads']}, "
          f"{result['os_threads']} OS threads in the worker")
    print("round seconds: " + " ".join(
        f"{sum(r['times']):.3f}{'*' if r['traced'] else ''}" for r in rounds))
    for message in messages:
        print("FAILED " + message)
    if measured:
        keys = sorted(measured[0])
        print("checked values: " + ", ".join(
            f"{k} {min(m[k] for m in measured):.4g}..{max(m[k] for m in measured):.4g}"
            for k in keys))

    if args.trace:
        traced = result["traced_metrics"]
        metrics = {k: statistics.median(m[k] for m in traced) for k in traced[0]}
        untraced = statistics.median(plain)
        traced_s = statistics.median(sum(r["times"]) for r in rounds if r["traced"])
        metrics["trace.untraced_solve_s"] = untraced
        metrics["trace.traced_solve_s"] = traced_s
        metrics["trace.overhead_pct"] = 100.0 * (traced_s / untraced - 1.0)
        trace_dir = base / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        with open(trace_dir / f"{args.workload}-seed{args.seed}.json", "w") as fh:
            json.dump({"metrics": metrics, "per_round": traced}, fh, indent=1)
        for k, v in metrics.items():
            if k.endswith("_s") and not k.startswith("trace."):
                print(f"  {k:32s} {v:9.4f} s  {100.0 * v / traced_s:5.1f} % of traced solve")
    else:
        metrics = {
            "solve_s": statistics.median(plain),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": result["peak_rss_mb"],
        }
    print(json.dumps({
        "correct": same,
        "attempted": sum(len(r["rc"]) for r in rounds),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
