"""The process that runs the program: set-up, then timed rounds of CLI commands.

Started by ``run.py`` with the BLAS and OpenMP thread counts fixed in its
environment.  It imports ``elsa`` and loads the workload's basis and meshes
once through the program's loaders; with ``--setup-only`` it reports the
monotonic clock at that point and stops.  Otherwise it calls ``elsa.cli.main`` in-process
for whole rounds of the workload's operations until ``--seconds`` have
passed, each operation writing into its own output directory.  With
``--trace 1`` rounds alternate untraced and traced, so the tracing overhead
is measured in the same process.

The last line of standard output is one JSON object: the set-up time stamp
with ``--setup-only``, otherwise the round times, exit codes, peak resident
memory and, when traced, the per-layer figures.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads


def _thread_count():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return None


def run_op(main, argv):
    """Run one CLI command; returns (exit code, seconds, error text)."""
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            rc = main(argv)
        error = ""
    except Exception:  # an operation that raises counts as failed, the run goes on
        rc = -1
        error = traceback.format_exc(limit=3)
    return rc, time.perf_counter() - start, error


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import elsa.cli

    workloads.load_once(args.workload, args.inputs)
    setup_done = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_done": setup_done}))
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    ops = workloads.operations(args.workload, args.inputs)
    rounds, traced_metrics = [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds or (
            tracer is not None and len(rounds) < 2):
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
            tracer.reset()
        record = {"traced": traced, "times": [], "rc": [], "errors": []}
        for k, op in enumerate(ops):
            out = Path(args.out) / f"r{len(rounds):03d}" / f"op{k}"
            op = [*op, "--output-dir", str(out)]
            if traced:
                rc, dt, err = run_op(lambda a: tracer.run("cli", elsa.cli.main, a), op)
            else:
                rc, dt, err = run_op(elsa.cli.main, op)
            record["times"].append(dt)
            record["rc"].append(rc)
            record["errors"].append(err)
        if traced:
            tracer.uninstall()
            traced_metrics.append(tracer.metrics())
        rounds.append(record)

    print(json.dumps({
        "rounds": rounds,
        "traced_metrics": traced_metrics,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "os_threads": _thread_count(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
