"""Benchmark of hgbench: CLI runs, bulk generation and partition scoring.

Run it from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

It imports hgbench from the checkout's `src`, and fails when there is none.
The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with `--trace 0`,
the per-layer metrics with `--trace 1`.  A traced run also writes its spans
to `.bench_traces/`.  BENCHMARK.json lists the workloads and metrics;
bench/meta.json records which end-to-end metric each layer metric should
move, the machine, and the baseline.

End-to-end metrics, measured with tracing off:
  wall_s       median wall seconds of one operation
  peak_rss_mb  peak resident memory of the process that runs the operations
  setup_s      median seconds from process start to the first operation,
               over several set-ups
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

import worker


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env.pop("HGBENCH_OUT_DIR", None)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(mode: str, args, work: str, env: dict) -> tuple[float, dict]:
    """Start a worker; returns its start time on the monotonic clock and its result."""
    cmd = [sys.executable, worker.WORKER, mode, args.workload, str(args.seed),
           str(args.seconds), work]
    start = time.monotonic()
    rc, _ = worker.spawn(cmd, os.path.join(work, "worker.log"), env)
    result_path = os.path.join(work, f"{mode}.json")
    if rc != 0 or not os.path.exists(result_path):
        with open(os.path.join(work, "worker.log"), errors="replace") as log:
            sys.stderr.write(log.read()[-4000:])
        raise SystemExit(f"bench: {mode} worker for {args.workload} exited {rc}")
    with open(result_path) as handle:
        result = json.load(handle)
    os.remove(result_path)
    return start, result


def measure(args, work: str, env: dict) -> dict:
    wl = worker.WORKLOADS[args.workload]
    if wl is worker.ScoreMany:
        # untimed preparation: the files that every set-up reads
        cmd = [sys.executable, "-m", "hgbench.cli", *wl.prep_argv(args.seed, work)]
        rc, _ = worker.spawn(cmd, os.path.join(work, "prep.log"), env)
        if rc != 0:
            raise SystemExit(f"bench: preparing {args.workload} failed: hgbench exited {rc}")
    if args.trace:
        _, result = run_worker("trace", args, work, env)
        metrics = {name: (value, unit_of(name)) for name, value in result["metrics"].items()}
    else:
        setups = []
        for _ in range(wl.probes):
            start, probe = run_worker("probe", args, work, env)
            setups.append(probe["ready"] - start)
        start, result = run_worker("run", args, work, env)
        setups.append(result["ready"] - start)
        print(f"bench: {args.workload}: operation walls {result['walls']}, "
              f"set-ups {setups}", file=sys.stderr)
        metrics = dict(wall_s=(statistics.median(result["walls"]), "s"),
                       peak_rss_mb=(result["peak_rss_mb"], "MiB"),
                       setup_s=(statistics.median(setups), "s"))
    for problem in result["problems"]:
        print(f"bench: {args.workload}: {problem}", file=sys.stderr)
    return dict(correct=not result["problems"] and result["failed"] == 0,
                attempted=result["attempted"], failed=result["failed"],
                metrics={name: dict(value=value, unit=unit) for name, (value, unit) in metrics.items()})


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MiB"
    if metric.endswith("_bytes"):
        return "B"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(worker.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hgbench", "__init__.py")):
        print("bench: src/hgbench not found; run from the root of an hgbench checkout",
              file=sys.stderr)
        return 2
    work = os.path.join(root, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        summary = measure(args, work, child_env(root))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
