"""End-to-end benchmark of narytd: three workloads, correctness checks, layer spans.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is search-planted, train-eval-20k, cli-4ary, or `all` (each of the
three in its own process, one after another). Inputs are generated from
the seed. The run repeats rounds of one set-up sample and one timed pass
of the workload until the next round would end after S seconds.

With --trace 0 it reports the end-to-end metrics named in BENCHMARK.json.
With --trace 1 it alternates untraced passes with traced units (one set-up
plus one pass, under the span recorder of spans.py) and reports the
per-layer metrics named there; the tracing overhead is the mean traced
pass time minus the mean untraced one. Human-readable lines (environment,
input fingerprint, every metric with its unit) come first; the last line
of standard output is the JSON result. A record of the run, and the
spans of its last traced unit, go to .perfbench_out/ in the checkout.

The benchmark exits 2 without a result when the checkout has no
src/narytd to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

WORKLOADS = ("search-planted", "train-eval-20k", "cli-4ary")
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = NPROC  # at most one BLAS thread per usable core
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "narytd" / "__init__.py").is_file():
        print(f"perfbench: no narytd sources under {SRC}; nothing to measure", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # BLAS reads its thread count once, when numpy is first imported
    for name in BLAS_ENV:
        os.environ[name] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import bench  # imports numpy, so only after the thread count is set

    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), OUT_DIR)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; print all, then one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {workload} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
