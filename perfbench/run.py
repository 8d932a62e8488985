"""Benchmark revsde from outside the package, one workload per process.

    python3 perfbench/run.py --workload adjoint-long --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Prints every metric by name with its unit, a `notes:` and an `env:` JSON
line, then, as the last line, one JSON object with the keys correct,
attempted, failed and metrics. --trace 0
reports the end-to-end metrics, --trace 1 the per-layer metrics from a
traced run (spans are written to .bench_out/ at the checkout root). Exits
nonzero if an operation or a check fails. `--workload all` runs every
workload in its own process, one after another.

BLAS and OpenMP are pinned to one thread before numpy is imported. The
package is imported from this checkout's src/ and nowhere else.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("adjoint-long", "adjoint-wide", "mc-forward")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def run_all(args) -> int:
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd).returncode)
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if args.workload == "all":
        return run_all(args)
    src = ROOT / "src"
    if not (src / "revsde" / "__init__.py").is_file():
        print(f"error: no revsde package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    t0 = time.perf_counter()
    import bench  # imports numpy, scipy and revsde
    import_s = time.perf_counter() - t0
    from workloads import WORKLOADS

    spans_path = None
    if args.trace:
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        spans_path = out / f"spans-{args.workload}-seed{args.seed}.npz"
    result = bench.measure(WORKLOADS[args.workload], args.seed, args.seconds,
                           bool(args.trace), import_s, spans_path)

    attempted, failed = result.attempted, result.failed
    print(f"workload {args.workload}  seed {args.seed}  "
          f"{'traced' if args.trace else 'untraced'}  closed loop, 1 caller")
    print("notes: " + json.dumps(result.notes))
    for name, (value, unit) in result.metrics.items():
        print(f"  {name:30s} {value:.6g} {unit}")
    print(f"  {'error_rate':30s} {failed / attempted:.6g} ratio "
          f"({failed} failed / {attempted} attempted)")
    for message in result.failures:
        print(f"  FAILED: {message}")
    if spans_path is not None:
        print(f"  spans: {spans_path}")
    print("env: " + json.dumps(bench.environment(ROOT)))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
