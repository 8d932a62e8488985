"""Closed-loop measurement of one workload: one caller, one operation in flight.

`measure` runs set-up, the timed loop (in a traced run, untraced and traced
operations alternate), the peak-memory pass and the checks, and returns the
metrics as {name: (value, unit)} with the check counts and notes on the run.
"""

from __future__ import annotations

import contextlib
import gc
import os
import platform
import statistics
import subprocess
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

from tracing import Tracer, layer_metrics
from workloads import (SETUP_OP, Checks, all_finite, bitwise_equal,
                       traced_peak)

SETUP_REPS = 3
# A run times at least this many operations, so that op_s_tail (the
# highest percentile with ten samples beyond it) is at or above the median.
MIN_OPS = 21
# A traced run times at least this many untraced and as many traced ones.
MIN_TRACE_OPS = 3


@dataclass
class Result:
    metrics: dict
    attempted: int
    failed: int
    failures: list
    notes: dict


def tail(times):
    """(value, percentile) of the highest percentile with ten samples beyond.

    With n sorted samples that is sample n - 11, the (n - 11) / (n - 1)
    quantile; fewer than 11 samples have no such percentile.
    """
    n = len(times)
    if n < 11:
        raise ValueError(f"op_s_tail needs at least 11 samples, got {n}")
    k = n - 11
    return sorted(times)[k], 100.0 * k / (n - 1)


def _loop(workload, problem, seconds, min_ops, checks, tracer=None):
    """Run operations back to back until `seconds` and `min_ops` are met.

    An operation's time includes a full garbage collection after its tree
    is released, so each operation pays for its own reference cycles (tree
    nodes link to their parents) and starts from the same heap state.
    With a tracer, operations alternate untraced and traced (odd ones run
    under `tracer.installed()`) and the loop ends on a whole pair, so a
    drift of the host's speed cancels in the ratio of the two.
    Returns (wall seconds of each successful untraced operation, those of
    the traced ones, outputs of the first untraced one, the traced trees'
    stats()).
    """
    times, traced_times, stats, first = [], [], [], None
    op = 0
    deadline = perf_counter() + seconds
    while (op < min_ops or perf_counter() < deadline
           or (tracer is not None and op % 2)):
        traced = tracer is not None and op % 2 == 1
        checks.attempted += 1
        with tracer.installed() if traced else contextlib.nullcontext():
            if traced:
                tracer.op_id = op
            t0 = perf_counter()
            try:
                outputs, tree = workload.operation(
                    problem, op, tracer if traced else None)
                tree_stats = tree.stats()
                del tree
                gc.collect()
            except Exception as exc:  # a failed operation is counted
                checks.expect(False, f"op {op} raised {exc!r}")
                outputs = None
            elapsed = perf_counter() - t0
        if outputs is not None:
            checks.expect(all_finite(outputs), f"op {op}: non-finite output")
            if traced:
                traced_times.append(elapsed)
                stats.append(tree_stats)
            else:
                times.append(elapsed)
                if first is None:
                    first = (op, outputs)
        op += 1
    if first is None or (tracer is not None and not stats):
        raise RuntimeError(f"every operation of {workload.name} failed")
    return times, traced_times, first, stats


def measure(workload, seed: int, seconds: float, trace: bool,
            import_s: float = 0.0, spans_path: Path | None = None) -> Result:
    checks = Checks()
    setups = []
    for k in range(SETUP_REPS):
        t0 = perf_counter()
        problem = workload.build(seed)
        workload.operation(problem, SETUP_OP + k)
        setups.append(perf_counter() - t0)

    tracer = Tracer() if trace else None
    times, traced, first, stats = _loop(
        workload, problem, seconds, 2 * MIN_TRACE_OPS if trace else MIN_OPS,
        checks, tracer)

    # Check (b) and peak_mib: repeat the first operation under tracemalloc.
    op, outputs = first
    checks.attempted += 1
    (repeat, tree), peak_mib = traced_peak(
        lambda: workload.operation(problem, op))
    checks.expect(bitwise_equal(repeat, outputs),
                  f"op {op}: repeat with the same seed is not bitwise equal")
    checks.attempted += 1
    extra = workload.verify(problem, op, outputs, tree, checks)

    if trace:
        metrics = layer_metrics(tracer, stats, workload, problem.field)
        metrics["solvers.oracle_gap"] = (extra["oracle_gap"], "ratio")
        metrics["solvers.oracle_peak_mib"] = (extra["oracle_peak_mib"], "MiB")
        metrics["trace.overhead"] = (
            statistics.median(traced) / statistics.median(times), "ratio")
        if spans_path is not None:
            tracer.save(spans_path)
        notes = {"untraced_ops": len(times), "traced_ops": len(traced)}
    else:
        tail_s, tail_pct = tail(times)
        metrics = {
            "setup_s": (import_s + statistics.median(setups), "s"),
            "op_s_p50": (statistics.median(times), "s"),
            "op_s_tail": (tail_s, "s"),
            "path_steps_per_s": (workload.path_steps * len(times) / sum(times),
                                 "1/s"),
            "peak_mib": (peak_mib, "MiB"),
        }
        notes = {"ops": len(times), "tail_percentile": round(tail_pct, 1)}
    notes["import_s"] = round(import_s, 4)
    notes["setups_s"] = [round(t, 4) for t in setups]
    return Result(metrics, checks.attempted, checks.failed, checks.failures,
                  notes)


def _git_rev(root: Path) -> str:
    """The checked-out commit, or 'unknown' outside a git checkout.

    git does not search above `root`, so a checkout that is not a git
    repository reads as 'unknown' even inside another repository.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(root: Path) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: v for k, v in sorted(os.environ.items())
                    if k.endswith("_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_rev": _git_rev(root),
    }
