"""Toy-size smoke test of the benchmark; not a timing gate.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric in BENCHMARK.json is emitted by the runs that
report it, for every workload kind, and that check (a) fails on a
deliberately corrupted gradient.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
from workloads import (AdjointWorkload, Checks,  # noqa: E402
                       MonteCarloWorkload)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TOYS = (
    AdjointWorkload("toy-adjoint", state=2, noise=2, width=4, batch=3,
                    steps=16),
    MonteCarloWorkload("toy-mc", paths=8, coarse_steps=4, fine_per_coarse=10),
)


def _names(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", TOYS, ids=lambda w: w.name)
@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
def test_every_metric_is_emitted(workload, trace, tmp_path):
    spans = tmp_path / "spans.npz" if trace else None
    result = bench.measure(workload, seed=3, seconds=0.05, trace=trace,
                           spans_path=spans)
    assert result.failed == 0, result.failures
    expected = _names("per_layer" if trace else "end_to_end")
    assert {k: u for k, (_, u) in result.metrics.items()} == expected
    assert all(np.isfinite(v) for v, _ in result.metrics.values())
    if trace:
        assert spans.is_file()


def test_corrupted_gradient_fails_check_a():
    workload = TOYS[0]
    problem = workload.build(seed=5)
    (grad_z0, grad_params), tree = workload.operation(problem, 0)

    clean = Checks()
    workload.verify(problem, 0, (grad_z0, grad_params), tree, clean)
    assert clean.failed == 0, clean.failures

    corrupted = grad_params.copy()
    corrupted[0] += 1e-9 * np.abs(grad_params).sum()
    checks = Checks()
    workload.verify(problem, 0, (grad_z0, corrupted), tree, checks)
    assert checks.failed == 1
    assert "oracle" in checks.failures[0]
