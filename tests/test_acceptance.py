"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Everything is seeded; reruns are deterministic on a platform.
"""

import math

import numpy as np

from revsde.brownian import BrownianInterval, VirtualBrownianTree, bridge_sample
from revsde.fields import MLPField, NeuralField, clip_weights, lipswish, lipswish_grad
from revsde.harness import (
    ExperimentConfig,
    build_gradient_test_problem,
    check_fit_toy,
    fit_toy_sde,
    relative_l1,
    run_brownian_bench,
    run_convergence,
    run_gradient_error,
)
from revsde.prng import new_seed
from revsde.solvers import (
    CotangentState,
    SolveConfig,
    baseline_solve,
    revheun_solve,
    revheun_step_backward,
    stability_probe,
)


def _report(num, name, ok, detail):
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def test_criterion_01_gradient_exactness():
    cfg = ExperimentConfig(
        seed=0, methods=["reversible_heun"],
        step_sizes=[2.0 ** 0, 2.0 ** -2, 2.0 ** -4, 2.0 ** -6, 2.0 ** -8])
    rows = run_gradient_error(cfg)
    worst = max(r["rel_l1_error"] for r in rows)
    _report(1, "gradient-exactness", worst <= 1e-12,
            f"max rel L1 error {worst:.3e} over dt 2^0..2^-8, bound 1e-12")


def test_criterion_02_baseline_adjoint_trend():
    cfg = ExperimentConfig(
        seed=0, methods=["midpoint", "heun"],
        step_sizes=[2.0 ** 0, 2.0 ** -2, 2.0 ** -4, 2.0 ** -6])
    rows = run_gradient_error(cfg)
    ok = True
    details = []
    for method in ("midpoint", "heun"):
        errs = [r["rel_l1_error"] for r in rows if r["method"] == method]
        details.append(f"{method} " + "->".join(f"{e:.1e}" for e in errs))
        for a, b in zip(errs, errs[1:]):
            ok &= (b < a) and (a / b >= 2.0)
    _report(2, "baseline-adjoint-trend", ok, "; ".join(details)
            + "; monotone with ratio >= 2 per 4x refinement")


def test_criterion_03_strong_convergence_multiplicative():
    cfg = ExperimentConfig(seed=3, paths=20_000, cases=["multiplicative"],
                           step_sizes=[2.0 ** -k for k in range(3, 8)])
    _, slopes = run_convergence(cfg)
    slope = slopes[0]["slope"]
    _report(3, "strong-order-multiplicative", 0.4 <= slope <= 0.7,
            f"slope {slope:.3f} in [0.4, 0.7], 2e4 coupled paths")


def test_criterion_04_strong_convergence_additive():
    cfg = ExperimentConfig(seed=3, paths=10_000, cases=["additive"],
                           step_sizes=[2.0 ** -k for k in range(3, 8)],
                           weak_paths=1000, weak_step_sizes=[0.25, 0.125])
    _, slopes = run_convergence(cfg)
    slope = next(s["slope"] for s in slopes if s["metric"] == "strong")
    _report(4, "strong-order-additive", 0.8 <= slope <= 1.2,
            f"slope {slope:.3f} in [0.8, 1.2], 1e4 coupled paths, ref h/10")


def test_criterion_05_weak_convergence_additive():
    cfg = ExperimentConfig(seed=42, paths=1000, cases=["additive"],
                           step_sizes=[0.125, 0.0625],
                           weak_paths=500_000,
                           weak_step_sizes=[0.25, 0.125, 0.0625])
    _, slopes = run_convergence(cfg)
    by = {s["metric"]: s["slope"] for s in slopes}
    ok = (1.6 <= by["weak_mean"] <= 2.4) and (1.6 <= by["weak_second"] <= 2.4)
    _report(5, "weak-order-additive", ok,
            f"E[Y] slope {by['weak_mean']:.3f}, E[Y^2] slope "
            f"{by['weak_second']:.3f}, bands [1.6, 2.4], 5e5 paths")


def test_criterion_06_reversibility_round_trip():
    rng = np.random.default_rng(5)
    field = NeuralField(MLPField(4, [8], 4, rng=rng),
                        MLPField(4, [8], 8, rng=rng))
    field.clip()
    n = 1 << 10
    dt = 1.0 / n
    tree = BrownianInterval(1.0, 17, dims=2, batch=3)
    cfg = SolveConfig("reversible_heun", dt, 1.0, tree)
    z0 = rng.standard_normal((3, 4))
    term, _ = revheun_solve(field, z0, cfg)
    ts = cfg.grid()
    state = term
    cot = CotangentState(np.zeros((3, 4)), np.zeros((3, 4)),
                         np.zeros((3, 4)), np.zeros((3, 4, 2)),
                         np.zeros(field.param_count))
    for i in reversed(range(n)):
        state, cot = revheun_step_backward(state, cot, ts[i], dt,
                                           tree.query(ts[i], ts[i + 1]), field)
    scale = 1.0 + float(np.abs(z0).max())
    err = max(float(np.abs(state.z - z0).max()),
              float(np.abs(state.zhat - z0).max())) / scale
    _report(6, "reversibility-round-trip", err <= 1e-12,
            f"2^10 steps forward+back, rel err {err:.3e}, bound 1e-12")


def test_criterion_07_evaluation_economy():
    field, z0 = build_gradient_test_problem(0)
    counts = {}
    for method, n in (("reversible_heun", 16), ("reversible_heun", 32),
                      ("midpoint", 16), ("midpoint", 32)):
        tree = BrownianInterval(1.0, 11, dims=4, batch=8)
        cfg = SolveConfig(method, 1.0 / n, 1.0, tree)
        field.reset_counters()
        if method == "reversible_heun":
            revheun_solve(field, z0, cfg)
        else:
            baseline_solve(method, field, z0, cfg)
        counts[(method, n)] = (field.drift_evals, field.diffusion_evals)
    # Per-step cost from the 16 -> 32 step increase: the init evaluation
    # cancels in the difference.
    rev_delta = tuple(b - a for a, b in zip(counts[("reversible_heun", 16)],
                                            counts[("reversible_heun", 32)]))
    mid_delta = tuple(b - a for a, b in zip(counts[("midpoint", 16)],
                                            counts[("midpoint", 32)]))
    ok = (rev_delta == (16, 16) and mid_delta == (32, 32)
          and counts[("reversible_heun", 32)] == (33, 33)
          and counts[("midpoint", 32)] == (64, 64))
    _report(7, "evaluation-economy", ok,
            f"reversible {counts[('reversible_heun', 32)]} evals for N=32 "
            f"(init + N), midpoint {counts[('midpoint', 32)]} (2N)")


def test_criterion_08_brownian_interval_correctness():
    # Additivity: spanning queries reproduce the ordered sum of their
    # previously materialized parts bitwise.
    additive_ok = True
    for seed in range(20):
        tree = BrownianInterval(1.0, seed, dims=4, batch=8)
        a = tree.query(0.2, 0.55)
        b = tree.query(0.55, 0.9)
        additive_ok &= np.array_equal(a + b, tree.query(0.2, 0.9))

    # Determinism across cache capacities 1, 128, 1e4.
    def run(capacity):
        tree = BrownianInterval(1.0, 5, dims=2, batch=4,
                                cache_capacity=capacity)
        pts = np.sort(np.random.default_rng(0).uniform(0.01, 0.99, 40))
        out = [tree.query(pts[i], pts[i + 1]) for i in range(39)]
        out += [tree.query(pts[i], pts[i + 1]) for i in range(39)]
        return np.stack(out)

    base = run(10_000)
    determinism_ok = (np.array_equal(run(1), base)
                      and np.array_equal(run(128), base))

    # Distributional moments of disjoint increments, 1e4 paths.
    cols = {0: [], 1: [], 2: []}
    for seed in range(100):
        tree = BrownianInterval(1.0, seed, batch=100)
        cols[0].append(tree.query(0.0, 0.3)[:, 0])
        cols[1].append(tree.query(0.3, 0.7)[:, 0])
        cols[2].append(tree.query(0.7, 1.0)[:, 0])
    x = np.stack([np.concatenate(cols[i]) for i in range(3)])
    var_ok = all(abs(x[i].var() - v) / v < 0.05
                 for i, v in enumerate([0.3, 0.4, 0.3]))
    corr = np.corrcoef(x)
    corr_ok = all(abs(corr[i, j]) < 0.03
                  for i in range(3) for j in range(i + 1, 3))

    # Bridge conditional moments at 1e5 samples (20k draws x 5 channels).
    w = np.full(5, 1.3)
    draws = np.stack([bridge_sample(0.0, 2.0, 1.0, w, new_seed(k))
                      for k in range(20_000)])
    mean_ok = abs(draws.mean() - 0.65) / 0.65 < 0.01
    bridge_var_ok = abs(draws.var() - 0.5) / 0.5 < 0.01

    ok = (additive_ok and determinism_ok and var_ok and corr_ok
          and mean_ok and bridge_var_ok)
    _report(8, "brownian-interval-correctness", ok,
            f"additivity bitwise {additive_ok}, eviction determinism "
            f"{determinism_ok}, moments-5% {var_ok and corr_ok}, "
            f"bridge-1% {mean_ok and bridge_var_ok}")


def test_criterion_09_brownian_speed():
    cfg = ExperimentConfig(seed=1, batch=2560, subintervals=[100],
                           patterns=["doubly_sequential"], repeats=32)
    rows = run_brownian_bench(cfg)
    by = {r["structure"]: r for r in rows}
    speedup = (by["virtual_brownian_tree"]["min_time_s"]
               / by["brownian_interval"]["min_time_s"])
    det = all(r["deterministic"] for r in rows)
    _report(9, "brownian-speed", speedup >= 1.5 and det,
            f"doubly-sequential 100 subintervals, batch 2560: interval tree "
            f"{speedup:.1f}x faster (bound 1.5x), deterministic {det}")


def test_criterion_10_stability_region():
    bounded_pts = [0.5j, -0.5j, 0.99j, -0.99j]
    unbounded_pts = [-0.5 + 0j, -0.1 + 0.5j]
    ok = True
    for lam in bounded_pts:
        ok &= stability_probe(lam, 100_000).bounded
    for lam in unbounded_pts:
        ok &= not stability_probe(lam, 1000).bounded
    _report(10, "stability-region", ok,
            "bounded at +/-0.5i, +/-0.99i over 1e5 steps; unbounded at "
            "-0.5 and -0.1+0.5i within 1e3 steps")


def test_criterion_11_clipping_and_lipswish():
    rng = np.random.default_rng(7)
    norm_ok = True
    pairs = 0
    while pairs < 1000:
        fan_in = int(rng.integers(2, 20))
        fan_out = int(rng.integers(1, 20))
        net = MLPField(fan_in - 1, [], fan_out, rng=rng)
        net.weights[0] = rng.standard_normal((fan_out, fan_in)) * 2.0
        clip_weights(net)
        for _ in range(5):
            x = rng.standard_normal(fan_in)
            y = net.weights[0] @ x
            norm_ok &= np.abs(y).max() <= np.abs(x).max() + 1e-12
            pairs += 1
    grid = np.linspace(-10.0, 10.0, 100_000)
    grad_max = float(np.abs(lipswish_grad(grid)).max())
    value_min = float(lipswish(grid).min())
    ok = norm_ok and grad_max <= 1.0 and value_min >= -0.2532
    _report(11, "clipping-and-lipswish", ok,
            f"{pairs} post-clip sup-norm checks pass {norm_ok}; grid "
            f"max|rho'| = {grad_max:.6f} <= 1; min rho = {value_min:.5f}")


def test_criterion_12_smoke_fit():
    cfg = ExperimentConfig(seed=0, batch=256, iters=500, lr=0.02)
    rows = fit_toy_sde(cfg, grad_check_every=100)
    first, last = rows[0]["loss"], rows[-1]["loss"]
    gaps = [r["oracle_rel_l1_gap"] for r in rows if r["oracle_rel_l1_gap"] != ""]
    ok = (last <= first / 5.0) and gaps and all(g <= 1e-12 for g in gaps)
    ok = ok and not check_fit_toy(rows)
    _report(12, "smoke-fit", ok,
            f"loss {first:.4g} -> {last:.4g} ({first / last:.0f}x) in 500 "
            f"iters; {len(gaps)} oracle spot-checks, worst gap "
            f"{max(gaps):.2e} <= 1e-12")
