"""Experiment harness: desk-scale reproductions with CSV output.

Five experiments, each a pure function of its config (benchmark wall-clock
columns excepted):

  gradient-error   optimise-then-discretise vs discretise-then-optimise
                   gradients per (method, step size) on a fixed small
                   neural test problem.
  convergence      coupled coarse/fine strong and weak error estimators
                   for the reversible Heun method, with log-log slope fits.
  brownian-bench   access-pattern timings of the interval tree against the
                   virtual Brownian tree, minimum over repeats.
  stability        boundedness classification of the linear test equation
                   over a sweep of step-scaled rates.
  fit-toy          fits a small neural SDE to the exact (closed-form)
                   marginal moments of a drifted Ornstein-Uhlenbeck process
                   through the reversible adjoint, with oracle spot-checks.

Every experiment returns dict rows; CSV files take the first row's keys
as header and write floats at full round-trip precision. The CLI exposes
one subcommand per experiment, offering only the settings its experiment
reads; values in a `key = value` config file override command-line flags,
which override defaults.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import math
import sys
import time
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .brownian import BrownianInterval, VirtualBrownianTree
from .fields import AnalyticField, MLPField, NeuralField
from .solvers import (
    METHODS,
    SolveConfig,
    baseline_solve,
    continuous_adjoint_solve,
    revheun_adjoint_solve,
    revheun_backward,
    revheun_solve,
    stability_probe,
    unrolled_backprop,
)

PATTERNS = ("sequential", "doubly_sequential", "random")


@dataclass
class ExperimentConfig:
    seed: int = 0
    batch: int = 256
    paths: int = 10_000
    step_sizes: list = dataclass_field(
        default_factory=lambda: [1.0, 0.25, 0.0625, 0.015625])
    methods: list = dataclass_field(
        default_factory=lambda: ["midpoint", "heun", "reversible_heun"])
    cases: list = dataclass_field(default_factory=lambda: list(CASES))
    subintervals: list = dataclass_field(default_factory=lambda: [10, 100, 1000])
    patterns: list = dataclass_field(default_factory=lambda: list(PATTERNS))
    repeats: int = 32
    cache_capacity: int = 128
    vbt_eps: float = 2.0 ** -16
    dims: int = 1
    iters: int = 500
    lr: float = 0.02
    weak_paths: int = 500_000
    weak_step_sizes: list = dataclass_field(
        default_factory=lambda: [0.25, 0.125, 0.0625])
    out: str | None = None

    def __post_init__(self):
        for name in ("step_sizes", "methods", "cases", "subintervals",
                     "patterns", "weak_step_sizes"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be non-empty")
        for name in ("iters", "repeats", "batch", "paths", "weak_paths",
                     "dims", "cache_capacity"):
            if getattr(self, name) < 1:
                raise ValueError(
                    f"{name} must be >= 1, got {getattr(self, name)}")
        if min(self.subintervals) < 1:
            raise ValueError(
                f"subintervals must all be >= 1, got {self.subintervals}")
        for name in ("step_sizes", "weak_step_sizes"):
            bad = [h for h in getattr(self, name) if not 0.0 < h < math.inf]
            if bad:
                raise ValueError(f"{name} must lie in 0 < h < inf, got {bad}")
        for name, choices in (("methods", METHODS), ("cases", CASES),
                              ("patterns", PATTERNS)):
            bad = [v for v in getattr(self, name) if v not in choices]
            if bad:
                raise ValueError(
                    f"{name} has unknown entries {bad}; pick from {list(choices)}")
        if not 0.0 < self.vbt_eps < 1.0:  # the bench's horizon is 1
            raise ValueError(
                f"vbt_eps must lie in 0 < eps < 1, got {self.vbt_eps}")
        if not 0.0 <= self.lr < math.inf:
            raise ValueError(
                f"lr must be non-negative and finite, got {self.lr}")


def _tree_seed(config_seed, run_index):
    # Distinct deterministic entropy per (config seed, run).
    return (config_seed * 1_000_003 + run_index) & (2 ** 63 - 1)


def write_csv(path, rows):
    """Dict rows under the first row's keys; floats are written as `repr`."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


# ----------------------------------------------------------------------
# gradient-error
# ----------------------------------------------------------------------

def build_gradient_test_problem(seed):
    """Small neural SDE: tanh-headed drift, sigmoid-headed diffusion."""
    x, w, batch, width = 8, 4, 8, 8  # state, noise, batch, hidden width
    rng = np.random.default_rng(seed)
    field = NeuralField(
        MLPField(x, [width], x, final_activation="tanh", rng=rng),
        MLPField(x, [width], x * w, final_activation="sigmoid", rng=rng),
    )
    z0 = rng.standard_normal((batch, x))
    return field, z0


def relative_l1(grad_a, params_a, grad_b, params_b):
    """sum |a - b| / max(sum |a|, sum |b|, 1e-300) over stacked gradients."""
    num = np.abs(grad_a - grad_b).sum() + np.abs(params_a - params_b).sum()
    den = max(np.abs(grad_a).sum() + np.abs(params_a).sum(),
              np.abs(grad_b).sum() + np.abs(params_b).sum(), 1e-300)
    return float(num / den)


def run_gradient_error(config: ExperimentConfig):
    """Rows of (method, step_size, rel_l1_error) on the fixed test problem."""
    field, z0 = build_gradient_test_problem(config.seed)
    cot = np.ones(z0.shape)
    rows = []
    for run, (method, dt) in enumerate(itertools.product(config.methods,
                                                         config.step_sizes)):
        tree = BrownianInterval(1.0, _tree_seed(config.seed, run),
                                dims=field.noise_dim, batch=z0.shape[0])
        cfg = SolveConfig(method, dt, 1.0, tree)
        if method == "reversible_heun":
            g_od, p_od = revheun_adjoint_solve(field, z0, cfg, cot)
        else:
            g_od, p_od = continuous_adjoint_solve(method, field, z0, cfg, cot)
        g_do, p_do = unrolled_backprop(method, field, z0, cfg, cot)
        rows.append({"method": method, "step_size": dt,
                     "rel_l1_error": relative_l1(g_od, p_od, g_do, p_do)})
    return rows


# ----------------------------------------------------------------------
# convergence
# ----------------------------------------------------------------------

def anharmonic_field():
    """dy = sin(y) dt + dW: additive noise, scalar state."""
    return AnalyticField(
        1, 1,
        drift=lambda t, z: np.sin(z),
        diffusion=lambda t, z: np.ones((z.shape[0], 1, 1)),
        drift_vjp_z=lambda t, z, c: np.cos(z) * c,
        diffusion_vjp_z=lambda t, z, c: np.zeros_like(z),
    )


def cross_cosine_field():
    """Two channels with swapped cosine diffusion.

    The two diffusion vector fields do not commute, so strong order drops
    to one half; a single scalar channel would be commutative and converge
    at order one instead.
    """
    def diffusion(t, z):
        out = np.zeros((z.shape[0], 2, 2))
        out[:, 0, 0] = np.cos(z[:, 1])
        out[:, 1, 1] = np.cos(z[:, 0])
        return out

    def diffusion_vjp_z(t, z, c):
        return np.stack([-c[:, 1, 1] * np.sin(z[:, 0]),
                         -c[:, 0, 0] * np.sin(z[:, 1])], axis=1)

    return AnalyticField(
        2, 2,
        drift=lambda t, z: np.sin(z),
        diffusion=diffusion,
        drift_vjp_z=lambda t, z, c: np.cos(z) * c,
        diffusion_vjp_z=diffusion_vjp_z,
    )


FINE_PER_COARSE = 10  # fine reference steps per coarse step

# Each convergence case: its field, with a scalar or 2-d state.
CASES = {"additive": anharmonic_field, "multiplicative": cross_cosine_field}


def _check_coupling(tree, fine_grid, coarse_grid):
    """Coarse increments must telescope out of the fine queries.

    The grids are the two solves' own; FINE_PER_COARSE fine steps make up
    each coarse step. The fine grid was queried first, so every coarse
    query decomposes into its fine leaves and matches their ordered sum
    bitwise -- except the final step, whose interval coincides with an
    existing right-spine node and is only equal to rounding (within 1e-12).
    """
    n_coarse = len(coarse_grid) - 1
    for k in range(n_coarse):
        coarse = tree.query(coarse_grid[k], coarse_grid[k + 1])
        fine = fine_grid[k * FINE_PER_COARSE:(k + 1) * FINE_PER_COARSE + 1]
        parts = [tree.query(lo, hi) for lo, hi in zip(fine, fine[1:])]
        total = sum(parts[1:], parts[0])
        if k + 1 < n_coarse:
            if not np.array_equal(total, coarse):
                raise RuntimeError(
                    f"fine increments do not telescope at coarse step {k}")
        elif np.abs(total - coarse).max() > 1e-12:
            raise RuntimeError("final coarse step inconsistent beyond rounding")


def _convergence_case(case, h, paths, seed):
    field = CASES[case]()
    z0 = np.ones((paths, field.state_dim))
    tree = BrownianInterval(1.0, seed, dims=field.noise_dim, batch=paths)
    fine_cfg = SolveConfig("heun", h / FINE_PER_COARSE, 1.0, tree)
    coarse_cfg = SolveConfig("reversible_heun", h, 1.0, tree)
    # Fine reference first (ordinary Heun at h/10), coarse second: the
    # coarse queries then decompose exactly into the fine-grid nodes.
    fine, _ = baseline_solve("heun", field, z0, fine_cfg)
    coarse, _ = revheun_solve(field, z0, coarse_cfg)
    _check_coupling(tree, fine_cfg.grid(), coarse_cfg.grid())
    yc, yf = coarse.z, fine.z
    strong = math.sqrt(float(np.mean(np.sum((yc - yf) ** 2, axis=1))))
    weak_mean = float(np.abs(np.mean(yc - yf, axis=0)).max())
    weak_second = float(np.abs(np.mean(yc ** 2 - yf ** 2, axis=0)).max())
    return strong, weak_mean, weak_second


def fit_slope(hs, errors):
    """OLS slope of log2(error) on log2(h), with the residual sum."""
    lx = np.log2(np.asarray(hs, dtype=float))
    ly = np.log2(np.asarray(errors, dtype=float))
    coeffs, residuals, *_ = np.polyfit(lx, ly, 1, full=True)
    resid = float(residuals[0]) if len(residuals) else 0.0
    return float(coeffs[0]), resid


def run_convergence(config: ExperimentConfig):
    """Per-(case, h) error estimators plus fitted slopes.

    Rows carry the strong error (root mean square terminal gap to the h/10
    reference) and the coupled weak errors of the first and second
    moments. Strong slopes are fitted on config.step_sizes at config.paths
    for every case; the weak slopes are fitted for the additive case on a
    separate sweep over config.weak_step_sizes at config.weak_paths, where
    the first-moment signal clears the coupled Monte Carlo noise floor
    (at desk-scale path counts it does not for very small steps).
    Returns (rows, slopes); slopes carry OLS fits with residual sums.
    Raises ValueError before any solve if a sweep that runs has fewer than
    two distinct step sizes, since a slope needs two points.
    """
    # (sweep, its step sizes' setting, paths, tree-seed base, fitted metrics)
    sweeps = [("strong", "step_sizes", config.paths, 7000, ("strong",))]
    if "additive" in config.cases:
        sweeps.append(("weak", "weak_step_sizes", config.weak_paths, 9000,
                       ("weak_mean", "weak_second")))
    for sweep, name, *_ in sweeps:
        sizes = getattr(config, name)
        if len(set(sizes)) < 2:
            raise ValueError(f"the {sweep} sweep needs at least two "
                             f"distinct step sizes to fit a slope, got "
                             f"{name} = {sizes}")
    if config.paths < 1000:
        print("warning: fewer than 1000 paths; estimators will be noisy",
              file=sys.stderr)
    rows, slopes = [], []
    for case in config.cases:
        for sweep, name, paths, seed_base, metrics in sweeps:
            if sweep == "weak" and case != "additive":
                continue
            hs = sorted(getattr(config, name), reverse=True)
            for h in hs:
                s, em, ev = _convergence_case(
                    case, h, paths,
                    _tree_seed(config.seed, seed_base + len(rows)))
                rows.append({"case": case, "sweep": sweep, "h": h,
                             "paths": paths, "strong_err": s,
                             "weak_mean_err": em, "weak_second_err": ev})
            for metric in metrics:
                slope, resid = fit_slope(
                    hs, [r[f"{metric}_err"] for r in rows[-len(hs):]])
                slopes.append({"case": case, "metric": metric, "slope": slope,
                               "residual": resid})
    return rows, slopes


# ----------------------------------------------------------------------
# brownian-bench
# ----------------------------------------------------------------------

def _bench_order(pattern, n, seed):
    forward = list(range(n))
    if pattern == "sequential":
        return forward
    if pattern == "doubly_sequential":
        return forward + forward[::-1]
    rng = np.random.default_rng(seed)  # "random"
    order = np.arange(n)
    rng.shuffle(order)
    return order.tolist()


def run_brownian_bench(config: ExperimentConfig):
    """Minimum-of-repeats timings for both Brownian stores.

    Each repeat rebuilds the structure (construction, and keying the
    interval tree on the partition grid, excluded from timing), replays the
    same query order, and records the wall time of the query loop alone. A
    checksum over all returned values verifies repeats are bitwise
    deterministic.
    """
    rows = []
    for n in config.subintervals:
        def grid_time(k):
            return k / n if k < n else 1.0

        bounds = [(grid_time(k), grid_time(k + 1)) for k in range(n)]
        for pattern in config.patterns:
            order = _bench_order(pattern, n, config.seed)
            for structure in ("brownian_interval", "virtual_brownian_tree"):
                times, checksums, stats = [], [], None
                for _ in range(config.repeats):
                    if structure == "brownian_interval":
                        store = BrownianInterval(
                            1.0, _tree_seed(config.seed, n), dims=config.dims,
                            batch=config.batch,
                            cache_capacity=config.cache_capacity)
                        store.key_on_grid(n, grid_time)
                        store.reset_stats()
                    else:
                        store = VirtualBrownianTree(
                            1.0, _tree_seed(config.seed, n), dims=config.dims,
                            batch=config.batch, tol=config.vbt_eps)
                    checksum = 0.0
                    start = time.perf_counter()
                    for k in order:
                        checksum += float(store.query(*bounds[k]).sum())
                    times.append(time.perf_counter() - start)
                    checksums.append(checksum)
                    if structure == "brownian_interval":
                        stats = store.stats()
                row = {"structure": structure, "pattern": pattern,
                       "subintervals": n, "batch": config.batch,
                       "repeats": config.repeats,
                       "min_time_s": min(times),
                       "deterministic": len(set(checksums)) == 1,
                       "cache_hits": stats.cache_hits if stats else "",
                       "cache_misses": stats.cache_misses if stats else "",
                       "mean_traverse_edges": (stats.mean_traverse_edges
                                               if stats else "")}
                rows.append(row)
    return rows


def _speedups(rows):
    """{(pattern, n): VBT time / interval time} where both stores ran."""
    times = {(r["structure"], r["pattern"], r["subintervals"]):
             r["min_time_s"] for r in rows}
    return {(pattern, n): times["virtual_brownian_tree", pattern, n] / t
            for (structure, pattern, n), t in times.items()
            if structure == "brownian_interval"
            and ("virtual_brownian_tree", pattern, n) in times}


# ----------------------------------------------------------------------
# stability
# ----------------------------------------------------------------------

STABILITY_POINTS = (
    # (re, im, steps, expected bounded): imaginary segment interior vs
    # real/off-axis points. |lam h| = 1 is excluded: the closed form has a
    # repeated root there and grows linearly.
    [(0.0, 0.0, 1000, True)]
    + [(0.0, b, 100_000, True) for b in (0.25, -0.25, 0.5, -0.5, 0.75, -0.75,
                                         0.99, -0.99)]
    + [(-0.5, 0.0, 1000, False), (-0.1, 0.0, 100_000, False),
       (-0.1, 0.5, 1000, False), (-0.05, 0.9, 1000, False)]
)


def run_stability(config: ExperimentConfig):
    """Boundedness classification of the step map on y' = lam y."""
    rows = []
    for re, im, steps, expected in STABILITY_POINTS:
        res = stability_probe(complex(re, im), steps)
        rows.append({"re_lambda_h": re, "im_lambda_h": im, "n_steps": steps,
                     "max_abs_z": res.max_abs_z,
                     "max_abs_zhat": res.max_abs_zhat,
                     "bounded": res.bounded, "expected_bounded": expected})
    return rows


# ----------------------------------------------------------------------
# fit-toy
# ----------------------------------------------------------------------

OU_RHO, OU_KAPPA, OU_CHI = 0.02, 0.1, 0.4
TOY_HORIZON = 8.0
TOY_DT = 0.25
TOY_CHECKPOINTS = 8


def ou_moments():
    """Exact first/second moments of the drifted OU process.

    dY = (rho t - kappa Y) dt + chi dW from Y0 = 0, at the toy problem's
    checkpoint times: E Y_t = rho (t/kappa - (1 - e^{-kappa t})/kappa^2)
    and E Y_t^2 = chi^2 (1 - e^{-2 kappa t})/(2 kappa) + (E Y_t)^2.
    """
    t = TOY_HORIZON / TOY_CHECKPOINTS * np.arange(1, TOY_CHECKPOINTS + 1)
    decay = np.exp(-OU_KAPPA * t)
    mean = OU_RHO * (t / OU_KAPPA - (1.0 - decay) / OU_KAPPA ** 2)
    var = OU_CHI ** 2 * (1.0 - decay ** 2) / (2.0 * OU_KAPPA)
    return mean, var + mean ** 2


def _toy_model(seed):
    rng = np.random.default_rng(seed)
    return NeuralField(
        MLPField(1, [8], 1, final_activation="identity", rng=rng),
        MLPField(1, [8], 1, final_activation="sigmoid", rng=rng),
    )


def _toy_gradients(field, cfg, means, seconds):
    """Moment loss, its parameter gradient and an oracle, for one config.

    One forward solve saves the checkpoint states alone; the loss's
    cotangents at the interior checkpoints enter the reversible backward
    pass from the terminal tuple. The third result, when called, runs the
    unrolled oracle on the same cotangents.
    """
    steps_per = round(TOY_HORIZON / TOY_CHECKPOINTS / TOY_DT)
    checkpoints = [(k + 1) * steps_per for k in range(TOY_CHECKPOINTS)]
    batch = cfg.noise.batch
    z0 = np.zeros((batch, 1))
    terminal, saved = revheun_solve(field, z0, cfg, save_at=checkpoints)
    loss, cots = 0.0, []
    for state, m, v in zip(saved, means, seconds):
        dm = float(state.z.mean() - m)
        dv = float(np.mean(state.z ** 2) - v)
        loss += dm * dm + dv * dv
        cots.append(2.0 * dm / batch + 4.0 * dv * state.z / batch)
    interior = dict(zip(checkpoints[:-1], cots[:-1]))
    _, gp = revheun_backward(field, terminal, cfg, cots[-1], interior)
    return loss, gp, lambda: unrolled_backprop(
        "reversible_heun", field, z0, cfg, cots[-1], interior)[1]


def fit_toy_sde(config: ExperimentConfig, grad_check_every=100):
    """Fit the toy SDE to the exact OU moments; returns learning-curve rows.

    One fixed noise realization (one Brownian tree keyed on the grid, whose
    queries are bitwise stable) serves every iteration, so the fit is a
    deterministic sample-average problem and a zero learning rate yields a
    bitwise-flat loss curve. Adam updates with weight clipping after every
    step. Every `grad_check_every` iterations the adjoint gradient is
    checked against the unrolled oracle and the relative L1 gap recorded.
    """
    means, seconds = ou_moments()
    field = _toy_model(config.seed)
    field.clip()
    tree = BrownianInterval(TOY_HORIZON, _tree_seed(config.seed, 50_000),
                            dims=1, batch=config.batch)
    cfg = SolveConfig("reversible_heun", TOY_DT, TOY_HORIZON, tree)
    tree.key_on_grid(cfg.n_steps, cfg.time)
    params = field.get_params()
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    rows = []
    for it in range(config.iters):
        loss, grad, oracle = _toy_gradients(field, cfg, means, seconds)
        if not math.isfinite(loss):
            raise RuntimeError(f"non-finite loss at iteration {it}")
        gap = ""
        if grad_check_every and it % grad_check_every == 0:
            gap = relative_l1(0.0, grad, 0.0, oracle())  # parameters only
        m = beta1 * m + (1.0 - beta1) * grad
        v = beta2 * v + (1.0 - beta2) * grad * grad
        mhat = m / (1.0 - beta1 ** (it + 1))
        vhat = v / (1.0 - beta2 ** (it + 1))
        params = params - config.lr * mhat / (np.sqrt(vhat) + eps)
        field.set_params(params)
        field.clip()
        params = field.get_params()
        rows.append({"iteration": it, "loss": loss, "oracle_rel_l1_gap": gap})
    return rows


# ----------------------------------------------------------------------
# acceptance checks for --check
# ----------------------------------------------------------------------

def check_gradient_error(rows):
    failures = []
    by_method = {}
    for r in rows:
        by_method.setdefault(r["method"], []).append(r)
    for method, rs in by_method.items():
        rs.sort(key=lambda r: -r["step_size"])
        errs = [r["rel_l1_error"] for r in rs]
        if method == "reversible_heun":
            for r in rs:
                if r["rel_l1_error"] > 1e-12:
                    failures.append(
                        f"reversible_heun error {r['rel_l1_error']:.3e} at "
                        f"dt={r['step_size']} exceeds 1e-12")
        else:
            for a, b in zip(errs, errs[1:]):
                if b >= a:
                    failures.append(f"{method} errors not decreasing")
            for a, b in zip(errs, errs[1:]):
                if a / b < 2.0:
                    failures.append(
                        f"{method} error ratio {a / b:.2f} below 2 per "
                        f"step refinement")
    return failures


def check_convergence(slopes):
    bands = {("additive", "strong"): (0.8, 1.2),
             ("additive", "weak_mean"): (1.6, 2.4),
             ("additive", "weak_second"): (1.6, 2.4),
             ("multiplicative", "strong"): (0.4, 0.7)}
    failures = []
    for s in slopes:
        band = bands.get((s["case"], s["metric"]))
        if band and not (band[0] <= s["slope"] <= band[1]):
            failures.append(
                f"{s['case']}/{s['metric']} slope {s['slope']:.3f} outside "
                f"[{band[0]}, {band[1]}]")
    return failures


def check_brownian_bench(rows):
    failures = [f"{r['structure']} nondeterministic on "
                f"{r['pattern']}/{r['subintervals']}"
                for r in rows if not r["deterministic"]]
    speedup = _speedups(rows).get(("doubly_sequential", 100))
    if speedup is not None and speedup < 1.5:
        failures.append(f"doubly-sequential speedup {speedup:.2f} below 1.5")
    return failures


def check_stability(rows):
    return [f"lambda*h = {r['re_lambda_h']}+{r['im_lambda_h']}j classified "
            f"bounded={r['bounded']}, expected {r['expected_bounded']}"
            for r in rows if r["bounded"] != r["expected_bounded"]]


def check_fit_toy(rows):
    failures = []
    first, last = rows[0]["loss"], rows[-1]["loss"]
    if last > 0.2 * first:
        failures.append(f"final loss {last:.4g} above 20% of initial {first:.4g}")
    for r in rows:
        gap = r["oracle_rel_l1_gap"]
        if gap != "" and gap > 1e-12:
            failures.append(
                f"gradient gap {gap:.3e} at iteration {r['iteration']}")
    return failures


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def _parse_floats(text):
    return [float(v) for v in text.split(",") if v]


def _parse_ints(text):
    return [int(v) for v in text.split(",") if v]


def _parse_names(text):
    return [v.strip() for v in text.split(",") if v.strip()]


def load_config_file(path):
    """Line-oriented `key = value` pairs; '#' starts a comment."""
    values = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {line!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            values[key.replace("-", "_")] = val
    return values


# Every config key: its command-line flag (None: config file only), the
# parser of its text value (shared by the flag and the config file), and
# the flag's help.
_KEYS = {
    "seed": ("--seed", int, None),
    "out": ("--out", str, None),
    "batch": ("--batch", int, None),
    "paths": ("--paths", int, None),
    "step_sizes": ("--steps", _parse_floats, "comma-separated step sizes"),
    "weak_step_sizes": (None, _parse_floats, None),
    "weak_paths": ("--weak-paths", int, None),
    "methods": ("--methods", _parse_names, None),
    "cases": ("--cases", _parse_names, None),
    "subintervals": ("--subintervals", _parse_ints, None),
    "patterns": ("--patterns", _parse_names, None),
    "repeats": ("--repeats", int, None),
    "dims": ("--dims", int, None),
    "cache_capacity": ("--cache-capacity", int, None),
    "vbt_eps": ("--vbt-eps", float, None),
    "iters": ("--iters", int, None),
    "lr": ("--lr", float, None),
}

# Subcommand -> (help, the config keys its experiment reads, the defaults
# it sets in place of ExperimentConfig's). Each parser offers exactly
# these flags plus --out, --config and --check, and a config file may set
# only these keys and `out`. The list defaults are copied for each run.
_COMMANDS = {
    "gradient-error": ("adjoint-vs-oracle gradient gap",
                       ("seed", "step_sizes", "methods"),
                       {}),
    "convergence": ("strong/weak order estimation",
                    ("seed", "step_sizes", "paths", "cases", "weak_paths",
                     "weak_step_sizes"),
                    {"step_sizes": [2.0 ** -k for k in range(3, 8)]}),
    "brownian-bench": ("noise-store speed benchmark",
                       ("seed", "batch", "subintervals", "patterns",
                        "repeats", "dims", "cache_capacity", "vbt_eps"),
                       {}),
    "stability": ("linear stability sweep", (), {}),
    "fit-toy": ("neural SDE moment-matching fit",
                ("seed", "batch", "iters", "lr"), {}),
}


def build_experiment_config(args):
    """Merge the subcommand's defaults < flags < config file into a config.

    A config-file key the subcommand does not read raises ValueError.
    """
    _, keys, defaults = _COMMANDS[args.command]
    keys = ("out",) + keys
    values = {key: list(val) for key, val in defaults.items()}
    for key in keys:
        val = getattr(args, key, None)
        if val is not None:
            values[key] = val
    if getattr(args, "config", None):
        for key, raw in load_config_file(args.config).items():
            if key not in _KEYS:
                raise ValueError(f"unknown config key {key!r}")
            if key not in keys:
                raise ValueError(
                    f"config key {key!r} is not read by {args.command}")
            values[key] = _KEYS[key][1](raw)
    return ExperimentConfig(**values)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="revsde",
        description="Reversible-solver SDE experiments (CSV output)")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, keys, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for key in ("out",) + keys:
            flag, parse, help_flag = _KEYS[key]
            if flag is not None:
                p.add_argument(flag, dest=key, type=parse, default=None,
                               help=help_flag)
        p.add_argument("--config", type=str, default=None,
                       help="key=value file; overrides flags")
        p.add_argument("--check", action="store_true",
                       help="exit nonzero if the acceptance band fails")

    args = parser.parse_args(argv)
    cfg = build_experiment_config(args)
    command = args.command
    out = cfg.out or f"{command.replace('-', '_')}.csv"
    failures = []

    if command == "gradient-error":
        rows = run_gradient_error(cfg)
        if args.check:
            failures = check_gradient_error(rows)
    elif command == "convergence":
        rows, slopes = run_convergence(cfg)
        write_csv(out.rsplit(".", 1)[0] + "_slopes.csv", slopes)
        for s in slopes:
            print(f"{s['case']:15s} {s['metric']:12s} slope {s['slope']:+.3f} "
                  f"(residual {s['residual']:.3g})")
        if args.check:
            failures = check_convergence(slopes)
    elif command == "brownian-bench":
        rows = run_brownian_bench(cfg)
        for r in rows:
            print(f"{r['structure']:22s} {r['pattern']:18s} "
                  f"n={r['subintervals']:<5d} min {r['min_time_s']:.4g}s")
        for (pattern, n), speedup in sorted(_speedups(rows).items()):
            print(f"speedup {pattern} n={n}: {speedup:.2f}x")
        if args.check:
            failures = check_brownian_bench(rows)
    elif command == "stability":
        rows = run_stability(cfg)
        if args.check:
            failures = check_stability(rows)
    elif command == "fit-toy":
        rows = fit_toy_sde(cfg)
        print(f"loss: first {rows[0]['loss']:.5g} last {rows[-1]['loss']:.5g}")
        if args.check:
            failures = check_fit_toy(rows)

    write_csv(out, rows)
    print(f"wrote {out}")
    if failures:
        for f in failures:
            print(f"CHECK FAILED: {f}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
