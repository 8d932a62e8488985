"""Workloads of the revsde benchmark: inputs, one operation, and checks.

Each workload builds its inputs from the workload seed, and each operation
runs on a fresh `BrownianInterval` whose seed is derived from the workload
seed and the operation index. Every operation therefore does identical work
on new noise, as a training step does, and the library sees only the
generated inputs.

The checks do not depend on the realized sample path, so a change that
legitimately alters the paths for a seed (a new RNG key, a new tree
topology) is not flagged. No reference checksums are stored.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import dataclass

import numpy as np

from revsde import BrownianInterval, MLPField, NeuralField, SolveConfig, solvers
from revsde.harness import cross_cosine_field

# Criterion 01's bound on the relative L1 gap between the reversible
# adjoint and the unrolled oracle.
GRADIENT_TOL = 1e-12
# The last coarse step coincides with an existing right-spine node, so it
# equals the sum of its fine steps only to rounding.
FINAL_STEP_TOL = 1e-12
# Operation indices at and above this one are set-up (warm-up) operations,
# so their noise never coincides with a timed operation's.
SETUP_OP = 1 << 30


def derived_seed(seed: int, *index: int) -> int:
    """A 64-bit seed mixed from the workload seed and an index path."""
    state = np.random.SeedSequence([seed, *index]).generate_state(1, np.uint64)
    return int(state[0])


def traced_peak(fn):
    """Run fn() under tracemalloc; return (result, peak MiB)."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak / 2**20


def all_finite(outputs) -> bool:
    return all(bool(np.all(np.isfinite(a))) for a in outputs)


def bitwise_equal(a, b) -> bool:
    return len(a) == len(b) and all(
        x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
        for x, y in zip(a, b))


def relative_l1(a, b) -> float:
    """sum |a - b| / max(sum |a|, sum |b|) over the stacked outputs."""
    num = sum(float(np.abs(x - y).sum()) for x, y in zip(a, b))
    den = max(sum(float(np.abs(x).sum()) for x in a),
              sum(float(np.abs(y).sum()) for y in b))
    return num / den


class Checks:
    """Counts operations attempted and failed operations or checks."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, ok: bool, message: str):
        if not ok:
            self.failures.append(message)

    @property
    def failed(self) -> int:
        return len(self.failures)


@dataclass
class Problem:
    field: object
    z0: np.ndarray
    cotangent: np.ndarray | None
    seed: int


class AdjointWorkload:
    """`revheun_adjoint_solve` of <1, z(1)> for an MLP neural SDE on [0, 1].

    The field is the gradient-error problem's: a tanh-headed drift and a
    sigmoid-headed diffusion, one hidden layer of `width` LipSwish units.
    """

    def __init__(self, name, *, state, noise, width, batch, steps):
        self.name = name
        self.state = state
        self.noise = noise
        self.width = width
        self.batch = batch
        self.steps = steps
        self.path_steps = batch * steps

    def build(self, seed: int) -> Problem:
        rng = np.random.default_rng(derived_seed(seed, 0))
        x, w = self.state, self.noise
        field = NeuralField(
            MLPField(x, [self.width], x, final_activation="tanh", rng=rng),
            MLPField(x, [self.width], x * w, final_activation="sigmoid",
                     rng=rng),
        )
        z0 = rng.standard_normal((self.batch, x))
        return Problem(field, z0, np.ones((self.batch, x)), seed)

    def _config(self, problem, op, noise_of):
        tree = BrownianInterval(1.0, derived_seed(problem.seed, 1, op),
                                dims=self.noise, batch=self.batch)
        config = SolveConfig("reversible_heun", 1.0 / self.steps, 1.0,
                             noise_of(tree))
        return tree, config

    def operation(self, problem, op, tracer=None):
        """One adjoint solve; returns ((grad_z0, grad_params), tree)."""
        field, noise_of = problem.field, (lambda tree: tree)
        if tracer is not None:
            field, noise_of = tracer.field(field), tracer.noise
        tree, config = self._config(problem, op, noise_of)
        grads = solvers.revheun_adjoint_solve(field, problem.z0, config,
                                              problem.cotangent)
        return grads, tree

    def verify(self, problem, op, outputs, tree, checks):
        """Check (a): the gradient of op `op` matches the unrolled oracle.

        Returns the relative L1 gap and the oracle's tracemalloc peak.
        """
        _, config = self._config(problem, op, lambda tree: tree)
        oracle, peak = traced_peak(lambda: solvers.unrolled_backprop(
            "reversible_heun", problem.field, problem.z0, config,
            problem.cotangent))
        gap = relative_l1(outputs, oracle)
        checks.expect(gap <= GRADIENT_TOL,
                      f"op {op}: adjoint vs oracle relative L1 {gap:.3e} "
                      f"> {GRADIENT_TOL:.0e}")
        return {"oracle_gap": gap, "oracle_peak_mib": peak}


class MonteCarloWorkload:
    """Forward-only Monte Carlo solve, structured like the convergence run.

    An ordinary-Heun reference at h / fine_per_coarse, then reversible Heun
    at h, both through one tree on `cross_cosine_field`.
    """

    def __init__(self, name, *, paths, coarse_steps, fine_per_coarse):
        self.name = name
        self.batch = paths
        self.coarse_steps = coarse_steps
        self.fine_per_coarse = fine_per_coarse
        self.path_steps = paths * coarse_steps * (1 + fine_per_coarse)

    def build(self, seed: int) -> Problem:
        rng = np.random.default_rng(derived_seed(seed, 0))
        field = cross_cosine_field()
        z0 = rng.standard_normal((self.batch, field.state_dim))
        return Problem(field, z0, None, seed)

    def operation(self, problem, op, tracer=None):
        """Fine then coarse solve; returns ((z_fine, z_coarse), tree)."""
        field = problem.field
        tree = BrownianInterval(1.0, derived_seed(problem.seed, 1, op),
                                dims=field.noise_dim, batch=self.batch)
        noise = tree
        if tracer is not None:
            field, noise = tracer.field(field), tracer.noise(tree)
        h = 1.0 / self.coarse_steps
        fine, _ = solvers.baseline_solve(
            "heun", field, problem.z0,
            SolveConfig("heun", h / self.fine_per_coarse, 1.0, noise))
        coarse, _ = solvers.revheun_solve(
            field, problem.z0, SolveConfig("reversible_heun", h, 1.0, noise))
        return (fine.z, coarse.z), tree

    def verify(self, problem, op, outputs, tree, checks):
        """Check (c): coarse increments telescope out of the fine ones.

        Queried through the public `query` of the tree that served op `op`.
        Every coarse step but the last must equal the left-to-right sum of
        its fine steps bitwise; the last only to FINAL_STEP_TOL.
        """
        n, m = self.coarse_steps, self.fine_per_coarse
        h, hf = 1.0 / n, 1.0 / (n * m)
        for k in range(n):
            coarse = tree.query(k * h, (k + 1) * h if k + 1 < n else tree.t1)
            total = None
            for j in range(m):
                i = k * m + j
                hi = (i + 1) * hf if i + 1 < n * m else tree.t1
                q = tree.query(i * hf, hi)
                total = q if total is None else total + q
            if k + 1 < n:
                ok = np.array_equal(total, coarse)
            else:
                ok = float(np.abs(total - coarse).max()) <= FINAL_STEP_TOL
            if not ok:
                checks.expect(False, f"op {op}: fine increments do not "
                                     f"telescope at coarse step {k}")
                break
        return {"oracle_gap": 0.0, "oracle_peak_mib": 0.0}


WORKLOADS = {w.name: w for w in (
    AdjointWorkload("adjoint-long", state=8, noise=4, width=8, batch=8,
                    steps=2**10),
    AdjointWorkload("adjoint-wide", state=16, noise=8, width=64, batch=512,
                    steps=64),
    MonteCarloWorkload("mc-forward", paths=4096, coarse_steps=64,
                       fine_per_coarse=10),
)}
