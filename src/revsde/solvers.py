"""Time stepping and gradient machinery for Stratonovich SDEs.

The reversible Heun method advances a 5-tuple (t, z, zhat, mu, sigma) with
a single drift and a single diffusion evaluation per step:

    zhat' = 2 z - zhat + mu dt + sigma dW
    mu', sigma' = field(t + dt, zhat')
    z' = z + (mu + mu') dt / 2 + (sigma + sigma') dW / 2

The update is algebraically invertible, so the backward pass needs no
stored trajectory. Each backward step linearizes the field at the stored
(t', zhat'), checks that the values reproduce the tuple's (mu', sigma'),
pulls the cotangents back through the step map, and reconstructs the
previous tuple in closed form with one drift and one diffusion
evaluation. Iterating that from the terminal state gives gradients that
match exact reverse-mode differentiation of the forward recurrence to
floating-point reconstruction error, with O(1) storage.

Also here: midpoint / Heun / Euler-Maruyama baseline steps, the continuous
(backward-SDE) adjoint for the baselines, the O(N)-memory unrolled
backpropagation used as the gradient oracle, and a linear stability probe.
Each scheme's step algebra and its pullback are written once and shared by
the forward solves, the reversible adjoint and the oracle.

Noise is always queried on the solve's time grid (i*dt, end pinned to t1)
so forward and backward passes hit bitwise-identical tree intervals.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .fields import VectorField

BASELINE_METHODS = ("midpoint", "heun", "euler_maruyama")
METHODS = ("reversible_heun",) + BASELINE_METHODS


class SolverDivergence(RuntimeError):
    """Raised when a state stops being finite or a reconstruction drifts."""


@dataclass
class RevHeunState:
    """Solver 5-tuple; mu/sigma are the field evaluated at (t, zhat)."""

    t: float
    z: np.ndarray      # (batch, x)
    zhat: np.ndarray   # (batch, x)
    mu: np.ndarray     # (batch, x)
    sigma: np.ndarray  # (batch, x, w)


@dataclass
class CotangentState:
    """Loss cotangents mirroring RevHeunState, plus the parameter bucket."""

    d_z: np.ndarray
    d_zhat: np.ndarray
    d_mu: np.ndarray
    d_sigma: np.ndarray
    d_params: np.ndarray


@dataclass
class PathState:
    """Plain (t, z) state used by the single-variable baseline steppers."""

    t: float
    z: np.ndarray


@dataclass
class SolveConfig:
    method: str
    dt: float
    t1: float
    noise: object
    store_trajectory: bool = False
    n_steps: int = dataclass_field(init=False)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; pick from {METHODS}")
        if self.dt <= 0 or self.t1 <= 0:
            raise ValueError("dt and t1 must be positive")
        n = round(self.t1 / self.dt)
        if n < 1 or abs(n * self.dt - self.t1) > 1e-9 * self.t1:
            raise ValueError(
                f"horizon {self.t1} is not an integer multiple of dt {self.dt}")
        self.n_steps = n

    def grid(self):
        """Query times: i*dt with the endpoint pinned to t1 exactly."""
        return [i * self.dt for i in range(self.n_steps)] + [self.t1]


def _sdw(sigma: np.ndarray, dw: np.ndarray) -> np.ndarray:
    # Fixed contraction order; bitwise reproducibility of solves depends
    # on never changing this.
    return np.einsum("bxw,bw->bx", sigma, dw)


def _outer(vec: np.ndarray, dw: np.ndarray) -> np.ndarray:
    return vec[:, :, None] * dw[:, None, :]


def _check_finite(arr: np.ndarray, what: str):
    if not np.all(np.isfinite(arr)):
        raise SolverDivergence(f"non-finite {what}")


def initial_state(field: VectorField, z0: np.ndarray, t0: float = 0.0) -> RevHeunState:
    """Start tuple (t0, z0, z0, field(t0, z0)); one eval of each kind."""
    z0 = np.atleast_2d(np.asarray(z0, dtype=float))
    return RevHeunState(t=t0, z=z0, zhat=z0.copy(),
                        mu=field.eval_drift(t0, z0),
                        sigma=field.eval_diffusion(t0, z0))


def revheun_step_forward(state: RevHeunState, dt: float, dw: np.ndarray,
                         field: VectorField) -> RevHeunState:
    """One reversible Heun step; exactly one drift + one diffusion eval."""
    t_next = state.t + dt
    zhat_next = 2.0 * state.z - state.zhat + state.mu * dt + _sdw(state.sigma, dw)
    mu_next = field.eval_drift(t_next, zhat_next)
    sigma_next = field.eval_diffusion(t_next, zhat_next)
    z_next = (state.z + 0.5 * dt * (state.mu + mu_next)
              + 0.5 * _sdw(state.sigma + sigma_next, dw))
    _check_finite(z_next, "state after forward step")
    return RevHeunState(t_next, z_next, zhat_next, mu_next, sigma_next)


def _mismatch(got, want):
    return float(np.max(np.abs(got - want))) / (1.0 + float(np.max(np.abs(want))))


def _revheun_pullback(pullback, cot: CotangentState, dt: float,
                      dw: np.ndarray) -> CotangentState:
    """Pull cotangents on the tuple after a step back to the tuple before it.

    `pullback` comes from the field's linearization at that step's
    (t', zhat').
    """
    d_mu_next = cot.d_mu + 0.5 * dt * cot.d_z
    d_sigma_next = cot.d_sigma + 0.5 * _outer(cot.d_z, dw)
    gz, gp = pullback(d_mu_next, d_sigma_next)
    b_total = cot.d_zhat + gz
    tmp = 0.5 * cot.d_z + b_total
    return CotangentState(
        d_z=cot.d_z + 2.0 * b_total,
        d_zhat=-b_total,
        d_mu=dt * tmp,
        d_sigma=_outer(tmp, dw),
        d_params=cot.d_params + gp,
    )


def revheun_step_backward(next_state: RevHeunState, cot_next: CotangentState,
                          dt: float, dw: np.ndarray, field: VectorField,
                          roundtrip_tol: float = 1e-9,
                          ) -> tuple[RevHeunState, CotangentState]:
    """Invert one forward step and pull cotangents through it.

    In order: linearizes the field at the stored (t', zhat'); raises
    SolverDivergence if the values differ from the tuple's (mu', sigma')
    by more than `roundtrip_tol` (relative), since then the tuple did not
    come from a forward step with this field; pulls (d_z, d_zhat, d_mu,
    d_sigma) back through the step map, accumulating parameter gradients;
    and reconstructs (t, z, zhat, mu, sigma) in closed form with one drift
    and one diffusion evaluation.
    """
    mu_lin, sigma_lin, pullback = field.linearize(next_state.t,
                                                  next_state.zhat)
    err = max(_mismatch(mu_lin, next_state.mu),
              _mismatch(sigma_lin, next_state.sigma))
    if err > roundtrip_tol:
        raise SolverDivergence(
            f"reverse-step round trip error {err:.3e} exceeds "
            f"{roundtrip_tol:.1e}")
    cot_prev = _revheun_pullback(pullback, cot_next, dt, dw)
    del pullback  # frees the field's tapes before the reconstruction

    t_prev = next_state.t - dt
    sig_dw_next = _sdw(next_state.sigma, dw)
    zhat_prev = (2.0 * next_state.z - next_state.zhat
                 - next_state.mu * dt - sig_dw_next)
    mu_prev = field.eval_drift(t_prev, zhat_prev)
    sigma_prev = field.eval_diffusion(t_prev, zhat_prev)
    z_prev = (next_state.z - 0.5 * dt * (mu_prev + next_state.mu)
              - 0.5 * _sdw(sigma_prev + next_state.sigma, dw))
    _check_finite(z_prev, "reconstructed state")
    return RevHeunState(t_prev, z_prev, zhat_prev, mu_prev, sigma_prev), cot_prev


def revheun_solve(field: VectorField, z0: np.ndarray, config: SolveConfig):
    """Iterate the reversible Heun step over the grid.

    Returns (terminal RevHeunState, trajectory), where the trajectory is
    the list of all states if config.store_trajectory else None. Memory is
    O(1) in the step count when the trajectory is not stored.
    """
    ts = config.grid()
    state = initial_state(field, z0, t0=ts[0])
    trajectory = [state] if config.store_trajectory else None
    for i in range(config.n_steps):
        dw = config.noise.query(ts[i], ts[i + 1])
        try:
            state = revheun_step_forward(state, config.dt, dw, field)
        except SolverDivergence as exc:
            raise SolverDivergence(f"{exc} at step {i}") from None
        if trajectory is not None:
            trajectory.append(state)
    return state, trajectory


def revheun_adjoint_solve(field: VectorField, z0: np.ndarray,
                          config: SolveConfig, loss_cotangent,
                          checkpoint_cotangents: dict | None = None):
    """Gradients of <loss_cotangent, z(t1)> via the reversible backward pass.

    Runs the forward solve, then inverts it step by step, so only the
    current 5-tuple is ever stored. The same noise source instance supplies
    the forward and backward increment queries, which return identical
    values by construction. Optional `checkpoint_cotangents` maps a step
    index i (0 <= i < n) to an extra cotangent on z at time i*dt, for
    losses that also read interior states.

    Returns (grad_z0, grad_params).
    """
    terminal, _ = revheun_solve(field, z0, config)
    ts = config.grid()
    cps = checkpoint_cotangents or {}
    state = terminal
    cot = _terminal_cotangent(field, terminal.z, loss_cotangent)
    for i in reversed(range(config.n_steps)):
        dw = config.noise.query(ts[i], ts[i + 1])
        try:
            state, cot = revheun_step_backward(state, cot, config.dt, dw, field)
        except SolverDivergence as exc:
            raise SolverDivergence(f"{exc} at step {i}") from None
        if i in cps:
            cot.d_z = cot.d_z + np.asarray(cps[i], dtype=float)
    return _revheun_gradients(field, state, cot)


def _terminal_cotangent(field, z, loss_cotangent) -> CotangentState:
    batch, x = z.shape
    return CotangentState(
        d_z=np.array(loss_cotangent, dtype=float).reshape(batch, x),
        d_zhat=np.zeros((batch, x)),
        d_mu=np.zeros((batch, x)),
        d_sigma=np.zeros((batch, x, field.noise_dim)),
        d_params=np.zeros(field.param_count),
    )


def _revheun_gradients(field, first: RevHeunState, cot: CotangentState):
    """(grad_z0, grad_params), folding in the initial (mu, sigma) evaluation."""
    _, _, pullback = field.linearize(first.t, first.z)
    gz, gp = pullback(cot.d_mu, cot.d_sigma)
    return cot.d_z + cot.d_zhat + gz, cot.d_params + gp


# Baseline schemes. Each is written once as scheme(lin, t, z, dt, dw) ->
# (z_next, pullback), where lin(t, z) -> (mu, sigma, field_pullback) is
# either `field.linearize` or the forward-only `_evaluator(field)`, and
# pullback(d_z_next) -> (d_z, d_params) is valid only with `field.linearize`.

def _midpoint(lin, t, z, dt, dw):
    mu0, sigma0, pull0 = lin(t, z)
    z_mid = z + 0.5 * (mu0 * dt + _sdw(sigma0, dw))
    mu1, sigma1, pull1 = lin(t + 0.5 * dt, z_mid)
    z_next = z + mu1 * dt + _sdw(sigma1, dw)

    def pullback(a):
        g_mid, gp1 = pull1(dt * a, _outer(a, dw))
        gz0, gp0 = pull0(0.5 * dt * g_mid, 0.5 * _outer(g_mid, dw))
        return a + g_mid + gz0, gp1 + gp0

    return z_next, pullback


def _heun(lin, t, z, dt, dw):
    mu0, sigma0, pull0 = lin(t, z)
    z_pred = z + mu0 * dt + _sdw(sigma0, dw)
    mu1, sigma1, pull1 = lin(t + dt, z_pred)
    z_next = z + 0.5 * dt * (mu0 + mu1) + 0.5 * _sdw(sigma0 + sigma1, dw)

    def pullback(a):
        g_pred, gp1 = pull1(0.5 * dt * a, 0.5 * _outer(a, dw))
        gz0, gp0 = pull0(dt * g_pred + 0.5 * dt * a,
                         _outer(g_pred, dw) + 0.5 * _outer(a, dw))
        return a + g_pred + gz0, gp1 + gp0

    return z_next, pullback


def _euler_maruyama(lin, t, z, dt, dw):
    mu, sigma, pull = lin(t, z)
    z_next = z + mu * dt + _sdw(sigma, dw)

    def pullback(a):
        gz, gp = pull(dt * a, _outer(a, dw))
        return a + gz, gp

    return z_next, pullback


_BASELINE_SCHEMES = {"midpoint": _midpoint, "heun": _heun,
                     "euler_maruyama": _euler_maruyama}


def _evaluator(field):
    """Forward-only stand-in for `field.linearize`: values, no pullback."""
    return lambda t, z: (field.eval_drift(t, z), field.eval_diffusion(t, z),
                         None)


def baseline_step(method: str, state: PathState, dt: float, dw: np.ndarray,
                  field: VectorField) -> PathState:
    """One step of a baseline scheme.

    midpoint and Heun are two-evaluation Stratonovich schemes (half-step
    state and predictor-corrector respectively); Euler-Maruyama is the
    one-evaluation Ito scheme. dt may be negative for backward-in-time
    integration provided dw is the matching reversed increment.
    """
    scheme = _BASELINE_SCHEMES.get(method)
    if scheme is None:
        raise ValueError(f"unknown baseline method {method!r}")
    z_next, _ = scheme(_evaluator(field), state.t, state.z, dt, dw)
    _check_finite(z_next, f"state after {method} step")
    return PathState(state.t + dt, z_next)


def baseline_solve(method: str, field: VectorField, z0: np.ndarray,
                   config: SolveConfig):
    """Iterate a baseline step over the grid; mirrors revheun_solve."""
    ts = config.grid()
    z0 = np.atleast_2d(np.asarray(z0, dtype=float))
    state = PathState(ts[0], z0)
    trajectory = [state] if config.store_trajectory else None
    for i in range(config.n_steps):
        dw = config.noise.query(ts[i], ts[i + 1])
        try:
            state = baseline_step(method, state, config.dt, dw, field)
        except SolverDivergence as exc:
            raise SolverDivergence(f"{exc} at step {i}") from None
        if trajectory is not None:
            trajectory.append(state)
    return state, trajectory


class _AdjointSystemField(VectorField):
    """Augmented field for the continuous adjoint of a baseline solver.

    State layout per path: [z (x) | a (x) | g (p)] where a carries dL/dz(t)
    and g accumulates parameter gradients. The a and g dynamics are the
    negated drift/diffusion VJPs contracted with a, channel by channel for
    the diffusion. Evaluation only; this field has no VJPs of its own.
    """

    def __init__(self, base: VectorField):
        self.base = base
        self.state_dim = 2 * base.state_dim + base.param_count
        self.noise_dim = base.noise_dim
        self.param_count = 0
        super().__init__()

    def _split(self, y):
        x = self.base.state_dim
        return y[:, :x], y[:, x:2 * x]

    def _drift(self, t, y):
        z, a = self._split(y)
        mu = self.base.eval_drift(t, z)
        az, ap = self.base.vjp_drift(t, z, a, per_sample=True)
        return np.concatenate([mu, -az, -ap], axis=1)

    def _diffusion(self, t, y):
        z, a = self._split(y)
        batch = y.shape[0]
        x, w, p = self.base.state_dim, self.base.noise_dim, self.base.param_count
        sigma = self.base.eval_diffusion(t, z)
        out = np.empty((batch, self.state_dim, w))
        out[:, :x, :] = sigma
        cot = np.zeros((batch, x, w))
        for k in range(w):
            cot[:, :, k] = a
            az, ap = self.base.vjp_diffusion(t, z, cot, per_sample=True)
            cot[:, :, k] = 0.0
            out[:, x:2 * x, k] = -az
            out[:, 2 * x:, k] = -ap
        return out

    def _drift_vjp(self, t, z, cotangent, per_sample):
        raise NotImplementedError("adjoint system field is evaluation-only")

    _diffusion_vjp = _drift_vjp


def continuous_adjoint_solve(method: str, field: VectorField, z0: np.ndarray,
                             config: SolveConfig, loss_cotangent):
    """Optimise-then-discretise gradients with a baseline scheme.

    Solves forward with `method`, then integrates the joint (state,
    adjoint, parameter-gradient) system backward in time with the same
    method and the same Brownian increments, re-integrating the state
    rather than storing it. The state mismatch between the two passes is
    what puts truncation error into these gradients; it vanishes as dt
    shrinks. Returns (grad_z0, grad_params).
    """
    if method not in ("midpoint", "heun"):
        raise ValueError(f"continuous adjoint supports midpoint/heun, got {method!r}")
    terminal, _ = baseline_solve(method, field, z0, config)
    batch, x = terminal.z.shape
    ts = config.grid()
    aug_field = _AdjointSystemField(field)
    y = np.concatenate([
        terminal.z,
        np.array(loss_cotangent, dtype=float).reshape(batch, x),
        np.zeros((batch, field.param_count)),
    ], axis=1)
    state = PathState(ts[-1], y)
    for i in reversed(range(config.n_steps)):
        dw = config.noise.query(ts[i], ts[i + 1])
        try:
            state = baseline_step(method, state, -config.dt, -dw, aug_field)
        except SolverDivergence as exc:
            raise SolverDivergence(f"{exc} at backward step {i}") from None
    grad_z0 = state.z[:, x:2 * x].copy()
    grad_params = state.z[:, 2 * x:].sum(axis=0)
    return grad_z0, grad_params


def _estimate_unrolled_bytes(method, config, batch, x, w):
    per_state = x * (3 + w) if method == "reversible_heun" else x
    n = config.n_steps
    return 8 * batch * ((n + 1) * per_state + n * w)


def unrolled_backprop(method: str, field: VectorField, z0: np.ndarray,
                      config: SolveConfig, loss_cotangent,
                      checkpoint_cotangents: dict | None = None,
                      memory_limit_bytes: int = 2 << 30):
    """Discretise-then-optimise gradients: the O(N)-memory oracle.

    Stores every intermediate state (and increment) on the forward pass,
    then applies the exact reverse-mode chain rule through each step with
    the step pullbacks the reversible adjoint and the baseline schemes
    share. Raises MemoryError up front if the stored trajectory would
    exceed `memory_limit_bytes`. Returns (grad_z0, grad_params).
    """
    z0 = np.atleast_2d(np.asarray(z0, dtype=float))
    batch, x = z0.shape
    w = field.noise_dim
    need = _estimate_unrolled_bytes(method, config, batch, x, w)
    if need > memory_limit_bytes:
        raise MemoryError(
            f"unrolled trajectory needs {need} bytes > limit {memory_limit_bytes}")
    ts = config.grid()
    dt = config.dt
    cps = checkpoint_cotangents or {}
    increments = []
    if method == "reversible_heun":
        states = [initial_state(field, z0, t0=ts[0])]
        for i in range(config.n_steps):
            dw = config.noise.query(ts[i], ts[i + 1])
            increments.append(dw)
            states.append(revheun_step_forward(states[-1], dt, dw, field))
        cot = _terminal_cotangent(field, states[-1].z, loss_cotangent)
        for i in reversed(range(config.n_steps)):
            nxt = states[i + 1]
            _, _, pullback = field.linearize(nxt.t, nxt.zhat)
            cot = _revheun_pullback(pullback, cot, dt, increments[i])
            if i in cps:
                cot.d_z = cot.d_z + np.asarray(cps[i], dtype=float)
        return _revheun_gradients(field, states[0], cot)
    if method not in BASELINE_METHODS:
        raise ValueError(f"unknown method {method!r}")
    states = [PathState(ts[0], z0)]
    for i in range(config.n_steps):
        dw = config.noise.query(ts[i], ts[i + 1])
        increments.append(dw)
        states.append(baseline_step(method, states[-1], dt, dw, field))
    scheme = _BASELINE_SCHEMES[method]
    a = np.array(loss_cotangent, dtype=float).reshape(batch, x)
    gp = np.zeros(field.param_count)
    for i in reversed(range(config.n_steps)):
        _, pullback = scheme(field.linearize, states[i].t, states[i].z, dt,
                             increments[i])
        a, g = pullback(a)
        gp = gp + g
        if i in cps:
            a = a + np.asarray(cps[i], dtype=float)
    return a, gp


@dataclass
class StabilityResult:
    max_abs_z: float
    max_abs_zhat: float
    bounded: bool


def stability_probe(lam_h: complex, n_steps: int,
                    growth_cap: float = 1e12) -> StabilityResult:
    """Drive the reversible Heun step on y' = lam*y with unit step and y0=1.

    Complex arithmetic is realized as a real 2-vector rotation-scaling so
    the numeric core stays real. Reports the maximum moduli of both state
    components over the run; `bounded` means neither ever exceeded 10x the
    initial modulus. Stops early once growth passes `growth_cap`.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    from .fields import AnalyticField

    rot = np.array([[lam_h.real, -lam_h.imag], [lam_h.imag, lam_h.real]])
    field = AnalyticField(
        2, 1,
        drift=lambda t, z: z @ rot.T,
        diffusion=lambda t, z: np.zeros((z.shape[0], 2, 1)),
        drift_vjp_z=lambda t, z, c: c @ rot,
        diffusion_vjp_z=lambda t, z, c: np.zeros_like(z),
    )
    state = initial_state(field, np.array([[1.0, 0.0]]))
    dw = np.zeros((1, 1))
    max_z = max_zhat = 1.0
    for _ in range(n_steps):
        try:
            state = revheun_step_forward(state, 1.0, dw, field)
        except SolverDivergence:
            return StabilityResult(float("inf"), float("inf"), False)
        mod_z = float(np.hypot(state.z[0, 0], state.z[0, 1]))
        mod_zhat = float(np.hypot(state.zhat[0, 0], state.zhat[0, 1]))
        max_z = max(max_z, mod_z)
        max_zhat = max(max_zhat, mod_zhat)
        if max(max_z, max_zhat) > growth_cap:
            break
    return StabilityResult(max_z, max_zhat,
                           bounded=max(max_z, max_zhat) <= 10.0)
