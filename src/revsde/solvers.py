"""Time stepping and gradient machinery for Stratonovich SDEs.

The reversible Heun method advances a 5-tuple (t, z, zhat, mu, sigma) with
a single drift and a single diffusion evaluation per step:

    zhat' = 2 z - zhat + mu dt + sigma dW
    mu', sigma' = field(t + dt, zhat')
    z' = z + (mu + mu') dt / 2 + (sigma dW + sigma' dW) / 2

The update contracts sigma dW once, for zhat' and z' both, and adds sigma'
dW to it, so it makes no (batch, x, w) sum. It is algebraically reversible:
its inverse is the same update, `_revheun_update`, run from the tuple after
a step with (-dt, -dW), so the backward pass needs no stored trajectory.
Each backward step pulls the cotangents back through the step map with the
field's linearization at (t', zhat'), then reconstructs the previous tuple
by that negated update, which evaluates the field at (t, zhat). The sweep
(`revheun_backward`) queries each dW one step ahead, so that evaluation
is one `field.vjp`: one drift and one diffusion evaluation fused with the
pullback the step before needs, fed that step's cotangents (at the first
grid time, the initial evaluation's). No tape crosses a step. The
terminal tuple's vjp is checked against its (mu', sigma'). Iterating from
the terminal state gives gradients that match exact reverse-mode
differentiation of the forward recurrence to floating-point
reconstruction error, with O(1) storage: one evaluation pair and one
pullback per step, n + 1 `vjp` calls in all. A loss that reads the path
takes the states its forward solve saved (`save_at`) and
`revheun_backward` folds in their cotangents as the sweep passes them.

Also here: midpoint / Heun baseline steps, the continuous (backward-SDE)
adjoint for the baselines, the O(N)-memory unrolled backpropagation used
as the gradient oracle, and a linear stability probe. Each scheme's step
algebra and its pullback are written once. The baseline schemes are
written in increment form, seeing the field only through the step's
increment mu dt + sigma dW, so one scheme serves the forward solve, the
oracle and the continuous adjoint, which integrates the flat (state,
adjoint, parameter-gradient) vector backward with it. Every gradient
path differentiates the field through `field.vjp`.

One grid walk, `_sweep`, yields every pass its steps' grid times
(`SolveConfig.time`: i*dt, end pinned to t1) with the noise over them, its
shape checked, so forward and backward passes hit bitwise-identical tree
intervals and states sit on the grid. A SolverDivergence names its step.
The oracle differentiates the public forward solves. Every solve that
sweeps the grid backward first keys a fresh noise tree on its grid
(`BrownianInterval.key_on_grid`): a sweep then holds one leaf block and
O(log n) path values, with O(1) amortized tree work per query;
forward-only solves leave the tree shape to their queries.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass, field as dataclass_field, replace

import numpy as np

from .fields import AnalyticField, VectorField

BASELINE_METHODS = ("midpoint", "heun")
METHODS = ("reversible_heun",) + BASELINE_METHODS
ROUNDTRIP_TOL = 1e-9
# Ceiling on the unrolled oracle's stored trajectory and increments.
UNROLLED_MEMORY_LIMIT = 2 << 30


class SolverDivergence(RuntimeError):
    """Raised when a state stops being finite or a reconstruction drifts."""


@dataclass
class RevHeunState:
    """Solver 5-tuple; mu/sigma are the field evaluated at (t, zhat).

    It holds values only: a backward step evaluates the field at both of
    its ends, so no derivative travels with a tuple.
    """

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
    n_steps: int = dataclass_field(init=False)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; pick from {METHODS}")
        for name, value in (("dt", self.dt), ("t1", self.t1)):
            if not 0.0 < value < np.inf:
                raise ValueError(
                    f"{name} must be positive and finite, got {value}")
        n = round(self.t1 / self.dt)
        if n < 1 or abs(n * self.dt - self.t1) > 1e-9 * self.t1:
            raise ValueError(
                f"horizon {self.t1} is not an integer multiple of dt {self.dt}")
        self.n_steps = n

    def time(self, i):
        """Grid time i: i*dt, with time n pinned to t1 exactly."""
        return self.t1 if i == self.n_steps else i * self.dt

    def grid(self):
        """The n + 1 grid times as a list."""
        return [self.time(i) for i in range(self.n_steps + 1)]


def _require_method(method, config):
    if config.method != method:
        raise ValueError(f"method {method!r} disagrees with the config's "
                         f"method {config.method!r}")


def _sdw(sigma: np.ndarray, dw: np.ndarray) -> np.ndarray:
    # Fixed contraction order; bitwise reproducibility of solves depends
    # on never changing this.
    return np.einsum("bxw,bw->bx", sigma, dw)


def _outer(vec: np.ndarray, dw: np.ndarray) -> np.ndarray:
    return np.einsum("bx,bw->bxw", vec, dw)


def _check_finite(arr: np.ndarray, what: str):
    if not np.isfinite(arr).all():
        raise SolverDivergence(f"non-finite {what}")


def _sweep(config, batch, noise_dim, reverse):
    """Yield (i, t, t_next, dW over [t, t_next]) per grid step i, the last
    first if reverse; each dW must have shape (batch, noise_dim)."""
    steps = range(config.n_steps)
    for i in reversed(steps) if reverse else steps:
        t, t_next = config.time(i), config.time(i + 1)
        dw = config.noise.query(t, t_next)
        if np.shape(dw) != (batch, noise_dim):
            raise ValueError(f"noise increment at step {i} has shape "
                             f"{np.shape(dw)}, expected (batch, noise_dim) "
                             f"= {(batch, noise_dim)}")
        yield i, t, t_next, dw


def _march(step, state, config, save_at, field):
    """(terminal, [state after step i for i in save_at, in step order])."""
    save_at = _step_indices(save_at, config.n_steps + 1, config.n_steps,
                            "save_at index")
    saved = [state] if 0 in save_at else []
    try:
        for i, _, t_next, dw in _sweep(config, len(state.z), field.noise_dim,
                                       reverse=False):
            state = step(state, t_next, config.dt, dw, field)
            if i + 1 in save_at:
                saved.append(state)
    except SolverDivergence as exc:
        raise SolverDivergence(f"{exc} at step {i}") from None
    return state, saved


def _prebuild(config):
    """Key the noise on the solve's grid, if it can (a VirtualBrownianTree
    cannot), before a solve that sweeps its grid backward."""
    key = getattr(config.noise, "key_on_grid", None)
    if key is not None:
        key(config.n_steps, config.time)


def _step_indices(indices, stop, n, what):
    """The set of indices, each checked to be an int in 0 <= i < stop."""
    indices = list(indices)
    for i in indices:
        if (isinstance(i, bool) or not isinstance(i, numbers.Integral)
                or not 0 <= i < stop):
            raise ValueError(f"{what} {i!r} is not a step index "
                             f"0 <= i < {stop} for n = {n} steps")
    return set(indices)


def _cotangents(loss_cotangent, checkpoint_cotangents, n, shape):
    """(loss cotangent, checkpoint map on steps < n), each value checked to
    be a float array of the state's shape."""
    loss = np.asarray(loss_cotangent, dtype=float)
    cps = {key: np.asarray(cot, dtype=float)
           for key, cot in (checkpoint_cotangents or {}).items()}
    for what, cot in [("loss cotangent", loss)] + [
            (f"checkpoint cotangent at key {key!r}", cps[key])
            for key in _step_indices(cps, n, n, "checkpoint key")]:
        if cot.shape != shape:
            raise ValueError(f"{what} has shape {cot.shape}, the state has "
                             f"shape {shape}")
    return loss, cps


def initial_state(field: VectorField, z0: np.ndarray) -> RevHeunState:
    """Start tuple (0, z0, z0, field(0, z0)); one eval of each kind.

    Two passes, not one `evaluate`: `perfbench/tracing.py`'s
    `_TracedField` times `eval_drift` and `eval_diffusion` and divides its
    field metrics by their time (ROADMAP items 1a and 2).
    """
    z0 = np.atleast_2d(np.asarray(z0, dtype=float))
    return RevHeunState(0.0, z0, z0.copy(), field.eval_drift(0.0, z0),
                        field.eval_diffusion(0.0, z0))


def _revheun_update(state: RevHeunState, t_next: float, dt: float,
                    dw: np.ndarray, evaluate):
    """The reversible Heun update to time t_next: (new tuple, rest), where
    evaluate(t, zhat) -> (mu, sigma, *rest) runs once the update has read
    the tuple's zhat and its sigma, which it reads nowhere else.

    Run from the tuple after a step with (t, -dt, -dW), t the step's start,
    it inverts that step.
    """
    sdw = _sdw(state.sigma, dw)
    zhat_next = 2.0 * state.z - state.zhat + state.mu * dt + sdw
    mu_next, sigma_next, *rest = evaluate(t_next, zhat_next)
    sdw += _sdw(sigma_next, dw)
    z_next = state.z + 0.5 * dt * (state.mu + mu_next) + 0.5 * sdw
    return RevHeunState(t_next, z_next, zhat_next, mu_next, sigma_next), rest


def revheun_step_forward(state: RevHeunState, t_next: float, dt: float,
                         dw: np.ndarray, field: VectorField) -> RevHeunState:
    """One reversible Heun step to grid time t_next; exactly one
    `evaluate` (one drift and one diffusion eval)."""
    state, _ = _revheun_update(state, t_next, dt, dw, field.evaluate)
    _check_finite(state.z, "state after forward step")
    return state


def _mismatch(got, want):
    """max |got - want| / (1 + max |want|), computed in `got`, which must
    be new: a `vjp` value."""
    d = np.subtract(got, want, out=got)
    np.abs(d, out=d)
    return float(d.max()) / (1.0 + max(float(want.max()), -float(want.min())))


def _field_cotangents(cot, dt, dw):
    """(d_mu', d_sigma'), the cotangents on the field's values at the tuple
    after a step over dw, from the cotangent on that tuple; with dw None,
    the tuple's own (d_mu, d_sigma), those of the initial evaluation."""
    if dw is None:
        return cot.d_mu, cot.d_sigma
    d_sigma = _outer(0.5 * cot.d_z, dw)
    d_sigma += cot.d_sigma
    return cot.d_mu + 0.5 * dt * cot.d_z, d_sigma


def _pulled_back(cot, gz, gp, dt, dw) -> CotangentState:
    """The cotangent on the tuple before a step over dw, from the one after
    it, of which only d_z, d_zhat and d_params are read, and (gz, gp), the
    field's pullback of `_field_cotangents(cot, dt, dw)` at that tuple."""
    b_total = cot.d_zhat + gz
    tmp = 0.5 * cot.d_z + b_total
    return CotangentState(
        d_z=cot.d_z + 2.0 * b_total,
        d_zhat=-b_total,
        d_mu=dt * tmp,
        d_sigma=_outer(tmp, dw),
        d_params=cot.d_params + gp,
    )


def _revheun_pullback(next_state, cot, dt, dw, field) -> CotangentState:
    """`revheun_step_backward`'s first half: pull cotangents on the tuple
    after a step back to the tuple before it.

    One `vjp` at its (t', zhat'), whose values are checked against its
    (mu', sigma') and freed before the new cotangent is made.
    """
    mu, sigma, gz, gp = field.vjp(next_state.t, next_state.zhat,
                                  *_field_cotangents(cot, dt, dw))
    err = np.maximum(_mismatch(mu, next_state.mu),
                     _mismatch(sigma, next_state.sigma))
    del mu, sigma
    if not err <= ROUNDTRIP_TOL:  # a NaN fails too
        raise SolverDivergence(
            f"reverse-step round trip error {err:.3e} exceeds "
            f"{ROUNDTRIP_TOL:.1e}")
    return _pulled_back(cot, gz, gp, dt, dw)


def _revheun_reconstruct(next_state, t, dt, dw, evaluate):
    """`revheun_step_backward`'s second half: (the tuple at grid time t,
    what else `evaluate` returned there)."""
    state, rest = _revheun_update(next_state, t, -dt, -dw, evaluate)
    _check_finite(state.z, "reconstructed state")
    return state, rest


def _sweep_vjp(field, state, cot, dt, dw, t, zhat):
    """The sweep's evaluation at a reconstructed (t, zhat): one `vjp` fed
    `_field_cotangents(cot, dt, dw)`. The update calls it once it has
    contracted `state.sigma`; it drops that and cot's (d_mu, d_sigma),
    which nothing reads again, before the field allocates."""
    state.sigma = None
    d_mu, d_sigma = _field_cotangents(cot, dt, dw)
    cot.d_mu = cot.d_sigma = None
    return field.vjp(t, zhat, d_mu, d_sigma)


def revheun_step_backward(next_state: RevHeunState, cot_next: CotangentState,
                          t: float, dt: float, dw: np.ndarray,
                          field: VectorField,
                          ) -> tuple[RevHeunState, CotangentState]:
    """Invert one forward step, back to grid time t, and pull cotangents
    through it.

    Evaluates the field at both ends of the step. One `field.vjp` at
    (t', zhat') pulls the cotangents back through the step map,
    accumulating parameter gradients; it raises SolverDivergence if its
    values differ from the tuple's (mu', sigma') by more than
    ROUNDTRIP_TOL (relative): then the tuple did not come from a forward
    step with this field. Then one `field.evaluate` at (t, zhat)
    reconstructs the previous tuple by the update with (-dt, -dW). So a
    public step costs two evaluation pairs and one pullback, where
    `revheun_backward`, which knows the next step's dW, fuses each
    reconstruction's evaluation with the following pullback in one `vjp`.

    Pulling back, a step holds the tuple after it, `cot_next`, the
    field's cotangents (d_mu', d_sigma') and the vjp's values, which are
    freed before the new cotangent is made; reconstructing, the tuples on
    both sides of the step and both cotangents; and the noise store's
    block throughout.
    """
    cot_prev = _revheun_pullback(next_state, cot_next, dt, dw, field)
    state, _ = _revheun_reconstruct(next_state, t, dt, dw, field.evaluate)
    return state, cot_prev


def revheun_solve(field: VectorField, z0: np.ndarray, config: SolveConfig,
                  save_at=()):
    """Iterate the reversible Heun step over the grid.

    Returns (terminal RevHeunState, [tuple after step i for each distinct
    i in `save_at`, 0 <= i <= n, in step order]); O(1) memory beyond them.
    """
    _require_method("reversible_heun", config)
    return _march(revheun_step_forward, initial_state(field, z0), config,
                  save_at, field)


def revheun_adjoint_solve(field: VectorField, z0: np.ndarray,
                          config: SolveConfig, loss_cotangent):
    """Gradients of <loss_cotangent, z(t1)> via the reversible backward pass.

    Checks the cotangent and keys the noise on the grid (`_prebuild`), then
    runs `revheun_solve` and `revheun_backward` from its terminal tuple.
    """
    _require_method("reversible_heun", config)
    loss_cotangent, _ = _cotangents(loss_cotangent, None, config.n_steps,
                                    np.atleast_2d(np.asarray(z0)).shape)
    _prebuild(config)
    # Unbound, so the sweep below frees the terminal tuple after one step.
    return revheun_backward(field, revheun_solve(field, z0, config)[0],
                            config, loss_cotangent, None)


def revheun_backward(field: VectorField, terminal: RevHeunState,
                     config: SolveConfig, loss_cotangent,
                     checkpoint_cotangents: dict | None):
    """(grad_z0, grad_params) of <loss_cotangent, z(t1)> from the terminal
    tuple of `revheun_solve(field, z0, config)`, inverting it step by step.

    The solve's noise instance answers the reverse sweep's queries again.
    `checkpoint_cotangents` (or None) maps a step i < n to an extra
    cotangent on z(i*dt), of the state's shape. Key a fresh tree on the
    grid before the solve (`config.noise.key_on_grid(config.n_steps,
    config.time)`), as `revheun_adjoint_solve` does: gradients are exact
    either way, but a keyed tree holds O(1) memory and its reverse sweep
    costs O(1) amortized tree work per step, where a lazy tree holds about
    n split points and, once n outgrows its cache, recomputes chains that
    grow with n.

    The sweep makes n + 1 `field.vjp` calls and no other field call: the
    terminal tuple's, checked against its values, and one per
    reconstruction, fed the cotangents of the step before (at grid time
    0, the initial evaluation's). It works on its own copy of the
    terminal tuple and drops each array once it has read it: a tuple's
    sigma once the reconstruction has contracted it, a cotangent's
    (d_mu, d_sigma) once the vjp's cotangents are made, and the vjp's
    values at the terminal tuple once checked. So a step holds at most
    two (batch, x, w) arrays beside the field's scratch and the noise
    store's block, and the terminal check three; it runs before the
    sweep queries the dW ahead, so it holds one dW.
    """
    _require_method("reversible_heun", config)
    loss, cps = _cotangents(loss_cotangent, checkpoint_cotangents,
                            config.n_steps, terminal.z.shape)
    dt = config.dt
    cot = _terminal_cotangent(field, loss)
    state = replace(terminal)
    del terminal  # only the current tuple stays alive
    steps = _sweep(config, len(state.z), field.noise_dim, reverse=True)
    step, pulled = next(steps), None
    try:
        while step is not None:
            i, t, _, dw = step
            if pulled is None:  # the terminal tuple: its vjp is checked
                cot = _revheun_pullback(state, cot, dt, dw, field)
            else:
                cot = _pulled_back(cot, *pulled, dt, dw)
                pulled = None  # read: (gz, gp) go before the next vjp
            if i in cps:
                cot.d_z = cot.d_z + cps[i]
            # The reconstruction's vjp needs the dW of the step before (None
            # at step 0); it is queried once this step is pulled back.
            step = next(steps, None)
            state, pulled = _revheun_reconstruct(
                state, t, dt, dw, functools.partial(
                    _sweep_vjp, field, state, cot, dt,
                    None if step is None else step[3]))
    except SolverDivergence as exc:
        raise SolverDivergence(f"{exc} at step {i}") from None
    return _revheun_gradients(cot, *pulled)


def _terminal_cotangent(field, loss) -> CotangentState:
    # d_zhat, d_mu and d_sigma are read-only views of one zero.
    zero = np.broadcast_to(0.0, loss.shape + (field.noise_dim,))
    return CotangentState(loss, zero[..., 0], zero[..., 0], zero,
                          np.zeros(field.param_count))


def _revheun_gradients(cot: CotangentState, gz, gp):
    """(grad_z0, grad_params) from the cotangent on the first tuple and
    (gz, gp), the pullback of its (d_mu, d_sigma) through the initial
    evaluation."""
    return cot.d_z + cot.d_zhat + gz, cot.d_params + gp


# Baseline schemes. Each is written once in increment form as
# scheme(inc, t, t_next, z) -> (z_next, pullback) for the step from grid
# time t to t_next, evaluating only at t, t_next and 0.5 * (t + t_next),
# and sees the field only through inc(t, z) -> (delta, inc_pullback),
# delta = mu dt + sigma dW for the step's fixed dt and dW. baseline_step
# passes the forward-only `_increment`; the oracle passes
# `_oracle_increment`, whose pullback, a `vjp` at the stage, the scheme's
# pullback(d_z_next) -> (d_z, d_params) needs; the continuous adjoint
# passes `_adjoint_increment` on its flat [z, a, g] vector, one `vjp` per
# stage.

def _midpoint(inc, t, t_next, z):
    d0, pull0 = inc(t, z)
    d1, pull1 = inc(0.5 * (t + t_next), z + 0.5 * d0)

    def pullback(a):
        g_mid, gp1 = pull1(a)
        gz0, gp0 = pull0(0.5 * g_mid)
        return a + g_mid + gz0, gp1 + gp0

    return z + d1, pullback


def _heun(inc, t, t_next, z):
    d0, pull0 = inc(t, z)
    d1, pull1 = inc(t_next, z + d0)

    def pullback(a):
        g_pred, gp1 = pull1(0.5 * a)
        gz0, gp0 = pull0(g_pred + 0.5 * a)
        return a + g_pred + gz0, gp1 + gp0

    return z + 0.5 * (d0 + d1), pullback


_BASELINE_SCHEMES = {"midpoint": _midpoint, "heun": _heun}


def _increment(field, dt, dw):
    """Forward-only increment mu dt + sigma dW; no pullback."""
    def inc(t, z):
        mu, sigma = field.evaluate(t, z)
        return mu * dt + _sdw(sigma, dw), None

    return inc


def _oracle_increment(field, dt, dw):
    """Increment mu dt + sigma dW with the pullback of a cotangent on it,
    one `vjp` at the stage's (t, z)."""
    def inc(t, z):
        mu, sigma = field.evaluate(t, z)
        return (mu * dt + _sdw(sigma, dw),
                lambda c: field.vjp(t, z, dt * c, _outer(c, dw))[2:])

    return inc


def _adjoint_increment(field, dt, dw, shape):
    """Increment of the continuous adjoint's flat [z, a, g] vector: the
    state's increment and minus the pullback of a through it, one `vjp`."""
    n = shape[0] * shape[1]

    def inc(t, y):
        a = y[n:2 * n].reshape(shape)
        mu, sigma, gz, gp = field.vjp(t, y[:n].reshape(shape), dt * a,
                                      _outer(a, dw))
        return np.concatenate([(mu * dt + _sdw(sigma, dw)).ravel(),
                               -gz.ravel(), -gp]), None

    return inc


def baseline_step(method: str, state: PathState, t_next: float, dt: float,
                  dw: np.ndarray, field: VectorField) -> PathState:
    """One step of a baseline scheme to grid time t_next.

    midpoint and Heun are two-evaluation Stratonovich schemes (half-step
    state and predictor-corrector respectively). Heun evaluates the field
    at state.t and t_next, midpoint at state.t and 0.5 * (state.t + t_next).
    """
    scheme = _BASELINE_SCHEMES.get(method)
    if scheme is None:
        raise ValueError(f"unknown baseline method {method!r}")
    z_next, _ = scheme(_increment(field, dt, dw), state.t, t_next, state.z)
    _check_finite(z_next, f"state after {method} step")
    return PathState(t_next, z_next)


def baseline_solve(method: str, field: VectorField, z0: np.ndarray,
                   config: SolveConfig, save_at=()):
    """Iterate a baseline step over the grid; mirrors revheun_solve."""
    _require_method(method, config)
    z0 = np.atleast_2d(np.asarray(z0, dtype=float))
    return _march(functools.partial(baseline_step, method),
                  PathState(0.0, z0), config, save_at, field)


def continuous_adjoint_solve(method: str, field: VectorField, z0: np.ndarray,
                             config: SolveConfig, loss_cotangent):
    """Optimise-then-discretise gradients with a baseline scheme.

    Solves forward with `method`, then integrates the flat vector [z, a, g]
    backward in time with the same scheme, from grid time i + 1 to i with
    -dt and the negated increments (so its stages evaluate the field at the
    forward stages' times), re-integrating the state rather than storing
    it. a carries dL/dz(t) and g the batch-summed parameter gradient;
    their increment is minus the pullback of a through the state's
    increment, which one `field.vjp` per stage gives with the state's.
    The state mismatch between the two passes puts truncation error into
    these gradients; it vanishes as dt shrinks. Returns (grad_z0,
    grad_params).
    """
    if method not in BASELINE_METHODS:
        raise ValueError(f"continuous adjoint supports {BASELINE_METHODS}, "
                         f"got {method!r}")
    _require_method(method, config)
    loss, _ = _cotangents(loss_cotangent, None, config.n_steps,
                          np.atleast_2d(np.asarray(z0)).shape)
    _prebuild(config)
    terminal, _ = baseline_solve(method, field, z0, config)
    shape, n = terminal.z.shape, terminal.z.size
    scheme = _BASELINE_SCHEMES[method]
    y = np.concatenate([terminal.z.ravel(), loss.ravel(),
                        np.zeros(field.param_count)])
    try:
        for i, t, t_next, dw in _sweep(config, shape[0], field.noise_dim,
                                       reverse=True):
            inc = _adjoint_increment(field, -config.dt, -dw, shape)
            y, _ = scheme(inc, t_next, t, y)
            _check_finite(y, "adjoint state")
    except SolverDivergence as exc:
        raise SolverDivergence(f"{exc} at step {i}") from None
    return y[n:2 * n].reshape(shape), y[2 * n:]


class _Recorder:
    """Noise that queries its source once per interval, then replays it."""

    def __init__(self, noise):
        self.query = functools.cache(noise.query)


def unrolled_backprop(method: str, field: VectorField, z0: np.ndarray,
                      config: SolveConfig, loss_cotangent,
                      checkpoint_cotangents: dict | None = None):
    """Discretise-then-optimise gradients: the O(N)-memory oracle.

    Runs the public forward solve saving every state and recording the
    increments (one query per step), then replays them backward through
    the step pullbacks the adjoints share. Raises MemoryError up front if
    the saved states would exceed UNROLLED_MEMORY_LIMIT bytes. Keys the
    noise on the grid like the adjoints, so on a fresh tree of the same seed
    it sees their noise. Returns (grad_z0, grad_params).
    """
    _require_method(method, config)
    z0 = np.atleast_2d(np.asarray(z0, dtype=float))
    (batch, x), w, n = z0.shape, field.noise_dim, config.n_steps
    loss, cps = _cotangents(loss_cotangent, checkpoint_cotangents, n,
                            z0.shape)
    per_state = x * (3 + w) if method == "reversible_heun" else x
    need = 8 * batch * ((n + 1) * per_state + n * w)
    if need > UNROLLED_MEMORY_LIMIT:
        raise MemoryError(f"unrolled trajectory needs {need} bytes > limit "
                          f"{UNROLLED_MEMORY_LIMIT}")
    _prebuild(config)
    config = replace(config, noise=_Recorder(config.noise))
    dt = config.dt
    if method == "reversible_heun":
        _, states = revheun_solve(field, z0, config, range(n + 1))
        cot = _terminal_cotangent(field, loss)
        for i, _, _, dw in _sweep(config, batch, w, reverse=True):
            cot = _revheun_pullback(states[i + 1], cot, dt, dw, field)
            if i in cps:
                cot.d_z = cot.d_z + cps[i]
        first = states[0]
        return _revheun_gradients(cot, *field.vjp(
            first.t, first.z, cot.d_mu, cot.d_sigma)[2:])
    _, states = baseline_solve(method, field, z0, config, range(n + 1))
    scheme = _BASELINE_SCHEMES[method]
    a, gp = loss, np.zeros(field.param_count)
    for i, t, t_next, dw in _sweep(config, batch, w, reverse=True):
        inc = _oracle_increment(field, dt, dw)
        _, pullback = scheme(inc, t, t_next, states[i].z)
        a, g = pullback(a)
        gp = gp + g
        if i in cps:
            a = a + cps[i]
    return a, gp


@dataclass
class StabilityResult:
    max_abs_z: float
    max_abs_zhat: float
    bounded: bool


def stability_probe(lam_h: complex, n_steps: int) -> StabilityResult:
    """Drive the reversible Heun step on y' = lam*y with unit step and y0=1.

    Complex arithmetic is realized as a real 2-vector rotation-scaling so
    the numeric core stays real. Reports the maximum moduli of both state
    components over the run; `bounded` means neither ever exceeded 10x the
    initial modulus. Stops early once growth passes 1e12.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    rot = np.array([[lam_h.real, -lam_h.imag], [lam_h.imag, lam_h.real]])
    field = AnalyticField(
        2, 1,
        drift=lambda t, z: z @ rot.T,
        diffusion=lambda t, z: np.zeros((z.shape[0], 2, 1)),
    )
    state = initial_state(field, np.array([[1.0, 0.0]]))
    dw = np.zeros((1, 1))
    max_z = max_zhat = 1.0
    for i in range(n_steps):
        try:
            state = revheun_step_forward(state, i + 1.0, 1.0, dw, field)
        except SolverDivergence:
            return StabilityResult(float("inf"), float("inf"), False)
        max_z = max(max_z, float(np.hypot(*state.z[0])))
        max_zhat = max(max_zhat, float(np.hypot(*state.zhat[0])))
        if max(max_z, max_zhat) > 1e12:
            break
    return StabilityResult(max_z, max_zhat,
                           bounded=max(max_z, max_zhat) <= 10.0)
