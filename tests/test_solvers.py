"""Step algebra, reversibility, gradient exactness, baselines, stability."""

import math
import os
import re
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import revsde
from revsde import solvers
from revsde.brownian import BrownianInterval
from revsde.fields import AnalyticField, MLPField, NeuralField
from revsde.harness import cross_cosine_field
from revsde.solvers import (
    BASELINE_METHODS,
    CotangentState,
    METHODS,
    PathState,
    RevHeunState,
    SolveConfig,
    SolverDivergence,
    UNROLLED_MEMORY_LIMIT,
    baseline_solve,
    baseline_step,
    continuous_adjoint_solve,
    initial_state,
    revheun_adjoint_solve,
    revheun_backward,
    revheun_solve,
    revheun_step_backward,
    revheun_step_forward,
    stability_probe,
    unrolled_backprop,
)


def linear_field(lam):
    return AnalyticField(
        1, 1,
        drift=lambda t, z: lam * z,
        diffusion=lambda t, z: np.zeros((z.shape[0], 1, 1)),
        drift_vjp_z=lambda t, z, c: lam * c,
        diffusion_vjp_z=lambda t, z, c: np.zeros_like(z),
    )


def zero_field(x=1, w=1):
    return AnalyticField(
        x, w,
        drift=lambda t, z: np.zeros_like(z),
        diffusion=lambda t, z: np.zeros((z.shape[0], x, w)),
        drift_vjp_z=lambda t, z, c: np.zeros_like(z),
        diffusion_vjp_z=lambda t, z, c: np.zeros_like(z),
    )


def infinite_drift_field(where):
    """Zero diffusion; drift +inf at times t with where(t), zero elsewhere;
    zero vector-Jacobian products."""
    return AnalyticField(
        1, 1,
        drift=lambda t, z: np.full_like(z, np.inf if where(t) else 0.0),
        diffusion=lambda t, z: np.zeros((z.shape[0], 1, 1)),
        drift_vjp_z=lambda t, z, c: np.zeros_like(z),
        diffusion_vjp_z=lambda t, z, c: np.zeros_like(z),
    )


def unit_noise_field(x):
    def diffusion(t, z):
        return np.broadcast_to(np.eye(x), (z.shape[0], x, x)).copy()

    return AnalyticField(
        x, x,
        drift=lambda t, z: np.zeros_like(z),
        diffusion=diffusion,
        drift_vjp_z=lambda t, z, c: np.zeros_like(z),
        diffusion_vjp_z=lambda t, z, c: np.zeros_like(z),
    )


def reduced_neural_field(seed=0, x=8, w=4, width=8):
    rng = np.random.default_rng(seed)
    return NeuralField(
        MLPField(x, [width], x, final_activation="tanh", rng=rng),
        MLPField(x, [width], x * w, final_activation="sigmoid", rng=rng),
    )


class FixedNoise:
    """O(1)-memory noise with no tree: every increment is sqrt(t - s) times
    one fixed (batch, noise_dim) draw."""

    def __init__(self, unit):
        self.unit = unit

    def query(self, s, t):
        return np.sqrt(t - s) * self.unit


def traced_peak(fn):
    """tracemalloc's peak, in bytes, over one call of fn()."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _owned_bytes(obj):
    """Bytes of the arrays in a nest of dicts, lists and tuples that own
    their data (views of another array are not counted again)."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes if obj.base is None else 0
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_owned_bytes(item) for item in obj)
    return 0


def rel_l1(ga, gpa, gb, gpb):
    num = np.abs(ga - gb).sum() + np.abs(gpa - gpb).sum()
    den = max(np.abs(ga).sum() + np.abs(gpa).sum(),
              np.abs(gb).sum() + np.abs(gpb).sum())
    return num / den


def linear_step_matrix(lam, dt):
    # Exact one-step map of (z, zhat) for drift lam*z, zero diffusion.
    return np.array([[1.0 + lam * dt, 0.5 * lam * lam * dt * dt],
                     [2.0, -(1.0 - lam * dt)]])


class TestSolveConfig:
    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            SolveConfig("rk4", 0.1, 1.0, None)

    def test_rejects_non_multiple_horizon(self):
        with pytest.raises(ValueError):
            SolveConfig("heun", 0.3, 1.0, None)

    @pytest.mark.parametrize("name, dt, t1", [
        ("dt", math.nan, 1.0), ("dt", math.inf, 1.0), ("dt", 0.0, 1.0),
        ("t1", 0.25, math.inf), ("t1", 0.25, math.nan), ("t1", 0.25, -1.0)])
    def test_rejects_nonfinite_or_nonpositive_steps(self, name, dt, t1):
        value = dt if name == "dt" else t1
        with pytest.raises(ValueError, match=f"{name} must be positive and "
                                             f"finite, got {value}"):
            SolveConfig("heun", dt, t1, None)

    def test_grid_endpoint_pinned(self):
        cfg = SolveConfig("heun", 0.1, 1.0, None)
        grid = cfg.grid()
        assert cfg.n_steps == 10
        assert grid[0] == 0.0
        assert grid[-1] == cfg.time(10) == 1.0
        assert grid[:-1] == [i * 0.1 for i in range(10)]

    def test_solvers_reject_a_config_naming_another_method(self):
        field, z0, cot = zero_field(), np.zeros((1, 1)), np.ones((1, 1))
        cfg = SolveConfig("heun", 0.25, 1.0,
                          BrownianInterval(1.0, 1, dims=1, batch=1))
        for method, solve in (
                ("midpoint", lambda: baseline_solve(
                    "midpoint", field, z0, cfg)),
                ("midpoint", lambda: continuous_adjoint_solve(
                    "midpoint", field, z0, cfg, cot)),
                ("midpoint", lambda: unrolled_backprop(
                    "midpoint", field, z0, cfg, cot)),
                ("reversible_heun", lambda: revheun_solve(field, z0, cfg)),
                ("reversible_heun", lambda: revheun_adjoint_solve(
                    field, z0, cfg, cot)),
                ("reversible_heun", lambda: unrolled_backprop(
                    "reversible_heun", field, z0, cfg, cot))):
            with pytest.raises(ValueError, match=f"'{method}'.*'heun'"):
                solve()


class TestRevHeunForwardStep:
    def test_pure_noise_step(self):
        field = unit_noise_field(3)
        z0 = np.array([[0.5, -1.0, 2.0]])
        state = initial_state(field, z0)
        dw = np.array([[0.3, 0.1, -0.2]])
        nxt = revheun_step_forward(state, 0.25, 0.25, dw, field)
        np.testing.assert_array_equal(nxt.z, z0 + dw)
        np.testing.assert_array_equal(nxt.zhat, z0 + dw)

    def test_scalar_linear_one_step_closed_form(self):
        lam, dt = 0.7, 0.1
        field = linear_field(lam)
        state = initial_state(field, np.array([[2.0]]))
        nxt = revheun_step_forward(state, dt, dt, np.zeros((1, 1)), field)
        expect = 2.0 * (1.0 + lam * dt + 0.5 * lam * lam * dt * dt)
        assert abs(nxt.z[0, 0] - expect) < 1e-15

    def test_one_eval_of_each_per_step(self):
        field = reduced_neural_field()
        state = initial_state(field, np.zeros((2, 8)))
        field.reset_counters()
        revheun_step_forward(state, 0.1, 0.1, np.zeros((2, 4)), field)
        assert field.drift_evals == 1
        assert field.diffusion_evals == 1

    def test_nonfinite_flagged(self):
        blow = AnalyticField(
            1, 1,
            drift=lambda t, z: np.full_like(z, 1e308),
            diffusion=lambda t, z: np.zeros((z.shape[0], 1, 1)),
        )
        state = initial_state(blow, np.array([[1.0]]))
        with np.errstate(over="ignore"), pytest.raises(SolverDivergence):
            s = revheun_step_forward(state, 1e8, 1e8, np.zeros((1, 1)), blow)
            revheun_step_forward(s, 2e8, 1e8, np.zeros((1, 1)), blow)


class TestRevHeunBackwardStep:
    def test_zero_cotangent_stays_zero(self):
        field = reduced_neural_field(seed=3, x=4, w=2)
        state = initial_state(field, np.zeros((2, 4)))
        dw = np.random.default_rng(1).standard_normal((2, 2)) * 0.1
        nxt = revheun_step_forward(state, 0.1, 0.1, dw, field)
        zero = lambda: np.zeros((2, 4))
        cot = CotangentState(zero(), zero(), zero(), np.zeros((2, 4, 2)),
                             np.zeros(field.param_count))
        _, cot_prev = revheun_step_backward(nxt, cot, 0.0, 0.1, dw, field)
        assert not cot_prev.d_z.any()
        assert not cot_prev.d_zhat.any()
        assert not cot_prev.d_params.any()

    def test_one_step_linear_gradient(self):
        lam, dt = 0.7, 0.1
        field = linear_field(lam)
        state = initial_state(field, np.array([[2.0]]))
        nxt = revheun_step_forward(state, dt, dt, np.zeros((1, 1)), field)
        cot = CotangentState(np.ones((1, 1)), np.zeros((1, 1)),
                             np.zeros((1, 1)), np.zeros((1, 1, 1)),
                             np.zeros(0))
        prev, cot_prev = revheun_step_backward(nxt, cot, 0.0, dt,
                                               np.zeros((1, 1)), field)
        # dL/dz0 folds d_z, d_zhat and the initial drift evaluation.
        grad = (cot_prev.d_z + cot_prev.d_zhat + lam * cot_prev.d_mu)[0, 0]
        expect = 1.0 + lam * dt + 0.5 * lam * lam * dt * dt
        assert abs(grad - expect) < 1e-14
        assert abs(prev.z[0, 0] - 2.0) < 1e-13

    def test_roundtrip_divergence_flagged(self):
        field = linear_field(0.5)
        state = initial_state(field, np.array([[1.0]]))
        nxt = revheun_step_forward(state, 0.1, 0.1, np.zeros((1, 1)), field)
        corrupted = type(nxt)(nxt.t, nxt.z + 0.5, nxt.zhat - 0.5, nxt.mu,
                              nxt.sigma)
        cot = CotangentState(np.ones((1, 1)), np.zeros((1, 1)),
                             np.zeros((1, 1)), np.zeros((1, 1, 1)),
                             np.zeros(0))
        with pytest.raises(SolverDivergence):
            revheun_step_backward(corrupted, cot, 0.0, 0.1, np.zeros((1, 1)),
                                  field)

    def test_corrupted_sigma_alone_flagged(self):
        field = reduced_neural_field(seed=4, x=3, w=2)
        state = initial_state(field, np.zeros((2, 3)))
        dw = np.full((2, 2), 0.1)
        nxt = revheun_step_forward(state, 0.1, 0.1, dw, field)
        corrupted = type(nxt)(nxt.t, nxt.z, nxt.zhat, nxt.mu,
                              nxt.sigma + 1e-6)
        cot = CotangentState(np.ones((2, 3)), np.zeros((2, 3)),
                             np.zeros((2, 3)), np.zeros((2, 3, 2)),
                             np.zeros(field.param_count))
        revheun_step_backward(nxt, cot, 0.0, 0.1, dw, field)
        with pytest.raises(SolverDivergence, match="round trip"):
            revheun_step_backward(corrupted, cot, 0.0, 0.1, dw, field)

    @pytest.mark.parametrize("part", ["mu", "sigma"])
    def test_nan_in_a_tuple_flagged_as_round_trip(self, part):
        # A NaN mismatch fails the check rather than reaching the
        # reconstruction, whichever of (mu, sigma) holds it.
        field = reduced_neural_field(seed=4, x=3, w=2)
        state = initial_state(field, np.zeros((2, 3)))
        dw = np.full((2, 2), 0.1)
        nxt = revheun_step_forward(state, 0.1, 0.1, dw, field)
        value = getattr(nxt, part).copy()
        value.flat[1] = np.nan
        cot = CotangentState(np.ones((2, 3)), np.zeros((2, 3)),
                             np.zeros((2, 3)), np.zeros((2, 3, 2)),
                             np.zeros(field.param_count))
        with pytest.raises(SolverDivergence, match="round trip error nan"):
            revheun_step_backward(replace(nxt, **{part: value}), cot, 0.0,
                                  0.1, dw, field)

    def test_public_step_evaluates_at_both_ends(self, monkeypatch):
        # A tuple holds values only, so every public step, on a tuple from
        # a forward or a backward step alike, runs one vjp at (t', zhat')
        # and one evaluate at (t, zhat): two forward passes per network
        # and one pullback.
        field = reduced_neural_field(seed=6, x=3, w=2)
        state = initial_state(field, np.zeros((2, 3)))
        dw = np.full((2, 2), 0.1)
        s1 = revheun_step_forward(state, 0.1, 0.1, dw, field)
        s2 = revheun_step_forward(s1, 0.2, 0.1, dw, field)
        cot = CotangentState(np.ones((2, 3)), np.zeros((2, 3)),
                             np.zeros((2, 3)), np.zeros((2, 3, 2)),
                             np.zeros(field.param_count))
        calls = []
        layers = MLPField._layers  # each network's part of a field's pass

        def counted(net, *args):
            calls.append(net)
            return layers(net, *args)

        def passes():
            counts = (sum(net is field.drift_net for net in calls),
                      sum(net is field.diffusion_net for net in calls))
            calls.clear()
            return counts

        monkeypatch.setattr(MLPField, "_layers", counted)
        field.reset_counters()
        s1_back, cot1 = revheun_step_backward(s2, cot, 0.1, 0.1, dw, field)
        assert passes() == (2, 2)
        revheun_step_backward(s1_back, cot1, 0.0, 0.1, dw, field)
        assert passes() == (2, 2)
        assert (field.drift_evals, field.drift_vjp_calls) == (4, 2)
        assert (field.diffusion_evals, field.diffusion_vjp_calls) == (4, 2)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), dt=st.floats(2.0 ** -12, 1.0),
           dw_scale=st.floats(0.0, 3.0))
    def test_reconstruction_is_the_inverse_formulas_bitwise(self, seed, dt,
                                                           dw_scale):
        rng = np.random.default_rng(seed)
        batch, x, w, width = (int(v) for v in rng.integers(1, 6, size=4))
        field = reduced_neural_field(seed=seed, x=x, w=w, width=width)
        t = float(rng.uniform(dt, 2.0))
        z, zhat = rng.standard_normal((2, batch, x))
        nxt = RevHeunState(t, z, zhat, field.eval_drift(t, zhat),
                           field.eval_diffusion(t, zhat))
        dw = dw_scale * math.sqrt(dt) * rng.standard_normal((batch, w))
        cot = CotangentState(np.zeros((batch, x)), np.zeros((batch, x)),
                             np.zeros((batch, x)), np.zeros((batch, x, w)),
                             np.zeros(field.param_count))
        prev, _ = revheun_step_backward(nxt, cot, t - dt, dt, dw, field)

        # The reconstruction is the forward update run with (-dt, -dW);
        # pin it to the inverse written out, bit for bit:
        #   zhat = 2 z' - zhat' - mu' dt - sigma' dW
        #   z = z' - dt (mu + mu') / 2 - (sigma' dW + sigma dW) / 2
        def sdw(sigma):
            return np.einsum("bxw,bw->bx", sigma, dw)

        zhat_prev = 2.0 * nxt.z - nxt.zhat - nxt.mu * dt - sdw(nxt.sigma)
        mu, sigma = (field.eval_drift(t - dt, zhat_prev),
                     field.eval_diffusion(t - dt, zhat_prev))
        z_prev = (nxt.z - 0.5 * dt * (mu + nxt.mu)
                  - 0.5 * (sdw(nxt.sigma) + sdw(sigma)))
        assert prev.t == t - dt
        for got, want in ((prev.z, z_prev), (prev.zhat, zhat_prev),
                          (prev.mu, mu), (prev.sigma, sigma)):
            np.testing.assert_array_equal(got, want)


class TestRevHeunSolve:
    def test_zero_field_keeps_state(self):
        tree = BrownianInterval(1.0, 1, dims=1, batch=2)
        cfg = SolveConfig("reversible_heun", 0.125, 1.0, tree)
        z0 = np.array([[1.5], [-2.0]])
        term, _ = revheun_solve(zero_field(), z0, cfg)
        np.testing.assert_array_equal(term.z, z0)

    def test_pure_noise_telescopes_to_total_increment(self):
        # z0 = 0: the terminal state equals the left-to-right sum of the
        # step increments bitwise, and the root increment to rounding
        # (the root was drawn as a single node before the steps split it).
        field = unit_noise_field(2)
        tree = BrownianInterval(1.0, 9, dims=2, batch=3)
        cfg = SolveConfig("reversible_heun", 0.0625, 1.0, tree)
        term, _ = revheun_solve(field, np.zeros((3, 2)), cfg)
        grid = cfg.grid()
        total = tree.query(grid[0], grid[1])
        for i in range(1, 16):
            total = total + tree.query(grid[i], grid[i + 1])
        np.testing.assert_array_equal(term.z, total)
        np.testing.assert_allclose(term.z, tree.query(0.0, 1.0),
                                   rtol=0, atol=1e-13)

    def test_trajectory_storage(self):
        # save_at is a set of step indices: the states come back once each,
        # in step order, 0 being the start tuple and n the terminal one.
        tree = BrownianInterval(1.0, 2, dims=1, batch=1)
        cfg = SolveConfig("reversible_heun", 0.25, 1.0, tree)
        field, z0 = linear_field(0.1), np.ones((1, 1))
        term, traj = revheun_solve(field, z0, cfg, save_at=range(5))
        assert [s.t for s in traj] == cfg.grid()
        assert traj[-1] is term
        np.testing.assert_array_equal(traj[0].z, z0)
        _, some = revheun_solve(field, z0, cfg, save_at=[4, 2, 2, 0])
        assert [s.t for s in some] == [0.0, 0.5, 1.0]
        for state, full in zip(some, (traj[0], traj[2], traj[4])):
            np.testing.assert_array_equal(state.z, full.z)
            np.testing.assert_array_equal(state.zhat, full.zhat)
        assert revheun_solve(field, z0, cfg)[1] == []

    def test_states_sit_on_the_grid(self):
        # Each step ends at its grid time, not at an accumulated t + dt,
        # which at dt = 0.01 ends at 1.0000000000000007 and leaves 89 of
        # the 101 times off the grid.
        field = reduced_neural_field(seed=2, x=3, w=2)
        z0 = np.zeros((2, 3))
        cfg = SolveConfig("reversible_heun", 0.01, 1.0,
                          BrownianInterval(1.0, 3, dims=2, batch=2))
        term, saved = revheun_solve(field, z0, cfg, save_at=range(101))
        assert [s.t for s in saved] == cfg.grid()
        assert term.t == 1.0
        cfg = SolveConfig("heun", 0.01, 1.0, cfg.noise)
        term, saved = baseline_solve("heun", field, z0, cfg,
                                     save_at=range(101))
        assert [s.t for s in saved] == cfg.grid()
        assert term.t == 1.0

    @pytest.mark.parametrize("index", [5, -1, 2.0, True, np.int64(9)])
    def test_save_at_outside_the_grid_rejected(self, index):
        tree = BrownianInterval(1.0, 2, dims=1, batch=1)
        for method, solve in (
                ("reversible_heun", lambda cfg: revheun_solve(
                    zero_field(), np.zeros((1, 1)), cfg, save_at=[1, index])),
                ("heun", lambda cfg: baseline_solve(
                    "heun", zero_field(), np.zeros((1, 1)), cfg,
                    save_at=[1, index]))):
            with pytest.raises(ValueError,
                               match=f"save_at index {re.escape(repr(index))}"
                                     " .* n = 4"):
                solve(SolveConfig(method, 0.25, 1.0, tree))
        assert tree.stats().node_count == 1
        assert tree.stats().queries == 0

    def test_divergence_reports_step_index(self):
        blow = AnalyticField(
            1, 1,
            drift=lambda t, z: z * z * 1e200,
            diffusion=lambda t, z: np.zeros((z.shape[0], 1, 1)),
        )
        tree = BrownianInterval(1.0, 3, dims=1, batch=1)
        cfg = SolveConfig("reversible_heun", 0.25, 1.0, tree)
        with np.errstate(over="ignore"), pytest.raises(SolverDivergence,
                                                       match="step"):
            revheun_solve(blow, np.array([[1e200]]), cfg)

    @pytest.mark.parametrize("method", METHODS)
    def test_divergence_names_a_later_step(self, method):
        # At dt = 1/8 the drift is infinite past t = 0.3. Step 2 is the
        # first to evaluate there: at 0.375 (reversible Heun), at 0.25 and
        # 0.375 (Heun), at 0.25 and 0.3125 (midpoint).
        field = infinite_drift_field(lambda t: t > 0.3)
        cfg = SolveConfig(method, 0.125, 1.0,
                          BrownianInterval(1.0, 3, dims=1, batch=1))
        with pytest.raises(SolverDivergence, match="at step 2$"):
            if method == "reversible_heun":
                revheun_solve(field, np.zeros((1, 1)), cfg)
            else:
                baseline_solve(method, field, np.zeros((1, 1)), cfg)


class TestReversibilityRoundTrip:
    def test_chained_steps_reconstruct_initial_state(self):
        rng = np.random.default_rng(5)
        field = NeuralField(MLPField(4, [8], 4, rng=rng),
                            MLPField(4, [8], 8, rng=rng))
        field.clip()
        n = 1 << 8
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
            dw = tree.query(ts[i], ts[i + 1])
            state, cot = revheun_step_backward(state, cot, ts[i], dt, dw,
                                               field)
        scale = 1.0 + np.abs(z0).max()
        assert np.abs(state.z - z0).max() / scale <= 1e-12
        assert np.abs(state.zhat - z0).max() / scale <= 1e-12


class TestAdjointGradients:
    def test_zero_loss_cotangent_gives_zero_gradients(self):
        field = reduced_neural_field(seed=11, x=4, w=2)
        tree = BrownianInterval(1.0, 4, dims=2, batch=2)
        cfg = SolveConfig("reversible_heun", 0.25, 1.0, tree)
        g0, gp = revheun_adjoint_solve(field, np.zeros((2, 4)), cfg,
                                       np.zeros((2, 4)))
        assert not g0.any()
        assert not gp.any()

    def test_linear_field_matches_matrix_power(self):
        lam, dt, n = 0.7, 0.125, 8
        field = linear_field(lam)
        tree = BrownianInterval(1.0, 1, dims=1, batch=1)
        cfg = SolveConfig("reversible_heun", dt, 1.0, tree)
        g0, _ = revheun_adjoint_solve(field, np.array([[2.0]]), cfg,
                                      np.ones((1, 1)))
        m_pow = np.linalg.matrix_power(linear_step_matrix(lam, dt), n)
        expect = (m_pow @ np.ones(2))[0]  # z0 feeds both z and zhat
        assert abs(g0[0, 0] - expect) < 1e-12

    def test_matches_unrolled_oracle_on_neural_field(self):
        field = reduced_neural_field(seed=0)
        rng = np.random.default_rng(2)
        z0 = rng.standard_normal((8, 8))
        for dt in (1.0, 0.25, 0.0625):
            tree = BrownianInterval(1.0, 7, dims=4, batch=8)
            cfg = SolveConfig("reversible_heun", dt, 1.0, tree)
            ga, gpa = revheun_adjoint_solve(field, z0, cfg, np.ones((8, 8)))
            gu, gpu = unrolled_backprop("reversible_heun", field, z0, cfg,
                                        np.ones((8, 8)))
            assert rel_l1(ga, gpa, gu, gpu) <= 1e-12

    def test_interior_cotangents_track_continuous_adjoint(self):
        # On y' = lam*y with loss z_T, the continuous adjoint is
        # A(t) = exp(lam (1 - t)); the backward pass's d_z at each step
        # should approach it as dt shrinks.
        lam = 0.6
        field = linear_field(lam)

        def worst_gap(n):
            dt = 1.0 / n
            tree = BrownianInterval(1.0, 1)
            cfg = SolveConfig("reversible_heun", dt, 1.0, tree)
            term, _ = revheun_solve(field, np.array([[1.0]]), cfg)
            ts = cfg.grid()
            state = term
            cot = CotangentState(np.ones((1, 1)), np.zeros((1, 1)),
                                 np.zeros((1, 1)), np.zeros((1, 1, 1)),
                                 np.zeros(0))
            worst = 0.0
            for i in reversed(range(n)):
                state, cot = revheun_step_backward(
                    state, cot, ts[i], dt, tree.query(ts[i], ts[i + 1]),
                    field)
                exact = math.exp(lam * (1.0 - ts[i]))
                worst = max(worst, abs(cot.d_z[0, 0] - exact))
            return worst

        coarse, fine = worst_gap(16), worst_gap(64)
        assert coarse <= 0.01
        assert fine < coarse / 2.0

    def test_checkpoint_cotangents_match_unrolled(self):
        field = reduced_neural_field(seed=21, x=3, w=2)
        rng = np.random.default_rng(3)
        z0 = rng.standard_normal((2, 3))
        cps = {2: rng.standard_normal((2, 3)),
               5: rng.standard_normal((2, 3))}
        tree = BrownianInterval(1.0, 31, dims=2, batch=2)
        cfg = SolveConfig("reversible_heun", 0.125, 1.0, tree)
        terminal, _ = revheun_solve(field, z0, cfg)
        ga, gpa = revheun_backward(field, terminal, cfg, np.ones((2, 3)), cps)
        gu, gpu = unrolled_backprop("reversible_heun", field, z0, cfg,
                                    np.ones((2, 3)),
                                    checkpoint_cotangents=cps)
        assert rel_l1(ga, gpa, gu, gpu) <= 1e-12

    def test_solve_then_backward_is_the_adjoint(self, monkeypatch):
        # A loss reading interior states: one solve saves them, the
        # backward pass runs from its terminal tuple and matches the
        # oracle. On a fresh tree keyed on the grid (n = 64, 16x the cache)
        # the same pass without checkpoint cotangents is
        # revheun_adjoint_solve on a tree of the same seed, bitwise, and the
        # saved states are the oracle's at those indices, bitwise.
        field = reduced_neural_field(seed=21, x=3, w=2)
        rng = np.random.default_rng(4)
        z0, c_end = rng.standard_normal((2, 2, 3))
        n, save_at = 64, [0, 8, 40, 64]

        def config():
            return SolveConfig("reversible_heun", 1.0 / n, 1.0,
                               BrownianInterval(1.0, 31, dims=2, batch=2,
                                                cache_capacity=4))

        cfg = config()
        cfg.noise.key_on_grid(cfg.n_steps, cfg.time)
        terminal, saved = revheun_solve(field, z0, cfg, save_at=save_at)
        assert [s.t for s in saved] == [cfg.grid()[i] for i in save_at]
        assert saved[-1] is terminal
        cps = {i: np.sin(state.z) for i, state in zip(save_at, saved[:-1])}
        with pytest.raises(ValueError, match="checkpoint key 64 .* n = 64"):
            revheun_backward(field, terminal, cfg, c_end, {64: c_end})
        g0, gp = revheun_backward(field, terminal, cfg, c_end, cps)
        g_end, gp_end = revheun_backward(field, terminal, cfg, c_end, None)
        ga, gpa = revheun_adjoint_solve(field, z0, config(), c_end)
        np.testing.assert_array_equal(g_end, ga)
        np.testing.assert_array_equal(gp_end, gpa)

        oracle_states = []
        solve = solvers.revheun_solve

        def spy(*args, **kwargs):
            result = solve(*args, **kwargs)
            oracle_states.extend(result[1])
            return result

        monkeypatch.setattr(solvers, "revheun_solve", spy)
        gu, gpu = unrolled_backprop("reversible_heun", field, z0, config(),
                                    c_end, checkpoint_cotangents=cps)
        assert len(oracle_states) == n + 1
        for i, state in zip(save_at, saved):
            for name in ("t", "z", "zhat", "mu", "sigma"):
                np.testing.assert_array_equal(getattr(state, name),
                                              getattr(oracle_states[i], name))
        assert rel_l1(g0, gp, gu, gpu) <= 1e-12

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), x=st.integers(1, 3),
           w=st.integers(1, 3), width=st.integers(1, 6),
           batch=st.integers(1, 4), n=st.integers(1, 24),
           capacity=st.integers(1, 8))
    def test_random_problems_match_oracle_on_fresh_trees(
            self, seed, x, w, width, batch, n, capacity):
        # Each solve gets its own tree, so the two agree only if both key
        # it on the same grid; capacities 1-8 make the LRU evict at these
        # small n.
        rng = np.random.default_rng(seed)
        field = NeuralField(
            MLPField(x, [width], x, final_activation="tanh", rng=rng),
            MLPField(x, [width], x * w, final_activation="sigmoid", rng=rng))
        z0 = rng.standard_normal((batch, x))
        cot = rng.standard_normal((batch, x))

        def config():
            return SolveConfig(
                "reversible_heun", 1.0 / n, 1.0,
                BrownianInterval(1.0, seed, dims=w, batch=batch,
                                 cache_capacity=capacity))

        ga, gpa = revheun_adjoint_solve(field, z0, config(), cot)
        gu, gpu = unrolled_backprop("reversible_heun", field, z0, config(),
                                    cot)
        assert rel_l1(ga, gpa, gu, gpu) <= 1e-12

    def test_reverse_sweep_tree_work_bounded(self):
        # The adjoint keys its tree on the grid: the tree holds only its
        # LRU entries and its hint path, so the solve's peak memory grows
        # like log n (about 1.4x from 2^8 to 2^12 steps), and at 2^14
        # steps, 128 times the LRU, each recompute chain is at most
        # ceil(log2 n) deep with O(1) recomputes per query. A lazy tree
        # holds about 2n nodes (a 12x higher peak at 2^12 than at 2^8).
        # One untraced solve first pays the process's first-use
        # allocations, which would otherwise land in the first peak.
        field = AnalyticField(
            1, 1, drift=lambda t, z: 0.3 * z,
            diffusion=lambda t, z: np.full((z.shape[0], 1, 1), 0.5),
            drift_vjp_z=lambda t, z, c: 0.3 * c,
            diffusion_vjp_z=lambda t, z, c: np.zeros_like(z))

        def solve(n):
            tree = BrownianInterval(1.0, 3, dims=1, batch=1)
            cfg = SolveConfig("reversible_heun", 1.0 / n, 1.0, tree)
            revheun_adjoint_solve(field, np.ones((1, 1)), cfg,
                                  np.ones((1, 1)))
            return tree.stats()

        def peak(n):
            return traced_peak(lambda: solve(n))

        solve(1 << 8)
        assert peak(1 << 12) <= 1.5 * peak(1 << 8)
        n = 1 << 14
        stats = solve(n)
        assert stats.max_sample_depth <= math.ceil(math.log2(n)) + 1
        assert stats.sample_recomputes / stats.queries <= 4

    def test_gradients_bitwise_equal_across_cache_capacities(self):
        # A keyed tree's values do not depend on what its LRU evicted, so
        # neither do the gradients; a tree whose shape followed the
        # capacity would give each capacity its own path.
        field = reduced_neural_field(seed=13, x=3, w=2)
        rng = np.random.default_rng(6)
        z0, cot = rng.standard_normal((2, 2, 3))
        grads = []
        for capacity in (1, 2, 3, 128):
            cfg = SolveConfig("reversible_heun", 1.0 / 64, 1.0,
                              BrownianInterval(1.0, 17, dims=2, batch=2,
                                               cache_capacity=capacity))
            grads.append(revheun_adjoint_solve(field, z0, cfg, cot))
        for g0, gp in grads[:-1]:
            np.testing.assert_array_equal(g0, grads[-1][0])
            np.testing.assert_array_equal(gp, grads[-1][1])

    @pytest.mark.parametrize("method", ["reversible_heun", "midpoint"])
    def test_forward_pass_stores_nothing_for_a_storing_config(self, method):
        # An O(1)-memory noise (no tree to grow) leaves the adjoint's peak
        # flat in n: no pass keeps a state, or a grid time, per step. A
        # grid list of n + 1 floats peaks 4.3x (reversible) and 4.0x
        # (midpoint) higher at n = 4096 than at n = 16.
        field = reduced_neural_field(seed=0)
        z0 = np.random.default_rng(1).standard_normal((8, 8))
        noise = FixedNoise(np.random.default_rng(2).standard_normal((8, 4)))

        def solve(n):
            cfg = SolveConfig(method, 1.0 / n, 1.0, noise)
            if method == "reversible_heun":
                revheun_adjoint_solve(field, z0, cfg, np.ones((8, 8)))
            else:
                continuous_adjoint_solve(method, field, z0, cfg,
                                         np.ones((8, 8)))

        def peak(n):
            return traced_peak(lambda: solve(n))

        peak(16)  # the field's scratch is made on its first call
        assert peak(4096) <= 1.1 * peak(16)

    def test_reconstruction_divergence_names_its_step(self):
        # The forward solve runs on a zero field, the backward sweep on a
        # field whose drift is infinite before t = 0.3. They agree at t1,
        # so the round trip passes; step 2's reconstruction, at grid time
        # 0.25, is the first to evaluate where they differ.
        cfg = SolveConfig("reversible_heun", 0.125, 1.0,
                          BrownianInterval(1.0, 3, dims=1, batch=1))
        terminal, _ = revheun_solve(zero_field(), np.zeros((1, 1)), cfg)
        with pytest.raises(SolverDivergence,
                           match="reconstructed state at step 2$"):
            revheun_backward(infinite_drift_field(lambda t: t < 0.3),
                             terminal, cfg, np.ones((1, 1)), None)

    def test_revsde_calls_per_step(self):
        # Python calls into the revsde package per reversible adjoint step,
        # as the difference of two solve lengths so the per-solve cost
        # cancels: 68 on Python 3.11. A per-step wrapper, an adapter lambda
        # per step and a second pullback closure per linearization would
        # make it 80. Python 3.12 and later inline comprehensions and count
        # fewer, so this is an upper bound.
        package = os.path.dirname(revsde.__file__) + os.sep
        field = reduced_neural_field(seed=0, x=3, w=2)
        z0 = np.random.default_rng(1).standard_normal((2, 3))

        def calls(n):
            count = 0

            def profile(frame, event, arg):
                nonlocal count
                if (event == "call"
                        and frame.f_code.co_filename.startswith(package)):
                    count += 1

            cfg = SolveConfig("reversible_heun", 1.0 / n, 1.0,
                              BrownianInterval(1.0, 3, dims=2, batch=2))
            previous = sys.getprofile()
            sys.setprofile(profile)
            try:
                revheun_adjoint_solve(field, z0, cfg, np.ones((2, 3)))
            finally:
                sys.setprofile(previous)
            return count

        calls(16)  # the field's scratch is made on its first call
        assert (calls(32) - calls(16)) / 16 <= 68

    @staticmethod
    def sweep_peaks(width):
        """The adjoint's traced peak at n in (1, 8, 64), in (batch, x, w)
        float64 arrays, for batch 256, x 8, w 16 and a width-`width` MLP.

        The field's scratch is made before tracing starts, so each peak
        adds the scratch bytes beyond what a field held when it kept two
        (hidden, batch) buffers: an array moved into scratch still counts.
        """
        batch, x, w = 256, 8, 16
        field = reduced_neural_field(seed=0, x=x, w=w, width=width)
        rng = np.random.default_rng(1)
        z0 = rng.standard_normal((batch, x))
        noise = FixedNoise(rng.standard_normal((batch, w)))

        def solve(n):
            cfg = SolveConfig("reversible_heun", 1.0 / n, 1.0, noise)
            revheun_adjoint_solve(field, z0, cfg, np.ones((batch, x)))

        solve(1)  # the field's scratch is made on its first call
        two_buffer_scratch = 8 * batch * (
            2 * 2 * width + x + x * w) + 8 * field.param_count
        extra = _owned_bytes(field._scratch.by_batch) - two_buffer_scratch
        assert extra >= 0
        return [(traced_peak(lambda: solve(n)) + extra) / (batch * x * w * 8)
                for n in (1, 8, 64)]

    def test_backward_sweep_frees_what_it_has_read(self):
        # No tape crosses a step: each reconstruction's evaluation is one
        # vjp fed the earlier step's cotangents. The sweep drops a tuple's
        # sigma once contracted and a cotangent's (d_mu, d_sigma) once the
        # vjp's cotangents exist, so the peak is the terminal check: the
        # tuple's sigma, the vjp's sigma cotangent and its sigma, and the
        # noise: 4.13 (batch, x, w) arrays, scratch counted, flat in n
        # (4.01 at n = 1, which queries no increment ahead). Holding the
        # old sigma across the vjp peaks at 4.51, the old cotangent at
        # 4.57; a sweep carrying a tape from step to step peaked at 4.51
        # with two buffers of scratch.
        assert max(self.sweep_peaks(width=8)) <= 4.2

    def test_backward_sweep_holds_one_wide_tape(self):
        # At width 64 the stacked hidden state is (batch, x, w)-sized too.
        # No tape is allocated, and the fused pass holds one such buffer
        # of scratch more than a field with two: 5.40 arrays at the peak,
        # scratch counted, flat in n. Holding the old sigma across the
        # vjp peaks at 5.78, the old cotangent at 6.01; a sweep carrying a
        # tape from step to step peaked at 6.53.
        assert max(self.sweep_peaks(width=64)) <= 5.5

    def test_sweep_is_the_public_step_bitwise(self):
        # revheun_backward runs revheun_step_backward's two halves itself,
        # from terminal cotangents that are read-only views of one zero; a
        # loop of public steps from allocated zeros gives the same bits,
        # checkpoint cotangents included. An in-place edit of a terminal
        # zero raises rather than writing into the shared zero.
        field = reduced_neural_field(seed=23, x=3, w=2)
        rng = np.random.default_rng(8)
        z0, c_end = rng.standard_normal((2, 4, 3))
        n = 16
        cps = {i: rng.standard_normal((4, 3)) for i in (0, 5, n - 1)}
        tree = BrownianInterval(1.0, 29, dims=2, batch=4)
        cfg = SolveConfig("reversible_heun", 1.0 / n, 1.0, tree)
        tree.key_on_grid(n, cfg.time)
        terminal, _ = revheun_solve(field, z0, cfg)
        g0, gp = revheun_backward(field, terminal, cfg, c_end, cps)

        state = terminal
        cot = CotangentState(c_end, np.zeros((4, 3)), np.zeros((4, 3)),
                             np.zeros((4, 3, 2)), np.zeros(field.param_count))
        for i in reversed(range(n)):
            dw = tree.query(cfg.time(i), cfg.time(i + 1))
            state, cot = revheun_step_backward(state, cot, cfg.time(i),
                                               cfg.dt, dw, field)
            if i in cps:
                cot.d_z = cot.d_z + cps[i]
        _, _, gz, gp_first = field.vjp(state.t, state.zhat, cot.d_mu,
                                       cot.d_sigma)
        np.testing.assert_array_equal(cot.d_z + cot.d_zhat + gz, g0)
        np.testing.assert_array_equal(cot.d_params + gp_first, gp)

        zero = solvers._terminal_cotangent(field, c_end)
        for name, shape in (("d_zhat", (4, 3)), ("d_mu", (4, 3)),
                            ("d_sigma", (4, 3, 2))):
            view = getattr(zero, name)
            assert view.shape == shape and not view.any()
            with pytest.raises(ValueError, match="read-only"):
                view += 1.0

    @pytest.mark.parametrize("n", [1, 2, 16])
    def test_sweep_is_one_vjp_per_step_and_no_tape(self, monkeypatch, n):
        # The sweep's field calls are n + 1 vjps: the terminal tuple's and
        # one per reconstruction. It never linearizes, pulls a tape back
        # or evaluates alone, and its terminal tuple keeps its values.
        field = reduced_neural_field(seed=11, x=3, w=2)
        z0 = np.random.default_rng(9).standard_normal((2, 3))
        cfg = SolveConfig("reversible_heun", 1.0 / n, 1.0,
                          BrownianInterval(1.0, 5, dims=2, batch=2))
        cfg.noise.key_on_grid(n, cfg.time)
        terminal, _ = revheun_solve(field, z0, cfg)
        kept = [terminal.mu.copy(), terminal.sigma.copy()]
        calls = []

        def spy(name):
            method = getattr(field, name)

            def counted(*args):
                calls.append(name)
                return method(*args)

            return counted

        for name in ("vjp", "linearize", "pullback", "evaluate",
                     "eval_drift", "eval_diffusion"):
            monkeypatch.setattr(field, name, spy(name))
        revheun_backward(field, terminal, cfg, np.ones((2, 3)), None)
        assert calls == ["vjp"] * (n + 1)
        assert "tape" not in vars(terminal)
        np.testing.assert_array_equal(terminal.mu, kept[0])
        np.testing.assert_array_equal(terminal.sigma, kept[1])

    @pytest.mark.parametrize("cps, match", [
        ({4: np.ones((2, 2))}, "checkpoint key 4 .* n = 4"),
        ({-1: np.ones((2, 2))}, "checkpoint key -1 .* n = 4"),
        ({2.5: np.ones((2, 2))}, "checkpoint key 2.5 .* n = 4"),
        ({True: np.ones((2, 2))}, "checkpoint key True .* n = 4"),
        ({2: np.ones((2, 1))}, r"key 2 has shape \(2, 1\), the state has "
                               r"shape \(2, 2\)"),
        ({2: 1.0}, r"key 2 has shape \(\), the state has shape \(2, 2\)"),
    ], ids=["4", "-1", "2.5", "True", "column", "scalar"])
    def test_checkpoint_keys_outside_the_grid_rejected(self, cps, match):
        # Keys must be step indices 0..n-1 and values the state's shape;
        # before, a (2, 1) or scalar cotangent broadcast and True read as 1.
        field, z0, cot = zero_field(2, 1), np.zeros((2, 2)), np.ones((2, 2))
        tree = BrownianInterval(1.0, 1, dims=1, batch=2)

        def config(method):
            return SolveConfig(method, 0.25, 1.0, tree)

        for solve in (
                lambda: revheun_backward(
                    field, initial_state(field, z0),
                    config("reversible_heun"), cot, cps),
                lambda: unrolled_backprop(
                    "reversible_heun", field, z0, config("reversible_heun"),
                    cot, checkpoint_cotangents=cps),
                lambda: unrolled_backprop(
                    "heun", field, z0, config("heun"), cot,
                    checkpoint_cotangents=cps)):
            with pytest.raises(ValueError, match=match):
                solve()
        assert tree.stats().node_count == 1


class TestInputRules:
    """Cotangents have the state's shape and noise increments the shape
    (batch, noise_dim); both are checked before any work they would spoil."""

    @pytest.mark.parametrize("cot", [
        np.ones((3, 2)), np.ones(6), np.ones((2, 1)), 1.0],
        ids=["transpose", "flat", "column", "scalar"])
    def test_loss_cotangents_of_another_shape_rejected(self, cot):
        # Reshaped, a transposed or flat cotangent would give a wrong
        # gradient; every entry point rejects each before its noise query.
        field, z0 = zero_field(3, 1), np.zeros((2, 3))
        match = re.escape(f"loss cotangent has shape {np.shape(cot)}, the "
                          f"state has shape (2, 3)")
        trees = []

        def config(method):
            trees.append(BrownianInterval(1.0, 1, dims=1, batch=2))
            return SolveConfig(method, 0.25, 1.0, trees[-1])

        for solve in [lambda: revheun_adjoint_solve(
                          field, z0, config("reversible_heun"), cot)] + [
                (lambda m=m: unrolled_backprop(m, field, z0, config(m), cot))
                for m in ("reversible_heun", "midpoint", "heun")] + [
                (lambda m=m: continuous_adjoint_solve(
                    m, field, z0, config(m), cot))
                for m in ("midpoint", "heun")]:
            with pytest.raises(ValueError, match=match):
                solve()
        assert [tree.stats().node_count for tree in trees] == [1] * 6

        cfg = config("reversible_heun")
        terminal, _ = revheun_solve(field, z0, cfg)
        queries = cfg.noise.stats().queries
        with pytest.raises(ValueError, match=match):
            revheun_backward(field, terminal, cfg, cot, None)
        assert cfg.noise.stats().queries == queries

    def test_caller_cotangents_unchanged(self):
        # The checked cotangents are the caller's own arrays, not copies;
        # no gradient solve may write into them.
        field = reduced_neural_field(seed=3, x=3, w=2)
        rng = np.random.default_rng(8)
        z0, c_end, c_2 = rng.standard_normal((3, 2, 3))
        cps = {2: c_2}
        kept = [z0.copy(), c_end.copy(), c_2.copy()]

        def config(method):
            return SolveConfig(method, 0.25, 1.0,
                               BrownianInterval(1.0, 9, dims=2, batch=2))

        cfg = config("reversible_heun")
        revheun_backward(field, revheun_solve(field, z0, cfg)[0], cfg,
                         c_end, cps)
        revheun_adjoint_solve(field, z0, config("reversible_heun"), c_end)
        for method in ("reversible_heun", "midpoint", "heun"):
            unrolled_backprop(method, field, z0, config(method), c_end, cps)
        for method in ("midpoint", "heun"):
            continuous_adjoint_solve(method, field, z0, config(method), c_end)
        for got, want in zip((z0, c_end, cps[2]), kept):
            np.testing.assert_array_equal(got, want)
        assert cps.keys() == {2} and cps[2] is c_2

    @pytest.mark.parametrize("kind", ["stored", "broadcast"])
    def test_tuples_unchanged_when_the_field_returns_what_it_holds(self,
                                                                    kind):
        # Identity drift returns its input, so a tuple's mu is its zhat, and
        # the diffusion is a constant the closure keeps or a read-only
        # broadcast view. The round-trip check writes into the values a
        # vjp returns; neither backward pass may write into a tuple or the
        # constant, or fail on a read-only one, and both still match the
        # oracle.
        batch, x, w, n = 3, 2, 2, 8
        const = np.random.default_rng(4).standard_normal((x, w))
        stored = np.broadcast_to(const, (batch, x, w)).copy()
        field = AnalyticField(
            x, w, drift=lambda t, z: z,
            diffusion=(lambda t, z: stored) if kind == "stored" else
            (lambda t, z: np.broadcast_to(const, (len(z), x, w))),
            drift_vjp_z=lambda t, z, c: c,
            diffusion_vjp_z=lambda t, z, c: np.zeros_like(z))
        rng = np.random.default_rng(6)
        z0, c_end = rng.standard_normal((2, batch, x))

        def config():
            return SolveConfig("reversible_heun", 1.0 / n, 1.0,
                               BrownianInterval(1.0, 12, dims=w, batch=batch))

        cfg = config()
        cfg.noise.key_on_grid(n, cfg.time)
        terminal, _ = revheun_solve(field, z0, cfg)
        assert terminal.mu is terminal.zhat
        names = ("z", "zhat", "mu", "sigma")
        kept = [getattr(terminal, name).copy() for name in names]
        g0, gp = revheun_backward(field, terminal, cfg, c_end, None)
        dw = cfg.noise.query(cfg.time(n - 1), 1.0)
        cot = CotangentState(c_end, np.zeros((batch, x)), np.zeros((batch, x)),
                             np.zeros((batch, x, w)), np.zeros(0))
        revheun_step_backward(terminal, cot, cfg.time(n - 1), cfg.dt, dw,
                              field)
        for name, want in zip(names, kept):
            np.testing.assert_array_equal(getattr(terminal, name), want)
        np.testing.assert_array_equal(stored,
                                      np.broadcast_to(const, stored.shape))
        gu, gpu = unrolled_backprop("reversible_heun", field, z0, config(),
                                    c_end)
        assert rel_l1(g0, gp, gu, gpu) <= 1e-12

    @pytest.mark.parametrize("batch, dims", [(1, 2), (3, 2), (2, 1)],
                             ids=["batch-1", "batch-3", "dims-1"])
    def test_noise_of_another_shape_rejected(self, batch, dims):
        # Broadcast, a batch-1 store would give every sample one Brownian
        # path; the error names the step and both shapes.
        field, z0 = zero_field(3, 2), np.zeros((2, 3))
        tree = BrownianInterval(1.0, 5, dims=dims, batch=batch)

        def match(step):
            return re.escape(f"noise increment at step {step} has shape "
                             f"{(batch, dims)}, expected (batch, noise_dim) "
                             f"= (2, 2)")

        def config(method):
            return SolveConfig(method, 0.25, 1.0, tree)

        for solve in (
                lambda: revheun_solve(field, z0, config("reversible_heun")),
                lambda: baseline_solve("heun", field, z0, config("heun")),
                lambda: revheun_adjoint_solve(
                    field, z0, config("reversible_heun"), np.ones((2, 3))),
                lambda: unrolled_backprop(
                    "midpoint", field, z0, config("midpoint"),
                    np.ones((2, 3)))):
            with pytest.raises(ValueError, match=match(0)):
                solve()

        good = SolveConfig("reversible_heun", 0.25, 1.0,
                           BrownianInterval(1.0, 5, dims=2, batch=2))
        terminal, _ = revheun_solve(field, z0, good)
        with pytest.raises(ValueError, match=match(3)):
            revheun_backward(field, terminal, config("reversible_heun"),
                             np.ones((2, 3)), None)


class TestBaselineSteps:
    def test_zero_field_identity(self):
        z = np.array([[1.0, -2.0]])
        state = PathState(0.0, z)
        for method in ("midpoint", "heun"):
            nxt = baseline_step(method, state, 0.1, 0.1, np.zeros((1, 2)),
                                zero_field(2, 2))
            np.testing.assert_array_equal(nxt.z, z)

    def test_deterministic_ode_factors(self):
        field = linear_field(1.0)
        z = np.array([[3.0]])
        state = PathState(0.0, z)
        dw = np.zeros((1, 1))
        heun = baseline_step("heun", state, 0.1, 0.1, dw, field).z[0, 0]
        mid = baseline_step("midpoint", state, 0.1, 0.1, dw, field).z[0, 0]
        assert abs(heun - 3.0 * 1.105) < 1e-14
        assert abs(mid - 3.0 * 1.105) < 1e-14

    def test_two_evals_per_step(self):
        field = reduced_neural_field(seed=8, x=3, w=2)
        state = PathState(0.0, np.zeros((2, 3)))
        for method in ("midpoint", "heun"):
            field.reset_counters()
            baseline_step(method, state, 0.1, 0.1, np.zeros((2, 2)), field)
            assert field.drift_evals == 2
            assert field.diffusion_evals == 2

    @pytest.mark.parametrize("method", ["midpoint", "heun"])
    def test_stages_evaluate_at_grid_times(self, method):
        # At dt = 0.01, t + dt and t + 0.5 * dt miss the grid time and the
        # grid midpoint by an ulp on some steps; every pass, forward and
        # backward, must evaluate at grid times (and midpoint at 0.5 * (t +
        # t_next)) only.
        times = []

        def spy(value):
            def fn(t, z):
                times.append(t)
                return value(z)
            return fn

        field = AnalyticField(
            1, 1, drift=spy(np.sin),
            diffusion=spy(lambda z: np.full((z.shape[0], 1, 1), 0.5)),
            drift_vjp_z=lambda t, z, c: np.cos(z) * c,
            diffusion_vjp_z=lambda t, z, c: np.zeros_like(z))
        z0, cot = np.ones((2, 1)), np.ones((2, 1))

        def config():
            return SolveConfig(method, 0.01, 1.0,
                               BrownianInterval(1.0, 3, batch=2))

        grid = config().grid()
        allowed = set(grid)
        if method == "midpoint":
            allowed |= {0.5 * (t + t_next)
                        for t, t_next in zip(grid, grid[1:])}
        for solve in (baseline_solve, continuous_adjoint_solve,
                      unrolled_backprop):
            times.clear()
            solve(method, field, z0, config(),
                  *([] if solve is baseline_solve else [cot]))
            assert times and set(times) <= allowed, solve.__name__

    def test_midpoint_strong_order_half_on_noncommutative_noise(self):
        # Cross-coupled cosine diffusion; scalar noise would be commutative
        # and converge at order one instead.
        field = cross_cosine_field()
        hs = [2.0 ** -k for k in range(3, 7)]
        errs = []
        for i, h in enumerate(hs):
            tree = BrownianInterval(1.0, 300 + i, dims=2, batch=4000)
            z0 = np.ones((4000, 2))
            fine, _ = baseline_solve("heun", field, z0,
                                     SolveConfig("heun", h / 10, 1.0, tree))
            coarse, _ = baseline_solve("midpoint", field, z0,
                                       SolveConfig("midpoint", h, 1.0, tree))
            errs.append(math.sqrt(
                np.mean(np.sum((coarse.z - fine.z) ** 2, axis=1))))
        slope = np.polyfit(np.log2(hs), np.log2(errs), 1)[0]
        assert 0.35 <= slope <= 0.75


class TestContinuousAdjoint:
    def test_zero_cotangent(self):
        field = reduced_neural_field(seed=5, x=3, w=2)
        tree = BrownianInterval(1.0, 6, dims=2, batch=2)
        cfg = SolveConfig("midpoint", 0.25, 1.0, tree)
        g0, gp = continuous_adjoint_solve("midpoint", field, np.zeros((2, 3)),
                                          cfg, np.zeros((2, 3)))
        assert not g0.any()
        assert not gp.any()

    def test_rejects_euler(self):
        # Euler-Maruyama is an Ito scheme and the fields are Stratonovich,
        # so no solve offers it: no config can name it.
        with pytest.raises(ValueError,
                           match="unknown method 'euler_maruyama'"):
            SolveConfig("euler_maruyama", 0.25, 1.0, None)
        with pytest.raises(ValueError, match="unknown baseline method"):
            baseline_step("euler_maruyama", PathState(0.0, np.zeros((1, 1))),
                          0.25, 0.25, np.zeros((1, 1)), zero_field())

    def test_rejects_reversible_heun(self):
        cfg = SolveConfig("reversible_heun", 0.25, 1.0, None)
        with pytest.raises(ValueError, match="continuous adjoint supports"):
            continuous_adjoint_solve("reversible_heun", zero_field(),
                                     np.zeros((1, 1)), cfg, np.ones((1, 1)))

    def test_linear_ode_second_order_error(self):
        lam = 0.6
        field = linear_field(lam)
        errs = []
        for dt in (0.25, 0.0625):
            tree = BrownianInterval(1.0, 2, dims=1, batch=1)
            cfg = SolveConfig("midpoint", dt, 1.0, tree)
            g, _ = continuous_adjoint_solve("midpoint", field,
                                            np.array([[1.0]]), cfg,
                                            np.ones((1, 1)))
            errs.append(abs(g[0, 0] - math.exp(lam)))
        assert errs[1] < errs[0] / 8.0

    @pytest.mark.parametrize("method", BASELINE_METHODS)
    def test_divergence_names_its_step(self, method):
        # At dt = 1/8 the drift's VJP is infinite before t = 0.2. Backward
        # step 1 (from 0.25 to 0.125) is the first whose stages linearize
        # there: at 0.125 (Heun), at 0.1875 (midpoint).
        field = AnalyticField(
            1, 1,
            drift=lambda t, z: np.zeros_like(z),
            diffusion=lambda t, z: np.zeros((z.shape[0], 1, 1)),
            drift_vjp_z=lambda t, z, c: np.full_like(z, np.inf if t < 0.2
                                                     else 0.0),
            diffusion_vjp_z=lambda t, z, c: np.zeros_like(z),
        )
        cfg = SolveConfig(method, 0.125, 1.0,
                          BrownianInterval(1.0, 3, dims=1, batch=1))
        with pytest.raises(SolverDivergence,
                           match="^non-finite adjoint state at step 1$"):
            continuous_adjoint_solve(method, field, np.zeros((1, 1)), cfg,
                                     np.ones((1, 1)))

    def test_one_forward_pass_per_network_per_backward_stage(self,
                                                             monkeypatch):
        # Each backward stage linearizes the field once and its pullback
        # reuses that tape, whatever the noise dimension.
        field = reduced_neural_field(seed=9, x=3, w=2)
        z0 = np.random.default_rng(4).standard_normal((2, 3))
        n = 4
        calls = []
        layers = MLPField._layers  # each network's part of a field's pass

        def counted(net, *args):
            calls.append(net)
            return layers(net, *args)

        monkeypatch.setattr(MLPField, "_layers", counted)
        for method in ("midpoint", "heun"):
            tree = BrownianInterval(1.0, 6, dims=2, batch=2)
            calls.clear()
            field.reset_counters()
            continuous_adjoint_solve(method, field, z0,
                                     SolveConfig(method, 1.0 / n, 1.0, tree),
                                     np.ones((2, 3)))
            # Two per forward step (one evaluation per stage) and two per
            # backward step (one linearization per stage).
            assert sum(net is field.drift_net for net in calls) == 4 * n
            assert sum(net is field.diffusion_net for net in calls) == 4 * n
            assert field.drift_vjp_calls == 2 * n
            assert field.diffusion_vjp_calls == 2 * n

    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_reversible_adjoint_halves_evaluations_and_pullbacks(self, n):
        # The paper's speed claim, counted at equal dt: per step the
        # reversible adjoint makes one evaluation forward, one backward
        # and one pullback; each baseline scheme's continuous adjoint makes
        # twice that. The reversible adjoint's init terms are the start
        # evaluation, the terminal tuple's linearization and the pullback
        # at z0.
        field = reduced_neural_field(seed=3, x=3, w=2)
        z0 = np.random.default_rng(8).standard_normal((2, 3))

        def counts(method, solve):
            field.reset_counters()
            solve(field, z0, SolveConfig(method, 1.0 / n, 1.0,
                                         BrownianInterval(1.0, 9, dims=2,
                                                          batch=2)),
                  np.ones((2, 3)))
            assert field.drift_evals == field.diffusion_evals
            assert field.drift_vjp_calls == field.diffusion_vjp_calls
            return field.drift_evals, field.drift_vjp_calls

        evals, pullbacks = counts("reversible_heun", revheun_adjoint_solve)
        assert (evals, pullbacks) == (2 * n + 2, n + 1)
        for method in ("midpoint", "heun"):
            base_evals, base_pullbacks = counts(
                method, lambda *args: continuous_adjoint_solve(method, *args))
            assert 2 * (evals - 2) == base_evals
            assert 2 * (pullbacks - 1) == base_pullbacks

    def test_error_vs_oracle_decreases_with_dt(self):
        field = reduced_neural_field(seed=0)
        rng = np.random.default_rng(2)
        z0 = rng.standard_normal((8, 8))
        for method in ("midpoint", "heun"):
            errs = []
            for dt in (1.0, 0.25, 0.0625):
                tree = BrownianInterval(1.0, 11, dims=4, batch=8)
                cfg = SolveConfig(method, dt, 1.0, tree)
                god, gpd = continuous_adjoint_solve(method, field, z0, cfg,
                                                    np.ones((8, 8)))
                guo, gpu = unrolled_backprop(method, field, z0, cfg,
                                             np.ones((8, 8)))
                errs.append(rel_l1(god, gpd, guo, gpu))
            assert errs[0] > errs[1] > errs[2]
            assert errs[1] <= errs[0] / 2.0
            assert errs[2] <= errs[1] / 2.0


class TestUnrolledBackprop:
    def test_matches_finite_differences_of_whole_solve(self):
        field = reduced_neural_field(seed=13, x=2, w=1, width=4)
        z0 = np.array([[0.3, -0.4]])

        def terminal(z):
            # Keyed on the grid as the oracle keys its tree: one path.
            tree = BrownianInterval(1.0, 19, dims=1, batch=1)
            cfg = SolveConfig("reversible_heun", 0.25, 1.0, tree)
            tree.key_on_grid(cfg.n_steps, cfg.time)
            term, _ = revheun_solve(field, z, cfg)
            return term.z.sum()

        tree = BrownianInterval(1.0, 19, dims=1, batch=1)
        cfg = SolveConfig("reversible_heun", 0.25, 1.0, tree)
        g0, gp = unrolled_backprop("reversible_heun", field, z0, cfg,
                                   np.ones((1, 2)))
        h = 1e-6
        for i in range(2):
            up, down = z0.copy(), z0.copy()
            up[0, i] += h
            down[0, i] -= h
            fd = (terminal(up) - terminal(down)) / (2.0 * h)
            assert abs(g0[0, i] - fd) <= 1e-5 * max(1.0, abs(fd))
        params = field.get_params()
        for j in range(0, field.param_count, 9):
            p = params.copy()
            p[j] += h
            field.set_params(p)
            up = terminal(z0)
            p[j] -= 2 * h
            field.set_params(p)
            down = terminal(z0)
            field.set_params(params)
            fd = (up - down) / (2.0 * h)
            assert abs(gp[j] - fd) <= 1e-5 * max(1.0, abs(fd))

    def test_zero_field_gradient_is_identity(self):
        tree = BrownianInterval(1.0, 23, dims=1, batch=2)
        cfg = SolveConfig("reversible_heun", 0.25, 1.0, tree)
        cot = np.array([[2.0], [-1.0]])
        g0, _ = unrolled_backprop("reversible_heun", zero_field(),
                                  np.zeros((2, 1)), cfg, cot)
        np.testing.assert_array_equal(g0, cot)

    def test_linear_field_matrix_power(self):
        lam, dt, n = -0.4, 0.25, 4
        field = linear_field(lam)
        tree = BrownianInterval(1.0, 29, dims=1, batch=1)
        cfg = SolveConfig("reversible_heun", dt, 1.0, tree)
        g0, _ = unrolled_backprop("reversible_heun", field, np.ones((1, 1)),
                                  cfg, np.ones((1, 1)))
        m_pow = np.linalg.matrix_power(linear_step_matrix(lam, dt), n)
        assert abs(g0[0, 0] - (m_pow @ np.ones(2))[0]) < 1e-13

    @pytest.mark.parametrize("method", ["reversible_heun", "heun"])
    def test_divergence_reports_step_index(self, method):
        blow = AnalyticField(
            1, 1,
            drift=lambda t, z: z * z * 1e200,
            diffusion=lambda t, z: np.zeros((z.shape[0], 1, 1)),
        )
        cfg = SolveConfig(method, 0.25, 1.0,
                          BrownianInterval(1.0, 3, dims=1, batch=1))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                SolverDivergence, match="at step 0$"):
            unrolled_backprop(method, blow, np.array([[1e200]]), cfg,
                              np.ones((1, 1)))

    def test_memory_ceiling_raises(self):
        # 2^24 steps of a batch-4 scalar state: the stored tuples and
        # increments would take about 2.7 GB. Raised before any tree work.
        tree = BrownianInterval(1.0, 31, dims=1, batch=4)
        cfg = SolveConfig("reversible_heun", 2.0 ** -24, 1.0, tree)
        with pytest.raises(MemoryError,
                           match=f"> limit {UNROLLED_MEMORY_LIMIT}$"):
            unrolled_backprop("reversible_heun", zero_field(),
                              np.zeros((4, 1)), cfg, np.zeros((4, 1)))
        assert tree.stats().node_count == 1

    @pytest.mark.parametrize("method", ["reversible_heun", "midpoint", "heun"])
    def test_queries_each_step_once(self, method):
        # The oracle queries each step once and replays it backward, so an
        # adjoint (two queries per step) checked against it still catches
        # a tree whose repeated queries drift.
        tree = BrownianInterval(1.0, 43, dims=2, batch=2)
        queries = []

        class CountingNoise:
            def query(self, s, t):
                queries.append((s, t))
                return tree.query(s, t)

        noise = CountingNoise()
        cfg = SolveConfig(method, 0.125, 1.0, noise)
        unrolled_backprop(method, reduced_neural_field(seed=2, x=3, w=2),
                          np.zeros((2, 3)), cfg, np.ones((2, 3)))
        grid = cfg.grid()
        assert queries == list(zip(grid[:-1], grid[1:]))
        assert cfg.noise is noise

    @pytest.mark.parametrize("method", ["midpoint", "heun"])
    def test_baseline_checkpoint_cotangents_superpose(self, method):
        # The gradient of <c_T, z(T)> + <c_k, z(k dt)> is the sum of the
        # oracle with c_T alone and the oracle over horizon k dt with c_k,
        # all on one tree.
        field = reduced_neural_field(seed=17, x=3, w=2)
        rng = np.random.default_rng(5)
        z0 = rng.standard_normal((2, 3))
        c_end, c_k = rng.standard_normal((2, 2, 3))
        dt, k = 0.125, 3
        tree = BrownianInterval(1.0, 47, dims=2, batch=2)
        cfg = SolveConfig(method, dt, 1.0, tree)
        g0, gp = unrolled_backprop(method, field, z0, cfg, c_end,
                                   checkpoint_cotangents={k: c_k})
        g0_end, gp_end = unrolled_backprop(method, field, z0, cfg, c_end)
        g0_k, gp_k = unrolled_backprop(
            method, field, z0, SolveConfig(method, dt, k * dt, tree), c_k)
        assert rel_l1(g0, gp, g0_end + g0_k, gp_end + gp_k) <= 1e-12

    def test_baseline_backward_matches_finite_differences(self):
        field = reduced_neural_field(seed=37, x=2, w=2, width=4)
        z0 = np.array([[0.1, 0.2]])
        for method in ("midpoint", "heun"):
            def terminal(z):
                # Keyed on the grid as the oracle keys its tree: one path.
                tree = BrownianInterval(1.0, 41, dims=2, batch=1)
                cfg = SolveConfig(method, 0.25, 1.0, tree)
                tree.key_on_grid(cfg.n_steps, cfg.time)
                term, _ = baseline_solve(method, field, z, cfg)
                return term.z.sum()

            tree = BrownianInterval(1.0, 41, dims=2, batch=1)
            cfg = SolveConfig(method, 0.25, 1.0, tree)
            g0, gp = unrolled_backprop(method, field, z0, cfg,
                                       np.ones((1, 2)))
            h = 1e-6
            for i in range(2):
                up, down = z0.copy(), z0.copy()
                up[0, i] += h
                down[0, i] -= h
                fd = (terminal(up) - terminal(down)) / (2.0 * h)
                assert abs(g0[0, i] - fd) <= 1e-5 * max(1.0, abs(fd))
            params = field.get_params()
            for j in range(0, field.param_count, 9):
                p = params.copy()
                p[j] += h
                field.set_params(p)
                up = terminal(z0)
                p[j] -= 2 * h
                field.set_params(p)
                down = terminal(z0)
                field.set_params(params)
                fd = (up - down) / (2.0 * h)
                assert abs(gp[j] - fd) <= 1e-5 * max(1.0, abs(fd))


class TestStabilityProbe:
    def test_zero_rate_constant(self):
        res = stability_probe(0j, 100)
        assert res.max_abs_z == 1.0
        assert res.bounded

    def test_imaginary_axis_bounded(self):
        # Criterion 10 covers +-0.5i and +-0.99i at the same step count.
        assert stability_probe(0.9j, 100_000).bounded

    def test_off_axis_unbounded(self):
        assert not stability_probe(-0.5 + 0j, 1000).bounded
        assert not stability_probe(-0.1 + 0.5j, 1000).bounded

    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError):
            stability_probe(0.5j, 0)
