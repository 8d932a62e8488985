"""Step algebra, reversibility, gradient exactness, baselines, stability."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from revsde import solvers
from revsde.brownian import BrownianInterval
from revsde.fields import AnalyticField, MLPField, NeuralField
from revsde.solvers import (
    CotangentState,
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
        assert grid[-1] == 1.0

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
        nxt = revheun_step_forward(state, 0.25, dw, field)
        np.testing.assert_array_equal(nxt.z, z0 + dw)
        np.testing.assert_array_equal(nxt.zhat, z0 + dw)

    def test_scalar_linear_one_step_closed_form(self):
        lam, dt = 0.7, 0.1
        field = linear_field(lam)
        state = initial_state(field, np.array([[2.0]]))
        nxt = revheun_step_forward(state, dt, np.zeros((1, 1)), field)
        expect = 2.0 * (1.0 + lam * dt + 0.5 * lam * lam * dt * dt)
        assert abs(nxt.z[0, 0] - expect) < 1e-15

    def test_one_eval_of_each_per_step(self):
        field = reduced_neural_field()
        state = initial_state(field, np.zeros((2, 8)))
        field.reset_counters()
        revheun_step_forward(state, 0.1, np.zeros((2, 4)), field)
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
            s = revheun_step_forward(state, 1e8, np.zeros((1, 1)), blow)
            revheun_step_forward(s, 1e8, np.zeros((1, 1)), blow)


class TestRevHeunBackwardStep:
    def test_zero_cotangent_stays_zero(self):
        field = reduced_neural_field(seed=3, x=4, w=2)
        state = initial_state(field, np.zeros((2, 4)))
        dw = np.random.default_rng(1).standard_normal((2, 2)) * 0.1
        nxt = revheun_step_forward(state, 0.1, dw, field)
        zero = lambda: np.zeros((2, 4))
        cot = CotangentState(zero(), zero(), zero(), np.zeros((2, 4, 2)),
                             np.zeros(field.param_count))
        _, cot_prev = revheun_step_backward(nxt, cot, 0.1, dw, field)
        assert not cot_prev.d_z.any()
        assert not cot_prev.d_zhat.any()
        assert not cot_prev.d_params.any()

    def test_one_step_linear_gradient(self):
        lam, dt = 0.7, 0.1
        field = linear_field(lam)
        state = initial_state(field, np.array([[2.0]]))
        nxt = revheun_step_forward(state, dt, np.zeros((1, 1)), field)
        cot = CotangentState(np.ones((1, 1)), np.zeros((1, 1)),
                             np.zeros((1, 1)), np.zeros((1, 1, 1)),
                             np.zeros(0))
        prev, cot_prev = revheun_step_backward(nxt, cot, dt, np.zeros((1, 1)),
                                               field)
        # dL/dz0 folds d_z, d_zhat and the initial drift evaluation.
        grad = (cot_prev.d_z + cot_prev.d_zhat + lam * cot_prev.d_mu)[0, 0]
        expect = 1.0 + lam * dt + 0.5 * lam * lam * dt * dt
        assert abs(grad - expect) < 1e-14
        assert abs(prev.z[0, 0] - 2.0) < 1e-13

    def test_roundtrip_divergence_flagged(self):
        field = linear_field(0.5)
        state = initial_state(field, np.array([[1.0]]))
        nxt = revheun_step_forward(state, 0.1, np.zeros((1, 1)), field)
        corrupted = type(nxt)(nxt.t, nxt.z + 0.5, nxt.zhat - 0.5, nxt.mu,
                              nxt.sigma)
        cot = CotangentState(np.ones((1, 1)), np.zeros((1, 1)),
                             np.zeros((1, 1)), np.zeros((1, 1, 1)),
                             np.zeros(0))
        with pytest.raises(SolverDivergence):
            revheun_step_backward(corrupted, cot, 0.1, np.zeros((1, 1)), field)

    def test_corrupted_sigma_alone_flagged(self):
        field = reduced_neural_field(seed=4, x=3, w=2)
        state = initial_state(field, np.zeros((2, 3)))
        dw = np.full((2, 2), 0.1)
        nxt = revheun_step_forward(state, 0.1, dw, field)
        corrupted = type(nxt)(nxt.t, nxt.z, nxt.zhat, nxt.mu,
                              nxt.sigma + 1e-6)
        cot = CotangentState(np.ones((2, 3)), np.zeros((2, 3)),
                             np.zeros((2, 3)), np.zeros((2, 3, 2)),
                             np.zeros(field.param_count))
        revheun_step_backward(nxt, cot, 0.1, dw, field)
        with pytest.raises(SolverDivergence, match="round trip"):
            revheun_step_backward(corrupted, cot, 0.1, dw, field)

    def test_one_forward_pass_per_network_on_a_carried_tuple(self,
                                                             monkeypatch):
        # A tuple from a backward step carries its reconstruction's tape:
        # the next step pulls back through it and runs one forward pass
        # per network, for its own reconstruction. A tuple without a tape
        # is linearized first, so it costs two.
        field = reduced_neural_field(seed=6, x=3, w=2)
        state = initial_state(field, np.zeros((2, 3)))
        dw = np.full((2, 2), 0.1)
        s1 = revheun_step_forward(state, 0.1, dw, field)
        s2 = revheun_step_forward(s1, 0.1, dw, field)
        cot = CotangentState(np.ones((2, 3)), np.zeros((2, 3)),
                             np.zeros((2, 3)), np.zeros((2, 3, 2)),
                             np.zeros(field.param_count))
        calls = []
        forward = MLPField._forward

        def counted(net, t, z):
            calls.append(net)
            return forward(net, t, z)

        def passes():
            counts = (sum(net is field.drift_net for net in calls),
                      sum(net is field.diffusion_net for net in calls))
            calls.clear()
            return counts

        monkeypatch.setattr(MLPField, "_forward", counted)
        carried, cot1 = revheun_step_backward(s2, cot, 0.1, dw, field)
        assert passes() == (2, 2)
        assert carried.pullback is not None
        revheun_step_backward(carried, cot1, 0.1, dw, field)
        assert passes() == (1, 1)

    def test_step_takes_the_input_tuples_tape(self):
        # Only one tape set is alive at a time: the step leaves the input
        # tuple without its pullback. The carried tape pulls back bitwise
        # what a fresh linearization of the same tuple would.
        field = reduced_neural_field(seed=7, x=3, w=2)
        rng = np.random.default_rng(0)
        state = initial_state(field, rng.standard_normal((2, 3)))
        dws = [rng.standard_normal((2, 2)) * 0.3 for _ in range(2)]
        s1 = revheun_step_forward(state, 0.1, dws[0], field)
        s2 = revheun_step_forward(s1, 0.1, dws[1], field)
        cot = CotangentState(*(rng.standard_normal(a.shape) for a in (
            s2.z, s2.zhat, s2.mu, s2.sigma)), np.zeros(field.param_count))
        carried, cot1 = revheun_step_backward(s2, cot, 0.1, dws[1], field)
        fresh = RevHeunState(carried.t, carried.z, carried.zhat, carried.mu,
                             carried.sigma)
        assert s2.pullback is None
        _, via_tape = revheun_step_backward(carried, cot1, 0.1, dws[0], field)
        assert carried.pullback is None
        _, via_fresh = revheun_step_backward(fresh, cot1, 0.1, dws[0], field)
        for name in ("d_z", "d_zhat", "d_mu", "d_sigma", "d_params"):
            np.testing.assert_array_equal(getattr(via_tape, name),
                                          getattr(via_fresh, name))


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
        prev, _ = revheun_step_backward(nxt, cot, dt, dw, field)

        # The reconstruction is the forward update run with (-dt, -dW);
        # pin it to the inverse written out, bit for bit:
        #   zhat = 2 z' - zhat' - mu' dt - sigma' dW
        #   z = z' - dt (mu + mu') / 2 - (sigma + sigma') dW / 2
        def sdw(sigma):
            return np.einsum("bxw,bw->bx", sigma, dw)

        zhat_prev = 2.0 * nxt.z - nxt.zhat - nxt.mu * dt - sdw(nxt.sigma)
        mu, sigma = (field.eval_drift(t - dt, zhat_prev),
                     field.eval_diffusion(t - dt, zhat_prev))
        z_prev = (nxt.z - 0.5 * dt * (mu + nxt.mu)
                  - 0.5 * sdw(sigma + nxt.sigma))
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
            state, cot = revheun_step_backward(state, cot, dt, dw, field)
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
                    state, cot, dt, tree.query(ts[i], ts[i + 1]), field)
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
        ga, gpa = revheun_adjoint_solve(field, z0, cfg, np.ones((2, 3)),
                                        checkpoint_cotangents=cps)
        gu, gpu = unrolled_backprop("reversible_heun", field, z0, cfg,
                                    np.ones((2, 3)),
                                    checkpoint_cotangents=cps)
        assert rel_l1(ga, gpa, gu, gpu) <= 1e-12

    def test_solve_then_backward_is_the_adjoint(self, monkeypatch):
        # A loss reading interior states: one solve saves them, the
        # backward pass runs from its terminal tuple. On a prebuilt fresh
        # tree (n = 64, 16x the cache) this is revheun_adjoint_solve on a
        # tree of the same seed, bitwise, and the saved states are the
        # oracle's at those indices, bitwise.
        field = reduced_neural_field(seed=21, x=3, w=2)
        rng = np.random.default_rng(4)
        z0, c_end = rng.standard_normal((2, 2, 3))
        n, save_at = 64, [0, 8, 40, 64]

        def config():
            return SolveConfig("reversible_heun", 1.0 / n, 1.0,
                               BrownianInterval(1.0, 31, dims=2, batch=2,
                                                cache_capacity=4))

        cfg = config()
        cfg.noise.prebuild_dyadic(cfg.dt)
        terminal, saved = revheun_solve(field, z0, cfg, save_at=save_at)
        assert [s.t for s in saved] == [cfg.grid()[i] for i in save_at]
        assert saved[-1] is terminal
        cps = {i: np.sin(state.z) for i, state in zip(save_at, saved[:-1])}
        with pytest.raises(ValueError, match="checkpoint key 64 .* n = 64"):
            revheun_backward(field, terminal, cfg, c_end, {64: c_end})
        g0, gp = revheun_backward(field, terminal, cfg, c_end, cps)
        ga, gpa = revheun_adjoint_solve(field, z0, config(), c_end,
                                        checkpoint_cotangents=cps)
        np.testing.assert_array_equal(g0, ga)
        np.testing.assert_array_equal(gp, gpa)

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
        # Capacities 1-8 make the dyadic prebuild split the tree at these
        # small n; each solve gets its own tree, so the two agree only if
        # both prebuild it the same way.
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
        # 2^14 steps, 128 times the LRU: the dyadic prebuild bounds each
        # recompute chain by one leaf's worth of steps plus the dyadic
        # depth, and keeps the recomputes per query O(1). A tree built by
        # the forward sweep alone recomputes chains as deep as n.
        n = 1 << 14
        field = AnalyticField(
            1, 1, drift=lambda t, z: 0.3 * z,
            diffusion=lambda t, z: np.full((z.shape[0], 1, 1), 0.5),
            drift_vjp_z=lambda t, z, c: 0.3 * c,
            diffusion_vjp_z=lambda t, z, c: np.zeros_like(z))
        tree = BrownianInterval(1.0, 3, dims=1, batch=1)
        cfg = SolveConfig("reversible_heun", 1.0 / n, 1.0, tree)
        revheun_adjoint_solve(field, np.ones((1, 1)), cfg, np.ones((1, 1)))
        stats = tree.stats()
        assert stats.max_sample_depth <= tree.cache_capacity + math.log2(n)
        assert stats.sample_recomputes / stats.queries <= 4

    @pytest.mark.parametrize("method", ["reversible_heun", "midpoint"])
    def test_forward_pass_stores_nothing_for_a_storing_config(self, method):
        # An O(1)-memory noise (no tree to grow) leaves the adjoint's peak
        # flat in n but for the grid's n + 1 floats: 16 times the steps
        # peak under 1.2x higher. A forward pass that kept every state
        # peaks 24x (reversible) and 4.8x (midpoint) higher at n = 256.
        field = reduced_neural_field(seed=0)
        z0 = np.random.default_rng(1).standard_normal((8, 8))
        unit = np.random.default_rng(2).standard_normal((8, 4))

        class Noise:
            def query(self, s, t):
                return np.sqrt(t - s) * unit

        def peak(n):
            cfg = SolveConfig(method, 1.0 / n, 1.0, Noise())
            tracemalloc.start()
            try:
                if method == "reversible_heun":
                    revheun_adjoint_solve(field, z0, cfg, np.ones((8, 8)))
                else:
                    continuous_adjoint_solve(method, field, z0, cfg,
                                             np.ones((8, 8)))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(256) <= 1.5 * peak(16)

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
                lambda: revheun_adjoint_solve(
                    field, z0, config("reversible_heun"), cot,
                    checkpoint_cotangents=cps),
                lambda: unrolled_backprop(
                    "reversible_heun", field, z0, config("reversible_heun"),
                    cot, checkpoint_cotangents=cps),
                lambda: unrolled_backprop(
                    "heun", field, z0, config("heun"), cot,
                    checkpoint_cotangents=cps)):
            with pytest.raises(ValueError, match=match):
                solve()
        assert tree.stats().node_count == 1


class TestBaselineSteps:
    def test_zero_field_identity(self):
        z = np.array([[1.0, -2.0]])
        state = PathState(0.0, z)
        for method in ("midpoint", "heun"):
            nxt = baseline_step(method, state, 0.1, np.zeros((1, 2)),
                                zero_field(2, 2))
            np.testing.assert_array_equal(nxt.z, z)

    def test_deterministic_ode_factors(self):
        field = linear_field(1.0)
        z = np.array([[3.0]])
        state = PathState(0.0, z)
        dw = np.zeros((1, 1))
        heun = baseline_step("heun", state, 0.1, dw, field).z[0, 0]
        mid = baseline_step("midpoint", state, 0.1, dw, field).z[0, 0]
        assert abs(heun - 3.0 * 1.105) < 1e-14
        assert abs(mid - 3.0 * 1.105) < 1e-14

    def test_two_evals_per_step(self):
        field = reduced_neural_field(seed=8, x=3, w=2)
        state = PathState(0.0, np.zeros((2, 3)))
        for method in ("midpoint", "heun"):
            field.reset_counters()
            baseline_step(method, state, 0.1, np.zeros((2, 2)), field)
            assert field.drift_evals == 2
            assert field.diffusion_evals == 2

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


def cross_cosine_field():
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
                          0.25, np.zeros((1, 1)), zero_field())

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

    def test_one_forward_pass_per_network_per_backward_stage(self,
                                                             monkeypatch):
        # Each backward stage linearizes the field once and its pullback
        # reuses that tape, whatever the noise dimension.
        field = reduced_neural_field(seed=9, x=3, w=2)
        z0 = np.random.default_rng(4).standard_normal((2, 3))
        n = 4
        calls = []
        forward = MLPField._forward

        def counted(net, t, z):
            calls.append(net)
            return forward(net, t, z)

        monkeypatch.setattr(MLPField, "_forward", counted)
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
            tree = BrownianInterval(1.0, 19, dims=1, batch=1)
            cfg = SolveConfig("reversible_heun", 0.25, 1.0, tree)
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
                tree = BrownianInterval(1.0, 41, dims=2, batch=1)
                cfg = SolveConfig(method, 0.25, 1.0, tree)
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
