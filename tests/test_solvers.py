"""Step algebra, reversibility, gradient exactness, baselines, stability."""

import math

import numpy as np
import pytest

from revsde.brownian import BrownianInterval
from revsde.fields import AnalyticField, MLPField, NeuralField
from revsde.solvers import (
    CotangentState,
    PathState,
    SolveConfig,
    SolverDivergence,
    baseline_solve,
    baseline_step,
    continuous_adjoint_solve,
    initial_state,
    revheun_adjoint_solve,
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

    def test_grid_endpoint_pinned(self):
        cfg = SolveConfig("heun", 0.1, 1.0, None)
        grid = cfg.grid()
        assert cfg.n_steps == 10
        assert grid[0] == 0.0
        assert grid[-1] == 1.0


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

    def test_two_forward_passes_per_network(self, monkeypatch):
        # One for the linearization at (t', zhat'), one for the
        # reconstruction at (t, zhat); the pullback reuses the first tape.
        field = reduced_neural_field(seed=6, x=3, w=2)
        state = initial_state(field, np.zeros((2, 3)))
        dw = np.full((2, 2), 0.1)
        nxt = revheun_step_forward(state, 0.1, dw, field)
        cot = CotangentState(np.ones((2, 3)), np.zeros((2, 3)),
                             np.zeros((2, 3)), np.zeros((2, 3, 2)),
                             np.zeros(field.param_count))
        calls = []
        forward = MLPField._forward

        def counted(net, t, z):
            calls.append(net)
            return forward(net, t, z)

        monkeypatch.setattr(MLPField, "_forward", counted)
        revheun_step_backward(nxt, cot, 0.1, dw, field)
        assert sum(net is field.drift_net for net in calls) == 2
        assert sum(net is field.diffusion_net for net in calls) == 2


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
        tree = BrownianInterval(1.0, 2, dims=1, batch=1)
        cfg = SolveConfig("reversible_heun", 0.25, 1.0, tree,
                          store_trajectory=True)
        term, traj = revheun_solve(linear_field(0.1), np.ones((1, 1)), cfg)
        assert len(traj) == 5
        assert traj[-1] is term

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


class TestBaselineSteps:
    def test_zero_field_identity(self):
        z = np.array([[1.0, -2.0]])
        state = PathState(0.0, z)
        for method in ("midpoint", "heun", "euler_maruyama"):
            nxt = baseline_step(method, state, 0.1, np.zeros((1, 2)),
                                zero_field(2, 2))
            np.testing.assert_array_equal(nxt.z, z)

    def test_deterministic_ode_factors(self):
        field = linear_field(1.0)
        z = np.array([[3.0]])
        state = PathState(0.0, z)
        dw = np.zeros((1, 1))
        heun = baseline_step("heun", state, 0.1, dw, field).z[0, 0]
        euler = baseline_step("euler_maruyama", state, 0.1, dw, field).z[0, 0]
        mid = baseline_step("midpoint", state, 0.1, dw, field).z[0, 0]
        assert abs(heun - 3.0 * 1.105) < 1e-14
        assert abs(euler - 3.0 * 1.1) < 1e-14
        assert abs(mid - 3.0 * 1.105) < 1e-14

    def test_two_evals_per_step(self):
        field = reduced_neural_field(seed=8, x=3, w=2)
        state = PathState(0.0, np.zeros((2, 3)))
        for method, expect in (("midpoint", 2), ("heun", 2),
                               ("euler_maruyama", 1)):
            field.reset_counters()
            baseline_step(method, state, 0.1, np.zeros((2, 2)), field)
            assert field.drift_evals == expect
            assert field.diffusion_evals == expect

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
        with pytest.raises(ValueError):
            continuous_adjoint_solve("euler_maruyama", zero_field(),
                                     np.zeros((1, 1)), None, None)

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

    def test_memory_ceiling_raises(self):
        tree = BrownianInterval(1.0, 31, dims=1, batch=4)
        cfg = SolveConfig("reversible_heun", 2.0 ** -10, 1.0, tree)
        with pytest.raises(MemoryError):
            unrolled_backprop("reversible_heun", zero_field(),
                              np.zeros((4, 1)), cfg, np.zeros((4, 1)),
                              memory_limit_bytes=1000)

    def test_baseline_backward_matches_finite_differences(self):
        field = reduced_neural_field(seed=37, x=2, w=2, width=4)
        z0 = np.array([[0.1, 0.2]])
        for method in ("midpoint", "heun", "euler_maruyama"):
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
        for lam in (0.5j, -0.5j, 0.9j, 0.99j, -0.99j):
            assert stability_probe(lam, 100_000).bounded

    def test_off_axis_unbounded(self):
        assert not stability_probe(-0.5 + 0j, 1000).bounded
        assert not stability_probe(-0.1 + 0.5j, 1000).bounded

    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError):
            stability_probe(0.5j, 0)
