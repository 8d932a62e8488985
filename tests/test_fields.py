"""Activation, MLP forward/VJP, clipping, and finite-difference checks."""

import numpy as np
import pytest

from revsde.fields import (
    AnalyticField,
    MLPField,
    NeuralField,
    clip_weights,
    fd_check,
    lipswish,
    lipswish_grad,
)


class TestLipswish:
    def test_zero(self):
        assert lipswish(0.0) == 0.0

    def test_saturates_to_scaled_identity(self):
        assert abs(lipswish(20.0) - 0.909 * 20.0) < 1e-6

    def test_grid_derivative_bounded_by_one(self):
        x = np.linspace(-10.0, 10.0, 100_000)
        assert np.abs(lipswish_grad(x)).max() <= 1.0

    def test_grid_minimum_bounded(self):
        x = np.linspace(-10.0, 10.0, 100_000)
        assert lipswish(x).min() >= -0.2532

    def test_derivative_matches_finite_differences(self):
        x = np.linspace(-6.0, 6.0, 1000)
        h = 1e-6
        fd = (lipswish(x + h) - lipswish(x - h)) / (2.0 * h)
        np.testing.assert_allclose(lipswish_grad(x), fd, atol=1e-8)


def _identity_linear_mlp(dim):
    """Single linear layer passing the state through and ignoring time."""
    net = MLPField(dim, [], dim, final_activation="identity")
    net.weights[0] = np.concatenate([np.eye(dim), np.zeros((dim, 1))], axis=1)
    net.biases[0] = np.zeros(dim)
    return net


class TestMLPForward:
    def test_zero_parameters_give_zero_output(self):
        net = MLPField(3, [8], 5, rng=np.random.default_rng(1))
        net.set_params(np.zeros(net.n_params))
        z = np.random.default_rng(2).standard_normal((4, 3))
        assert np.array_equal(net.eval(0.7, z), np.zeros((4, 5)))

    def test_identity_linear_layer(self):
        net = _identity_linear_mlp(3)
        z = np.random.default_rng(3).standard_normal((6, 3))
        np.testing.assert_array_equal(net.eval(0.5, z), z)

    def test_against_handwritten_forward(self):
        # Independent re-implementation with explicit loops.
        rng = np.random.default_rng(7)
        net = MLPField(3, [8], 4, activation="lipswish",
                       final_activation="tanh", rng=rng)
        z = rng.standard_normal((5, 3))
        t = 0.37
        got = net.eval(t, z)

        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        expect = np.empty((5, 4))
        for b in range(5):
            x = np.append(z[b], t)
            h = np.empty(8)
            for o in range(8):
                acc = net.biases[0][o]
                for i in range(4):
                    acc += net.weights[0][o, i] * x[i]
                h[o] = 0.909 * acc * sig(acc)
            for o in range(4):
                acc = net.biases[1][o]
                for i in range(8):
                    acc += net.weights[1][o, i] * h[i]
                expect[b, o] = np.tanh(acc)
        np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        net = MLPField(3, [4], 2)
        with pytest.raises(ValueError):
            net.eval(0.0, np.zeros((2, 5)))


class TestMLPVjp:
    def test_zero_cotangent_gives_zero_gradients(self):
        net = MLPField(3, [8], 4, rng=np.random.default_rng(4))
        z = np.random.default_rng(5).standard_normal((2, 3))
        cot_z, cot_p = net.vjp(0.1, z, np.zeros((2, 4)))
        assert not cot_z.any()
        assert not cot_p.any()

    def test_linear_layer_adjoint_is_transpose(self):
        net = _identity_linear_mlp(3)
        rng = np.random.default_rng(6)
        a = rng.standard_normal((3, 3))
        net.weights[0][:, :3] = a
        z = rng.standard_normal((4, 3))
        cot = rng.standard_normal((4, 3))
        cot_z, _ = net.vjp(0.0, z, cot)
        np.testing.assert_allclose(cot_z, cot @ a, rtol=1e-14, atol=1e-14)

    def test_against_central_differences(self):
        rng = np.random.default_rng(8)
        net = MLPField(4, [8], 3, rng=rng)
        z = rng.standard_normal((2, 4))
        cot = rng.standard_normal((2, 3))
        cot_z, cot_p = net.vjp(0.2, z, cot)
        h = 1e-6

        def loss():
            return float(np.sum(cot * net.eval(0.2, z)))

        for b in range(2):
            for i in range(4):
                orig = z[b, i]
                z[b, i] = orig + h
                up = loss()
                z[b, i] = orig - h
                down = loss()
                z[b, i] = orig
                fd = (up - down) / (2.0 * h)
                assert abs(cot_z[b, i] - fd) <= 1e-5 * max(1.0, abs(fd))
        params = net.get_params()
        for j in range(0, net.n_params, 7):
            p = params.copy()
            p[j] += h
            net.set_params(p)
            up = loss()
            p[j] -= 2.0 * h
            net.set_params(p)
            down = loss()
            net.set_params(params)
            fd = (up - down) / (2.0 * h)
            assert abs(cot_p[j] - fd) <= 1e-5 * max(1.0, abs(fd))

    def test_cotangent_shape_rejected(self):
        net = MLPField(3, [4], 2)
        with pytest.raises(ValueError):
            net.vjp(0.0, np.zeros((2, 3)), np.zeros((2, 5)))


class TestClipWeights:
    def test_inside_box_unchanged_bitwise(self):
        net = MLPField(3, [4], 2, rng=np.random.default_rng(9))
        for w in net.weights:
            np.clip(w, -0.5 / w.shape[1], 0.5 / w.shape[1], out=w)
        before = [w.copy() for w in net.weights]
        clip_weights(net)
        for w, b in zip(net.weights, before):
            assert np.array_equal(w, b)

    def test_four_input_entry_clips_to_quarter(self):
        net = MLPField(3, [], 2)  # fan-in 3 state + 1 time = 4
        net.weights[0][:] = 0.0
        net.weights[0][1, 2] = 0.9
        clip_weights(net)
        assert net.weights[0][1, 2] == 0.25

    def test_sup_norm_nonexpansive_after_clip(self):
        rng = np.random.default_rng(10)
        net = MLPField(7, [16, 16], 5, rng=rng)
        for w in net.weights:
            w *= 10.0
        clip_weights(net)
        for w in net.weights:
            for _ in range(40):
                x = rng.standard_normal(w.shape[1])
                assert np.abs(w @ x).max() <= np.abs(x).max() + 1e-12

    def test_idempotent_bitwise(self):
        net = MLPField(4, [8], 4, rng=np.random.default_rng(11))
        for w in net.weights:
            w *= 3.0
        clip_weights(net)
        once = [w.copy() for w in net.weights]
        clip_weights(net)
        for w, b in zip(net.weights, once):
            assert np.array_equal(w, b)

    def test_biases_untouched(self):
        net = MLPField(3, [4], 2, rng=np.random.default_rng(12))
        net.biases[0][:] = 5.0
        clip_weights(net)
        assert np.all(net.biases[0] == 5.0)


class TestNeuralField:
    def make(self, seed=13, x=4, w=2, width=8):
        rng = np.random.default_rng(seed)
        return NeuralField(MLPField(x, [width], x, rng=rng),
                           MLPField(x, [width], x * w, rng=rng))

    def test_shapes(self):
        field = self.make()
        z = np.zeros((3, 4))
        assert field.eval_drift(0.0, z).shape == (3, 4)
        assert field.eval_diffusion(0.0, z).shape == (3, 4, 2)

    def test_counters(self):
        field = self.make()
        z = np.zeros((3, 4))
        field.eval_drift(0.0, z)
        field.eval_drift(0.1, z)
        field.eval_diffusion(0.0, z)
        assert field.drift_evals == 2
        assert field.diffusion_evals == 1
        field.reset_counters()
        assert field.drift_evals == 0

    def test_param_roundtrip_and_manifest(self):
        field = self.make()
        flat = field.get_params()
        assert flat.shape == (field.param_count,)
        z = np.random.default_rng(14).standard_normal((2, 4))
        before = field.eval_drift(0.3, z)
        field.set_params(flat)
        assert np.array_equal(field.eval_drift(0.3, z), before)

    def test_per_sample_param_grads_sum_to_total(self):
        field = self.make()
        rng = np.random.default_rng(15)
        z = rng.standard_normal((3, 4))
        cot = rng.standard_normal((3, 4, 2))
        _, total = field.vjp_diffusion(0.2, z, cot)
        _, per = field.vjp_diffusion(0.2, z, cot, per_sample=True)
        assert per.shape == (3, field.param_count)
        np.testing.assert_allclose(per.sum(axis=0), total, rtol=1e-12,
                                   atol=1e-14)


def _assert_linearize_matches_counted_calls(field, t, z, d_mu, d_sigma):
    """linearize and its pullback reproduce eval_* and vjp_* bitwise."""
    field.reset_counters()
    mu, sigma, pullback = field.linearize(t, z)
    assert (field.drift_evals, field.diffusion_evals) == (1, 1)
    assert (field.drift_vjp_calls, field.diffusion_vjp_calls) == (0, 0)
    d_z, d_params = pullback(d_mu, d_sigma)
    assert (field.drift_vjp_calls, field.diffusion_vjp_calls) == (1, 1)

    assert np.array_equal(mu, field.eval_drift(t, z))
    assert np.array_equal(sigma, field.eval_diffusion(t, z))
    gz_mu, gp_mu = field.vjp_drift(t, z, d_mu)
    gz_sigma, gp_sigma = field.vjp_diffusion(t, z, d_sigma)
    assert np.array_equal(d_z, gz_mu + gz_sigma)
    assert d_params.shape == (field.param_count,)
    assert np.array_equal(d_params, gp_mu + gp_sigma)


class TestLinearize:
    def test_neural_field_matches_eval_and_vjp_bitwise(self):
        rng = np.random.default_rng(16)
        field = NeuralField(
            MLPField(4, [8], 4, final_activation="tanh", rng=rng),
            MLPField(4, [8], 8, final_activation="sigmoid", rng=rng))
        z = rng.standard_normal((3, 4))
        _assert_linearize_matches_counted_calls(
            field, 0.4, z, rng.standard_normal((3, 4)),
            rng.standard_normal((3, 4, 2)))

    def test_base_class_version_on_analytic_field(self):
        a = np.array([[0.5, -0.2], [0.1, 0.4]])
        field = AnalyticField(
            2, 2,
            drift=lambda t, z: np.sin(z @ a.T),
            diffusion=lambda t, z: np.cos(z)[:, :, None] * a[None, :, :],
            drift_vjp_z=lambda t, z, c: (np.cos(z @ a.T) * c) @ a,
            diffusion_vjp_z=lambda t, z, c: -np.sin(z) * (c * a).sum(axis=2),
        )
        rng = np.random.default_rng(17)
        z = rng.standard_normal((3, 2))
        _assert_linearize_matches_counted_calls(
            field, 0.1, z, rng.standard_normal((3, 2)),
            rng.standard_normal((3, 2, 2)))


class TestFdCheck:
    def test_linear_field_near_exact(self):
        a = np.array([[0.5, -0.2], [0.1, 0.4]])
        field = AnalyticField(
            2, 1,
            drift=lambda t, z: z @ a.T,
            diffusion=lambda t, z: np.tile(z[:, :, None] * 0.0 + 1.0, (1, 1, 1)),
            drift_vjp_z=lambda t, z, c: c @ a,
            diffusion_vjp_z=lambda t, z, c: np.zeros_like(z),
        )
        z = np.random.default_rng(16).standard_normal((2, 2))
        rep = fd_check(field, 0.0, z)
        assert rep.max_rel_error <= 1e-9
        assert rep.ok

    def test_width8_lipswish_field(self):
        rng = np.random.default_rng(17)
        field = NeuralField(MLPField(4, [8], 4, rng=rng),
                            MLPField(4, [8], 8, rng=rng))
        z = rng.standard_normal((2, 4))
        rep = fd_check(field, 0.4, z)
        assert rep.ok
        assert rep.max_rel_error <= 1e-5

    def test_corrupted_vjp_is_flagged(self):
        field = AnalyticField(
            1, 1,
            drift=lambda t, z: np.sin(z),
            diffusion=lambda t, z: np.ones((z.shape[0], 1, 1)),
            drift_vjp_z=lambda t, z, c: -c * np.cos(z),  # wrong sign
            diffusion_vjp_z=lambda t, z, c: np.zeros_like(z),
        )
        z = np.ones((1, 1))
        rep = fd_check(field, 0.0, z)
        assert not rep.ok

    def test_vjp_directional_consistency(self):
        rng = np.random.default_rng(18)
        field = NeuralField(MLPField(3, [8], 3, rng=rng),
                            MLPField(3, [8], 6, rng=rng))
        z = rng.standard_normal((2, 3))
        for _ in range(5):
            c = rng.standard_normal((2, 3))
            v = rng.standard_normal((2, 3))
            cot_z, _ = field.vjp_drift(0.1, z, c)
            h = 1e-6
            fwd = (field.eval_drift(0.1, z + h * v)
                   - field.eval_drift(0.1, z - h * v)) / (2.0 * h)
            lhs = float(np.sum(cot_z * v))
            rhs = float(np.sum(c * fwd))
            assert abs(lhs - rhs) <= 1e-5 * max(1.0, abs(rhs))
