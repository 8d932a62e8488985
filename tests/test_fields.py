"""Activation, MLP forward/pullback, clipping, and finite-difference checks."""

import os
import subprocess
import sys
import textwrap
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import revsde
from revsde.fields import (
    _HEADS,
    AnalyticField,
    MLPField,
    NeuralField,
    _flatten,
    _lipswish_derivative,
    _lipswish_forward,
    _time_appended,
    clip_weights,
    fd_check,
    lipswish,
    lipswish_grad,
    sigmoid,
)

HEADS = list(_HEADS)


def _reference(net, t, z):
    """One network's own pass over its `weights` and `biases`, layer by
    layer, with LipSwish hidden layers: (output, tape). The per-network
    reference the fused pass is held to; it also runs a net with no hidden
    layer, whose head is then its only layer."""
    final = _HEADS[net.final_activation][0]
    memos = []
    inputs = [_time_appended(t, np.asarray(z), net.state_dim)]
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = inputs[-1].dot(w.T)
        h += b
        y, memo = (final if i == last else _lipswish_forward)(h)
        memos.append(memo)
        inputs.append(y)
    return inputs[-1], (memos, inputs)


def _reference_pullback(net, tape, cotangent):
    """(cot_z, cot_params) over the tape of one `_reference`: the gradient
    of <cotangent, output>, the parameter part flat and summed over the
    batch."""
    memos, inputs = tape
    n_layers = len(net.weights)
    grads_w = [None] * n_layers
    grads_b = [None] * n_layers
    g = _HEADS[net.final_activation][1](inputs[-1], memos[-1])
    g *= cotangent  # a new array: cotangent and the tape are only read
    for i in reversed(range(n_layers)):
        grads_w[i] = g.T @ inputs[i]
        grads_b[i] = g.sum(axis=0)
        g = g @ net.weights[i]
        if i > 0:
            g *= _lipswish_derivative(inputs[i], memos[i - 1])
    return g[:, :net.state_dim], _flatten(grads_w, grads_b)


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

    def test_grad_is_the_derivative_the_pullback_runs_bitwise(self):
        # A LipSwish hidden layer on [I | 0] under an identity head pulls
        # ones back to lipswish'(z).
        z = np.linspace(-6.0, 6.0, 1000).reshape(250, 4)
        d_z, _ = _drift_vjp(_identity_mlp(4, hidden=1), 0.3, z,
                            np.ones_like(z))
        assert np.array_equal(d_z, lipswish_grad(z))

    def test_derivative_into_a_buffer_allocates_nothing(self):
        # The pullback hands the derivative a scratch buffer; writing it
        # there takes no temporary. 0.909 s + y (1 - s) as written makes a
        # 0.5 MiB LIPSWISH_SCALE * s at this size.
        h = np.random.default_rng(0).standard_normal((128, 512))
        y, s = _lipswish_forward(h.copy())
        out = np.empty_like(h)
        tracemalloc.start()
        try:
            _lipswish_derivative(y, s, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1024
        np.testing.assert_array_equal(out, lipswish_grad(h))

    def test_caller_array_unchanged_and_float_for_float(self):
        x = np.linspace(-6.0, 6.0, 101)
        before = x.copy()
        lipswish(x)
        lipswish_grad(x)
        assert x.tobytes() == before.tobytes()
        assert isinstance(lipswish(0.3), float)
        assert isinstance(lipswish_grad(0.3), float)
        assert lipswish(0.3) == lipswish(np.array([0.3]))[0]


class TestSigmoid:
    GRID = np.linspace(-60.0, 60.0, 120_000).reshape(30_000, 4)

    @staticmethod
    def logistic(h):
        with np.errstate(over="ignore"):
            return 1.0 / (1.0 + np.exp(-h))

    def test_function_head_and_lipswish_memo_match_logistic(self):
        # The sigmoid head and LipSwish's gate are the same tanh form.
        z = self.GRID
        expect = self.logistic(z)
        head, _ = _reference(_identity_mlp(4, "sigmoid"), 0.3, z)
        _, (memos, _) = _reference(_identity_mlp(4, "lipswish"), 0.3, z)
        for got in (sigmoid(z), head, memos[-1]):
            assert np.abs(got - expect).max() <= 4.5e-16

    def test_values_in_unit_interval(self):
        h = np.concatenate([self.GRID.ravel(), [-1e300, 1e300]])
        s = sigmoid(h)
        assert s.min() == 0.0 and s.max() == 1.0

    def test_writes_only_its_buffer(self):
        h = self.GRID.copy()
        s = sigmoid(h)
        assert h.tobytes() == self.GRID.tobytes()
        assert sigmoid(h, out=h) is h
        assert h.tobytes() == s.tobytes()


def _identity_mlp(dim, final_activation="identity", hidden=0):
    """A net whose first layer passes the state through and ignores time,
    then `hidden` LipSwish layers of width dim, each later weight I; all
    biases zero. With hidden=0 it is one linear layer under its head."""
    net = MLPField(dim, [dim] * hidden, dim, final_activation=final_activation)
    net.weights[0] = np.concatenate([np.eye(dim), np.zeros((dim, 1))], axis=1)
    for i in range(1, hidden + 1):
        net.weights[i] = np.eye(dim)
    return net


def _drift_vjp(drift_net, t, z, cot):
    """The drift block of NeuralField.vjp's pullback of (cot, 0)."""
    dim = drift_net.state_dim
    field = NeuralField(drift_net, MLPField(dim, [4], dim))
    _, _, d_z, d_params = field.vjp(t, z, cot, np.zeros((len(z), dim, 1)))
    return d_z, d_params[:drift_net.n_params]


class TestMLPForward:
    """The network's forward pass: the reference, and the field's drift."""

    def test_zero_parameters_give_zero_output(self):
        net = MLPField(3, [8], 6, rng=np.random.default_rng(1))
        net.set_params(np.zeros(net.n_params))
        z = np.random.default_rng(2).standard_normal((4, 3))
        assert np.array_equal(_reference(net, 0.7, z)[0], np.zeros((4, 6)))
        _, sigma = NeuralField(MLPField(3, [8], 3), net).evaluate(0.7, z)
        assert np.array_equal(sigma, np.zeros((4, 3, 2)))

    def test_identity_linear_layer(self):
        net = _identity_mlp(3)
        z = np.random.default_rng(3).standard_normal((6, 3))
        np.testing.assert_array_equal(_reference(net, 0.5, z)[0], z)

    def test_against_handwritten_forward(self):
        # Independent re-implementation with explicit loops, against the
        # reference and against the fused pass's drift.
        rng = np.random.default_rng(7)
        net = MLPField(3, [8], 3, final_activation="tanh", rng=rng)
        field = NeuralField(net, MLPField(3, [4], 6, rng=rng))
        z = rng.standard_normal((5, 3))
        t = 0.37
        got = [_reference(net, t, z)[0], field.evaluate(t, z)[0]]

        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        expect = np.empty((5, 3))
        for b in range(5):
            x = np.append(z[b], t)
            h = np.empty(8)
            for o in range(8):
                acc = net.biases[0][o]
                for i in range(4):
                    acc += net.weights[0][o, i] * x[i]
                h[o] = 0.909 * acc * sig(acc)
            for o in range(3):
                acc = net.biases[1][o]
                for i in range(8):
                    acc += net.weights[1][o, i] * h[i]
                expect[b, o] = np.tanh(acc)
        for mu in got:
            np.testing.assert_allclose(mu, expect, rtol=1e-12, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        field = NeuralField(MLPField(3, [4], 3), MLPField(3, [4], 6))
        with pytest.raises(ValueError, match=r"state must be \(batch, 3\)"):
            field.evaluate(0.0, np.zeros((2, 5)))

    @pytest.mark.parametrize("args, message", [
        ((0, [4], 2), "state_dim must be an int >= 1, got 0"),
        ((2.5, [4], 2), "state_dim must be an int >= 1, got 2.5"),
        ((3, [4], 0), "out_dim must be an int >= 1, got 0"),
        ((3, [4], True), "out_dim must be an int >= 1, got True"),
        ((3, [0], 2), "hidden[0] must be an int >= 1, got 0"),
        ((3, [True], 2), "hidden[0] must be an int >= 1, got True"),
        ((3, [4, -1], 2), "hidden[1] must be an int >= 1, got -1"),
        ((3, 0, 2), "hidden[0] must be an int >= 1, got 0"),
    ], ids=["zero-state", "fractional-state", "zero-out", "bool-out",
            "zero-width", "bool-width", "negative-second-width",
            "zero-int-hidden"])
    def test_bad_shape_rejected(self, args, message):
        with pytest.raises(ValueError) as err:
            MLPField(*args)
        assert str(err.value) == message

    def test_integral_scalar_hidden_is_one_layer(self):
        # Any integral scalar width is wrapped, as a listed one is checked.
        net = MLPField(3, np.int64(4), 2)
        assert [w.shape for w in net.weights] == [(4, 4), (2, 4)]

    def test_unknown_head_rejected(self):
        with pytest.raises(ValueError) as err:
            MLPField(3, [4], 2, final_activation="relu")
        assert str(err.value) == (
            "final_activation must be one of 'lipswish', 'tanh', 'sigmoid', "
            "'identity', got 'relu'")


class TestMLPVjp:
    """The MLP's VJP: the drift block of NeuralField.vjp's pullback, and
    the reference's pullback for a net with no hidden layer."""

    def test_zero_cotangent_gives_zero_gradients(self):
        net = MLPField(3, [8], 3, rng=np.random.default_rng(4))
        z = np.random.default_rng(5).standard_normal((2, 3))
        cot_z, cot_p = _drift_vjp(net, 0.1, z, np.zeros((2, 3)))
        assert not cot_z.any()
        assert not cot_p.any()

    def test_linear_layer_adjoint_is_transpose(self):
        net = _identity_mlp(3)
        rng = np.random.default_rng(6)
        a = rng.standard_normal((3, 3))
        net.weights[0][:, :3] = a
        z = rng.standard_normal((4, 3))
        cot = rng.standard_normal((4, 3))
        cot_z, _ = _reference_pullback(net, _reference(net, 0.0, z)[1], cot)
        np.testing.assert_allclose(cot_z, cot @ a, rtol=1e-14, atol=1e-14)

    def test_against_central_differences(self):
        rng = np.random.default_rng(8)
        net = MLPField(4, [8], 4, rng=rng)
        z = rng.standard_normal((2, 4))
        cot = rng.standard_normal((2, 4))
        cot_z, cot_p = _drift_vjp(net, 0.2, z, cot)
        h = 1e-6

        def loss():
            return float(np.sum(cot * _reference(net, 0.2, z)[0]))

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
        net = MLPField(3, [4], 3)
        with pytest.raises(ValueError, match="cotangent shape"):
            _drift_vjp(net, 0.0, np.zeros((2, 3)), np.zeros((2, 5)))


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


def _counters(field):
    return (field.drift_evals, field.diffusion_evals, field.drift_vjp_calls,
            field.diffusion_vjp_calls)


def _assert_vjp_matches_counted_calls(field, t, z, d_mu, d_sigma):
    """vjp gives evaluate's and eval_*'s values bitwise, in new writable
    arrays, and the sum of vjp_drift's and vjp_diffusion's gradients
    bitwise; each call counts what it runs."""
    field.reset_counters()
    got = field.vjp(t, z, d_mu, d_sigma)
    assert _counters(field) == (1, 1, 1, 1)
    assert len(got) == 4
    mu, sigma, d_z, d_params = got
    values = field.evaluate(t, z)
    assert _counters(field) == (2, 2, 1, 1)
    for a, b in zip((mu, sigma), values):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert a.flags.writeable
        assert not np.shares_memory(a, b) and not np.shares_memory(a, z)
    assert np.array_equal(mu, field.eval_drift(t, z))
    assert np.array_equal(sigma, field.eval_diffusion(t, z))
    field.reset_counters()
    gz_mu, gp_mu = field.vjp_drift(t, z, d_mu)
    assert _counters(field) == (0, 0, 1, 0)
    gz_sigma, gp_sigma = field.vjp_diffusion(t, z, d_sigma)
    assert _counters(field) == (0, 0, 1, 1)
    assert np.array_equal(d_z, gz_mu + gz_sigma)
    assert d_params.shape == (field.param_count,)
    assert np.array_equal(d_params, gp_mu + gp_sigma)


class TestLinearize:
    """A field's linearization at a point, as its one derivative method,
    `vjp`, gives it."""

    def test_neural_field_matches_eval_and_vjp_bitwise(self):
        rng = np.random.default_rng(16)
        field = NeuralField(
            MLPField(4, [8], 4, final_activation="tanh", rng=rng),
            MLPField(4, [8], 8, final_activation="sigmoid", rng=rng))
        z = rng.standard_normal((3, 4))
        _assert_vjp_matches_counted_calls(
            field, 0.4, z, rng.standard_normal((3, 4)),
            rng.standard_normal((3, 4, 2)))

    @settings(max_examples=30, deadline=None)
    @given(x=st.integers(1, 4), w=st.integers(1, 3), batch=st.integers(1, 4),
           hidden=st.lists(st.integers(1, 6), min_size=1, max_size=2),
           heads=st.tuples(*[st.sampled_from(HEADS)] * 2),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_random_neural_fields_match_eval_and_vjp_bitwise(
            self, x, w, batch, hidden, heads, seed):
        rng = np.random.default_rng(seed)
        field = NeuralField(
            MLPField(x, hidden, x, final_activation=heads[0], rng=rng),
            MLPField(x, hidden, x * w, final_activation=heads[1], rng=rng))
        _assert_vjp_matches_counted_calls(
            field, float(rng.uniform(-1.0, 1.0)),
            rng.standard_normal((batch, x)), rng.standard_normal((batch, x)),
            rng.standard_normal((batch, x, w)))

    @pytest.mark.parametrize("head", HEADS)
    def test_inputs_and_values_never_written(self, head):
        # Layers work in place and the pullback reuses the forward pass's
        # scratch; the caller's z and cotangents and the (mu, sigma) a vjp
        # returned must not move under a second vjp.
        rng = np.random.default_rng(21)
        field = NeuralField(
            MLPField(3, [6], 3, final_activation=head, rng=rng),
            MLPField(3, [6], 6, final_activation=head, rng=rng))
        z = rng.standard_normal((5, 3))
        d_mu = rng.standard_normal((5, 3))
        d_sigma = rng.standard_normal((5, 3, 2))
        inputs = [a.copy() for a in (z, d_mu, d_sigma)]
        first = field.vjp(0.2, z, d_mu, d_sigma)
        values = [a.copy() for a in first]
        second = field.vjp(0.2, z, d_mu, d_sigma)
        for got, want in zip([z, d_mu, d_sigma, *first, *second],
                             inputs + values + values, strict=True):
            assert got.tobytes() == want.tobytes()

    def test_analytic_field_names_a_missing_vjp_closure(self):
        def field(**vjps):
            return AnalyticField(
                1, 1, drift=lambda t, z: np.sin(z),
                diffusion=lambda t, z: np.ones((z.shape[0], 1, 1)), **vjps)

        z, c = np.ones((1, 1)), np.ones((1, 1))
        with pytest.raises(NotImplementedError, match="drift_vjp_z"):
            field().vjp_drift(0.0, z, c)
        with pytest.raises(NotImplementedError, match="diffusion_vjp_z"):
            field(drift_vjp_z=lambda t, z, c: np.cos(z) * c).vjp_drift(
                0.0, z, c)

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
        _assert_vjp_matches_counted_calls(
            field, 0.1, z, rng.standard_normal((3, 2)),
            rng.standard_normal((3, 2, 2)))

    def test_vjp_values_are_new_where_the_closures_return_views(self):
        # Identity drift returns its input and the diffusion a read-only
        # broadcast view: vjp still returns new arrays, which the reversible
        # sweep's round-trip check writes into.
        field = AnalyticField(
            2, 1, drift=lambda t, z: z,
            diffusion=lambda t, z: np.broadcast_to(0.5, (len(z), 2, 1)),
            drift_vjp_z=lambda t, z, c: c,
            diffusion_vjp_z=lambda t, z, c: np.zeros_like(z))
        rng = np.random.default_rng(5)
        _assert_vjp_matches_counted_calls(
            field, 0.2, rng.standard_normal((3, 2)),
            rng.standard_normal((3, 2)), rng.standard_normal((3, 2, 1)))


def _per_network(field, t, z, d_mu, d_sigma):
    """(mu, sigma, d_z, d_params) from each network's own `_reference` pass
    and pullback: the reference the fused pass is held to."""
    mu, mu_tape = _reference(field.drift_net, t, z)
    flat_sigma, sigma_tape = _reference(field.diffusion_net, t, z)
    gz_mu, gp_mu = _reference_pullback(field.drift_net, mu_tape, d_mu)
    gz_sigma, gp_sigma = _reference_pullback(
        field.diffusion_net, sigma_tape, d_sigma.reshape(z.shape[0], -1))
    return (mu, flat_sigma.reshape(d_sigma.shape), gz_mu + gz_sigma,
            np.concatenate([gp_mu, gp_sigma]))


def _assert_fused_matches_per_network(field, t, z, d_mu, d_sigma):
    # d_z is summed per network: bitwise the sum of the one-sided
    # pullbacks, which the counted calls' check asserts.
    _assert_vjp_matches_counted_calls(field, t, z, d_mu, d_sigma)
    # A stacked gemm need not round like two separate ones.
    for a, b in zip(field.vjp(t, z, d_mu, d_sigma),
                    _per_network(field, t, z, d_mu, d_sigma)):
        assert a.shape == b.shape
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-13)


class TestFusedPass:
    @settings(max_examples=40, deadline=None)
    @given(x=st.integers(1, 4), w=st.integers(1, 3), batch=st.integers(1, 5),
           hidden=st.tuples(*[st.lists(st.integers(1, 6), min_size=1,
                                       max_size=2)] * 2),
           heads=st.tuples(*[st.sampled_from(HEADS)] * 2),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_per_network_passes(self, x, w, batch, hidden, heads,
                                        seed):
        # Depths and heads are drawn per network, so the two networks'
        # rows of the stacked hidden state may feed layers of any depth.
        rng = np.random.default_rng(seed)
        field = NeuralField(
            MLPField(x, hidden[0], x, final_activation=heads[0], rng=rng),
            MLPField(x, hidden[1], x * w, final_activation=heads[1],
                     rng=rng))
        for net in (field.drift_net, field.diffusion_net):
            for b in net.biases:
                b += rng.standard_normal(b.shape)
        _assert_fused_matches_per_network(
            field, float(rng.uniform(-1.0, 1.0)),
            rng.standard_normal((batch, x)), rng.standard_normal((batch, x)),
            rng.standard_normal((batch, x, w)))

    @pytest.mark.parametrize("head", HEADS)
    def test_linear_drift_beside_a_hidden_diffusion(self, head):
        # A network whose head is its first layer has no LipSwish rows in
        # the stacked hidden state: the field refuses it, either side, and
        # names the network and the cause.
        rng = np.random.default_rng(23)
        linear = MLPField(4, [], 4, final_activation=head, rng=rng)
        hidden = MLPField(4, [4], 4, final_activation=head, rng=rng)
        for name, nets in (("drift", (linear, hidden)),
                           ("diffusion", (hidden, linear))):
            with pytest.raises(ValueError,
                               match=f"^the {name} network has no hidden "
                                     f"layer; a NeuralField needs at least "
                                     f"one LipSwish hidden layer"):
                NeuralField(*nets)

    def test_stacked_weights_follow_set_params_and_clip(self):
        rng = np.random.default_rng(24)
        field = NeuralField(MLPField(3, [5], 3, rng=rng),
                            MLPField(3, [4], 6, final_activation="sigmoid",
                                     rng=rng))
        z = rng.standard_normal((4, 3))
        d_mu, d_sigma = rng.standard_normal((4, 3)), rng.standard_normal(
            (4, 3, 2))
        before = field.evaluate(0.2, z)[0]
        field.set_params(5.0 * rng.standard_normal(field.param_count))
        assert not np.array_equal(field.evaluate(0.2, z)[0], before)
        _assert_fused_matches_per_network(field, 0.2, z, d_mu, d_sigma)
        field.clip()
        _assert_fused_matches_per_network(field, 0.2, z, d_mu, d_sigma)
        field.drift_net.weights[0] = rng.standard_normal((5, 4))
        field.diffusion_net.weights[0] *= 0.5
        _assert_fused_matches_per_network(field, 0.2, z, d_mu, d_sigma)


def _scratch_field(drift_hidden=(6, 5)):
    rng = np.random.default_rng(25)
    return NeuralField(MLPField(3, list(drift_hidden), 3, rng=rng),
                       MLPField(3, [6], 6, final_activation="sigmoid",
                                rng=rng))


class TestScratch:
    def test_threads_sharing_a_field_match_one_thread_bitwise(self):
        # Each thread has its own scratch; a shared one would let a thread
        # overwrite another's cotangents mid-vjp. More threads than
        # cores and a short switch interval force interleaving.
        field = _scratch_field()
        rng = np.random.default_rng(26)
        inputs = [(float(t), rng.standard_normal((8, 3)),
                   rng.standard_normal((8, 3)), rng.standard_normal((8, 3, 2)))
                  for t in rng.uniform(0.0, 1.0, 40)]

        def run():
            out = []
            for t, z, d_mu, d_sigma in inputs:
                out.append((*field.evaluate(t, z),
                            *field.vjp(t, z, d_mu, d_sigma),
                            *field.vjp_drift(t, z, d_mu)))
            return out

        expected = run()
        got = {}
        barrier = threading.Barrier(4)

        def worker(k):
            barrier.wait()
            got[k] = run()

        threads = [threading.Thread(target=worker, args=(k,))
                   for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(got) == [0, 1, 2, 3]
        for results in got.values():
            for row, want in zip(results, expected, strict=True):
                assert all(np.array_equal(a, b) for a, b in zip(row, want))

    @pytest.mark.parametrize("drift_hidden", [(6, 5), (4,)])
    def test_results_share_no_memory_across_calls(self, drift_hidden):
        # The scratch is reused per batch size; nothing returned may live
        # in it, whatever the order of batch sizes, not even a head that
        # reads the stacked hidden state directly.
        field = _scratch_field(drift_hidden)
        rng = np.random.default_rng(27)
        results = []
        for batch in (2, 7, 2, 7, 7, 2):
            z = rng.standard_normal((batch, 3))
            d_mu = rng.standard_normal((batch, 3))
            d_sigma = rng.standard_normal((batch, 3, 2))
            results += [*field.evaluate(0.5, z),
                        *field.vjp(0.5, z, d_mu, d_sigma),
                        *field.vjp_diffusion(0.5, z, d_sigma)]
        for i, a in enumerate(results):
            for b in results[:i]:
                assert not np.shares_memory(a, b)

    @pytest.mark.parametrize("make_field", [
        _scratch_field,
        lambda: AnalyticField(
            3, 2, drift=lambda t, z: np.sin(t * z),
            diffusion=lambda t, z: np.cos(z)[:, :, None] * np.ones(2),
            drift_vjp_z=lambda t, z, c: t * np.cos(t * z) * c,
            diffusion_vjp_z=lambda t, z, c: -np.sin(z) * c.sum(axis=2))])
    def test_vjp_is_independent_of_later_calls(self, make_field):
        # Calls at another point, at the same batch size and so on the
        # same scratch, leave a vjp's results and its repeat bitwise
        # unchanged.
        field = make_field()
        rng = np.random.default_rng(28)
        z_a, z_b, d_mu, d_mu_b = rng.standard_normal((4, 6, 3))
        d_sigma, d_sigma_b = rng.standard_normal((2, 6, 3, 2))
        first = field.vjp(0.3, z_a, d_mu, d_sigma)
        want = [a.tobytes() for a in first]
        field.vjp(0.7, z_b, d_mu_b, d_sigma_b)
        field.evaluate(0.7, z_b)
        field.vjp_drift(0.7, z_b, d_mu_b)
        assert [a.tobytes() for a in first] == want
        again = field.vjp(0.3, z_a, d_mu, d_sigma)
        assert [a.tobytes() for a in again] == want


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

    @pytest.mark.parametrize("head", HEADS)
    def test_every_head_over_lipswish_hidden_layers(self, head):
        # The pullback reads each derivative from what the forward pass
        # computed.
        rng = np.random.default_rng(19)
        field = NeuralField(
            MLPField(3, [6], 3, final_activation=head, rng=rng),
            MLPField(3, [6], 6, final_activation=head, rng=rng))
        rep = fd_check(field, 0.3, rng.standard_normal((2, 3)))
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

    def test_corrupted_pullback_is_flagged(self, monkeypatch):
        # fd_check reaches the pullback the solvers' vjp runs.
        rng = np.random.default_rng(17)
        field = NeuralField(MLPField(4, [8], 4, rng=rng),
                            MLPField(4, [8], 8, rng=rng))
        z = rng.standard_normal((2, 4))
        pullback = NeuralField._pullback

        def corrupted(self, tape, d_mu, d_sigma, buffers):
            d_z, d_params = pullback(self, tape, d_mu, d_sigma, buffers)
            return 1.01 * d_z, d_params

        assert fd_check(field, 0.4, z).ok
        monkeypatch.setattr(NeuralField, "_pullback", corrupted)
        assert not fd_check(field, 0.4, z).ok

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


def test_imports_and_differentiates_without_scipy():
    code = textwrap.dedent("""
        import sys
        sys.modules["scipy"] = None  # any scipy import now fails
        import numpy as np
        from revsde import MLPField, NeuralField
        field = NeuralField(
            MLPField(2, [4], 2, final_activation="tanh"),
            MLPField(2, [4], 4, final_activation="sigmoid"))
        mu, sigma, d_z, d_params = field.vjp(
            0.1, np.ones((3, 2)), np.ones((3, 2)), np.ones((3, 2, 2)))
        assert d_z.shape == (3, 2) and d_params.shape == (field.param_count,)
    """)
    src = str(Path(revsde.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
