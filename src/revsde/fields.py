"""Drift/diffusion vector fields with hand-written reverse-mode gradients.

No autodiff framework is used: the step-level gradient machinery in
`solvers` only ever needs vector-Jacobian products of the drift and
diffusion with respect to the state and the (flat) parameter vector, and
those are small, fixed computations that are written out here and verified
against central finite differences by `fd_check`.

`VectorField.linearize(t, z)` returns (mu, sigma, pullback): the field's
values at (t, z) and one function pulling a (d_mu, d_sigma) cotangent back
to (d_z, d_params). The reversible adjoint and the unrolled oracle pull
back only through this; a `NeuralField` keeps each network's forward tape
for the pullback instead of re-running the forward pass per VJP.

Conventions, shared with the solvers:
  * states are batch-major arrays of shape (batch, state_dim);
  * diffusion outputs have shape (batch, state_dim, noise_dim), row-major
    in (state, noise);
  * time enters a network as one extra input coordinate appended to the
    state;
  * parameter vectors are flat float64 arrays, weights-then-bias per layer,
    drift block before diffusion block in combined fields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit as sigmoid

LIPSWISH_SCALE = 0.909


def lipswish(x):
    """Smooth activation with Lipschitz constant one: 0.909 x sigmoid(x)."""
    return LIPSWISH_SCALE * x * sigmoid(x)


def lipswish_grad(x):
    """Analytic derivative of lipswish: 0.909 s(x) (1 + x (1 - s(x)))."""
    s = sigmoid(x)
    return LIPSWISH_SCALE * s * (1.0 + x * (1.0 - s))


def _tanh_grad(x):
    t = np.tanh(x)
    return 1.0 - t * t


def _sigmoid_grad(x):
    s = sigmoid(x)
    return s * (1.0 - s)


_ACTIVATIONS = {
    "lipswish": (lipswish, lipswish_grad),
    "tanh": (np.tanh, _tanh_grad),
    "sigmoid": (sigmoid, _sigmoid_grad),
    "identity": (lambda x: x, lambda x: np.ones_like(x)),
}


class MLPField:
    """Fully connected network from (t, state) to a flat output vector.

    Weights are stored (fan_out, fan_in); a layer computes x @ W.T + b.
    The hidden activation applies to all but the last layer; the final
    layer gets `final_activation` ("identity" for a plain linear head).
    """

    def __init__(self, state_dim, hidden, out_dim, *, activation="lipswish",
                 final_activation="identity", rng=None):
        if isinstance(hidden, int):
            hidden = [hidden]
        self.state_dim = int(state_dim)
        self.out_dim = int(out_dim)
        self.activation = activation
        self.final_activation = final_activation
        self._act, self._act_grad = _ACTIVATIONS[activation]
        self._final, self._final_grad = _ACTIVATIONS[final_activation]
        if rng is None:
            rng = np.random.default_rng(0)
        widths = [self.state_dim + 1, *hidden, self.out_dim]
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            scale = 1.0 / np.sqrt(fan_in)
            self.weights.append(rng.standard_normal((fan_out, fan_in)) * scale)
            self.biases.append(np.zeros(fan_out))

    @property
    def n_params(self):
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    def eval(self, t, z):
        """Forward pass; z is (batch, state_dim), returns (batch, out_dim)."""
        y, _ = self._forward(t, np.asarray(z))
        return y

    def vjp(self, t, z, cotangent, per_sample=False):
        """Pull an output cotangent back to (state, parameters).

        Returns (cot_z, cot_params) where cot_params is the flat gradient
        of <cotangent, eval(t, z)>, summed over the batch, or per-sample
        with shape (batch, n_params) when `per_sample` is set.
        """
        _, tape = self._forward(t, np.asarray(z))
        return self._backward(tape, cotangent, per_sample)

    def _backward(self, tape, cotangent, per_sample=False):
        """Reverse pass of `vjp` over the tape of one `_forward` call."""
        pre, inputs = tape
        batch = inputs[0].shape[0]
        cot = np.asarray(cotangent)
        if cot.shape != (batch, self.out_dim):
            raise ValueError(
                f"cotangent shape {cot.shape} does not match output "
                f"({batch}, {self.out_dim})")
        n_layers = len(self.weights)
        grads_w = [None] * n_layers
        grads_b = [None] * n_layers
        g = cot * self._final_grad(pre[-1])
        for i in reversed(range(n_layers)):
            if per_sample:
                grads_w[i] = np.einsum("bo,bi->boi", g, inputs[i])
                grads_b[i] = g
            else:
                grads_w[i] = g.T @ inputs[i]
                grads_b[i] = g.sum(axis=0)
            g = g @ self.weights[i]
            if i > 0:
                g = g * self._act_grad(pre[i - 1])
        cot_z = g[:, :self.state_dim]  # drop the time column
        if per_sample:
            flat = np.concatenate(
                [np.concatenate([w.reshape(batch, -1), b], axis=1)
                 for w, b in zip(grads_w, grads_b)], axis=1)
        else:
            flat = np.concatenate(
                [np.concatenate([w.ravel(), b])
                 for w, b in zip(grads_w, grads_b)])
        return cot_z, flat

    def _forward(self, t, z):
        if z.ndim != 2 or z.shape[1] != self.state_dim:
            raise ValueError(
                f"state must be (batch, {self.state_dim}), got {z.shape}")
        x = np.concatenate([z, np.full((z.shape[0], 1), float(t))], axis=1)
        pre = []
        inputs = [x]
        n_layers = len(self.weights)
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = inputs[-1] @ w.T + b
            pre.append(h)
            if i == n_layers - 1:
                inputs.append(self._final(h))
            else:
                inputs.append(self._act(h))
        return inputs[-1], (pre, inputs)

    def get_params(self):
        """Flatten all parameters, weights-then-bias per layer."""
        return np.concatenate(
            [np.concatenate([w.ravel(), b])
             for w, b in zip(self.weights, self.biases)])

    def set_params(self, flat):
        flat = np.asarray(flat, dtype=float)
        if flat.shape != (self.n_params,):
            raise ValueError(f"expected {self.n_params} parameters, got {flat.shape}")
        pos = 0
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            self.weights[i] = flat[pos:pos + w.size].reshape(w.shape).copy()
            pos += w.size
            self.biases[i] = flat[pos:pos + b.size].copy()
            pos += b.size


def clip_weights(net: MLPField):
    """Clamp every weight of each layer to [-1/fan_in, 1/fan_in] in place.

    Keeps each linear map non-expansive in the sup norm; biases are left
    untouched. Idempotent.
    """
    for w in net.weights:
        bound = 1.0 / w.shape[1]
        np.clip(w, -bound, bound, out=w)


class VectorField:
    """Drift/diffusion pair with VJPs and evaluation counters.

    Subclasses provide _drift, _diffusion, _drift_vjp, _diffusion_vjp; the
    public wrappers count calls so solvers can assert their per-step
    evaluation budgets. Evaluation is pure; parameter mutation (set_params,
    clipping) requires exclusive access.
    """

    state_dim: int
    noise_dim: int
    param_count: int = 0

    def __init__(self):
        self.reset_counters()

    def reset_counters(self):
        self.drift_evals = 0
        self.diffusion_evals = 0
        self.drift_vjp_calls = 0
        self.diffusion_vjp_calls = 0

    def eval_drift(self, t, z):
        self.drift_evals += 1
        return self._drift(t, z)

    def eval_diffusion(self, t, z):
        self.diffusion_evals += 1
        return self._diffusion(t, z)

    def vjp_drift(self, t, z, cotangent, per_sample=False):
        self.drift_vjp_calls += 1
        return self._drift_vjp(t, z, cotangent, per_sample)

    def vjp_diffusion(self, t, z, cotangent, per_sample=False):
        self.diffusion_vjp_calls += 1
        return self._diffusion_vjp(t, z, cotangent, per_sample)

    def linearize(self, t, z):
        """Evaluate (mu, sigma) at (t, z) and return their joint pullback.

        pullback(d_mu, d_sigma) returns (d_z, d_params), the gradient of
        <d_mu, mu> + <d_sigma, sigma>, and counts one VJP of each kind.
        """
        mu = self.eval_drift(t, z)
        sigma = self.eval_diffusion(t, z)

        def pullback(d_mu, d_sigma):
            gz_mu, gp_mu = self.vjp_drift(t, z, d_mu)
            gz_sigma, gp_sigma = self.vjp_diffusion(t, z, d_sigma)
            return gz_mu + gz_sigma, gp_mu + gp_sigma

        return mu, sigma, pullback

    def get_params(self):
        return np.zeros(0)

    def set_params(self, flat):
        if len(np.asarray(flat)) != 0:
            raise ValueError("field has no parameters")

    def _zero_param_grad(self, batch, per_sample):
        if per_sample:
            return np.zeros((batch, self.param_count))
        return np.zeros(self.param_count)


class NeuralField(VectorField):
    """Vector field whose drift and diffusion are MLPs.

    The flat parameter vector is the drift network's parameters followed by
    the diffusion network's. Diffusion output is reshaped row-major to
    (batch, state_dim, noise_dim).
    """

    def __init__(self, drift_net: MLPField, diffusion_net: MLPField):
        if drift_net.state_dim != diffusion_net.state_dim:
            raise ValueError("drift and diffusion disagree on state_dim")
        if drift_net.out_dim != drift_net.state_dim:
            raise ValueError("drift output must match state_dim")
        if diffusion_net.out_dim % drift_net.state_dim != 0:
            raise ValueError("diffusion output must be state_dim x noise_dim")
        self.drift_net = drift_net
        self.diffusion_net = diffusion_net
        self.state_dim = drift_net.state_dim
        self.noise_dim = diffusion_net.out_dim // drift_net.state_dim
        self.param_count = drift_net.n_params + diffusion_net.n_params
        super().__init__()

    def _drift(self, t, z):
        return self.drift_net.eval(t, z)

    def _diffusion(self, t, z):
        out = self.diffusion_net.eval(t, z)
        return out.reshape(z.shape[0], self.state_dim, self.noise_dim)

    def _drift_vjp(self, t, z, cotangent, per_sample):
        cot_z, g = self.drift_net.vjp(t, z, cotangent, per_sample=per_sample)
        pad_shape = ((z.shape[0], self.diffusion_net.n_params)
                     if per_sample else (self.diffusion_net.n_params,))
        params = np.concatenate([g, np.zeros(pad_shape)], axis=-1)
        return cot_z, params

    def _diffusion_vjp(self, t, z, cotangent, per_sample):
        cot = np.asarray(cotangent).reshape(z.shape[0], -1)
        cot_z, g = self.diffusion_net.vjp(t, z, cot, per_sample=per_sample)
        pad_shape = ((z.shape[0], self.drift_net.n_params)
                     if per_sample else (self.drift_net.n_params,))
        params = np.concatenate([np.zeros(pad_shape), g], axis=-1)
        return cot_z, params

    def linearize(self, t, z):
        """As VectorField.linearize, pulling back through each MLP's tape.

        One forward pass per network serves both the values and the
        pullback, and the parameter gradient needs no zero padding.
        """
        self.drift_evals += 1
        self.diffusion_evals += 1
        mu, drift_tape = self.drift_net._forward(t, z)
        flat_sigma, diffusion_tape = self.diffusion_net._forward(t, z)
        batch = z.shape[0]

        def pullback(d_mu, d_sigma):
            self.drift_vjp_calls += 1
            self.diffusion_vjp_calls += 1
            gz_mu, gp_mu = self.drift_net._backward(drift_tape, d_mu)
            gz_sigma, gp_sigma = self.diffusion_net._backward(
                diffusion_tape, np.asarray(d_sigma).reshape(batch, -1))
            return gz_mu + gz_sigma, np.concatenate([gp_mu, gp_sigma])

        return (mu, flat_sigma.reshape(batch, self.state_dim, self.noise_dim),
                pullback)

    def get_params(self):
        return np.concatenate([self.drift_net.get_params(),
                               self.diffusion_net.get_params()])

    def set_params(self, flat):
        flat = np.asarray(flat, dtype=float)
        nd = self.drift_net.n_params
        self.drift_net.set_params(flat[:nd])
        self.diffusion_net.set_params(flat[nd:])

    def clip(self):
        clip_weights(self.drift_net)
        clip_weights(self.diffusion_net)


class AnalyticField(VectorField):
    """Parameter-free field defined by closures with known derivatives.

    drift(t, z) -> (batch, x); diffusion(t, z) -> (batch, x, w);
    drift_vjp_z(t, z, cot) and diffusion_vjp_z(t, z, cot) return the state
    cotangent for cot of the matching output shape.
    """

    def __init__(self, state_dim, noise_dim, drift, diffusion,
                 drift_vjp_z=None, diffusion_vjp_z=None):
        self.state_dim = state_dim
        self.noise_dim = noise_dim
        self.param_count = 0
        self._drift_fn = drift
        self._diffusion_fn = diffusion
        self._drift_vjp_fn = drift_vjp_z
        self._diffusion_vjp_fn = diffusion_vjp_z
        super().__init__()

    def _drift(self, t, z):
        return self._drift_fn(t, z)

    def _diffusion(self, t, z):
        return self._diffusion_fn(t, z)

    def _drift_vjp(self, t, z, cotangent, per_sample):
        if self._drift_vjp_fn is None:
            raise NotImplementedError("no drift derivative supplied")
        return (self._drift_vjp_fn(t, z, cotangent),
                self._zero_param_grad(z.shape[0], per_sample))

    def _diffusion_vjp(self, t, z, cotangent, per_sample):
        if self._diffusion_vjp_fn is None:
            raise NotImplementedError("no diffusion derivative supplied")
        return (self._diffusion_vjp_fn(t, z, cotangent),
                self._zero_param_grad(z.shape[0], per_sample))


@dataclass
class FdReport:
    """Worst relative discrepancy between VJPs and finite differences."""

    max_rel_error: float
    tolerance: float
    ok: bool


def fd_check(field: VectorField, t, z, tolerance=1e-5, step=1e-6):
    """Compare the field's VJPs against central finite differences.

    Probes every state coordinate and every parameter with a fixed random
    cotangent, for both drift and diffusion. Relative errors use an
    absolute floor of 1e-8 so near-zero entries do not blow up the ratio.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    z = np.asarray(z, dtype=float)
    batch = z.shape[0]
    rng = np.random.default_rng(12345)
    floor = 1e-8
    worst = 0.0

    probes = [
        ("drift", field.eval_drift, field.vjp_drift,
         rng.standard_normal((batch, field.state_dim))),
        ("diffusion", field.eval_diffusion, field.vjp_diffusion,
         rng.standard_normal((batch, field.state_dim, field.noise_dim))),
    ]
    params = field.get_params()
    for _, fwd, vjp, cot in probes:
        cot_z, cot_p = vjp(t, z, cot)

        def directional(perturb, restore):
            perturb(step)
            up = float(np.sum(cot * fwd(t, z)))
            restore()
            perturb(-step)
            down = float(np.sum(cot * fwd(t, z)))
            restore()
            return (up - down) / (2.0 * step)

        for b in range(batch):
            for i in range(field.state_dim):
                def bump(eps, b=b, i=i):
                    z[b, i] += eps

                def unbump(b=b, i=i, orig=z[b, i]):
                    z[b, i] = orig

                fd = directional(bump, unbump)
                an = float(cot_z[b, i])
                worst = max(worst, abs(an - fd) / max(abs(an), abs(fd), floor))
        for j in range(field.param_count):
            def bump(eps, j=j):
                p = params.copy()
                p[j] += eps
                field.set_params(p)

            def unbump():
                field.set_params(params)

            fd = directional(bump, unbump)
            an = float(cot_p[j])
            worst = max(worst, abs(an - fd) / max(abs(an), abs(fd), floor))
    return FdReport(max_rel_error=worst, tolerance=tolerance,
                    ok=worst <= tolerance)
