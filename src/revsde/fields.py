"""Drift/diffusion vector fields with hand-written reverse-mode gradients.

No autodiff framework is used: the step-level gradient machinery in
`solvers` only ever needs vector-Jacobian products of the drift and
diffusion with respect to the state and the (flat) parameter vector, and
those are small, fixed computations that are written out here and verified
against central finite differences by `fd_check`.

Each field writes its evaluation and its derivative once:
`_evaluate(t, z)` -> (mu, sigma) and `_vjp(t, z, d_mu, d_sigma)` -> (mu,
sigma, d_z, d_params), the values at (t, z) and the pullback of (d_mu,
d_sigma) through them, the parameter gradient summed over the batch. The
public methods count their calls. Forward steps, the oracles' marches
among them, call `evaluate`; every derivative is a `vjp`, in the
reversible sweep and backward step, the oracles' replays, the continuous
adjoints and `fd_check`, which so checks the derivative the solvers run.
No derivative outlives the call that made it. `eval_drift`,
`eval_diffusion`, `vjp_drift` and `vjp_diffusion`, halves of `evaluate`
and of `vjp`, stay with their counters because the benchmark's field
proxy (`_TracedField`, `perfbench/tracing.py`) binds them and divides its
field metrics by their time (ROADMAP items 1a and 2). A `NeuralField`
runs its two networks, LipSwish MLPs with at least one hidden layer each,
as one pass with a stacked first layer (see its docstring); an `MLPField`
only holds a network's parameters.

The layers run on numpy alone. Each activation may overwrite its own
pre-activation, and nothing else: a layer computes x @ W.T into a new
buffer, adds the bias in place and hands the buffer to its activation,
and no pullback writes an array that its caller or the returned (mu,
sigma) holds. Scratch is the one exception: the stacked hidden state,
its LipSwish memo and the pullback's temporaries live in buffers of the
calling thread, which nothing returned shares. The sigmoid (the diffusion
head and LipSwish's gate) is the tanh form 0.5 + 0.5 tanh(h / 2); see
`sigmoid` for its accuracy.

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

import numbers
import operator
import threading
from dataclasses import dataclass

import numpy as np

from .brownian import _count

LIPSWISH_SCALE = 0.909


def sigmoid(h, out=None):
    """The logistic function 1 / (1 + exp(-h)) as 0.5 + 0.5 tanh(h / 2).

    Computed in one buffer: h / 2 is written into `out` (a new array if
    None; `h` itself to overwrite the pre-activation), then tanh, *= 0.5
    and += 0.5 run in place; returns that buffer. Values lie in [0, 1].
    Against scipy's `expit` the absolute error is at most 2.3e-16; the
    relative error is about 4e-9 where sigmoid(h) > 1e-8, and the value
    is exactly 0 below h = -38 (`expit` keeps a tiny positive value).
    """
    s = np.multiply(h, 0.5, out=out)
    np.tanh(s, out=s)
    s *= 0.5
    s += 0.5
    return s


# Each activation as (forward, derivative): forward(h) -> (y, memo) may
# write y into its pre-activation h and nothing else; derivative(y, memo,
# out) -> dy/dh writes into `out` (a new array if None) from what the
# forward pass already computed, so a pullback never re-evaluates a
# nonlinearity and never writes what that pass kept. LipSwish's memo is
# its sigmoid: dy/dh = 0.909 s + y (1 - s), computed in `out` as (0.909 -
# y) s + y with no temporary. The identity's derivative is the float 1.0.
def _lipswish_forward(h, out=None):
    s = sigmoid(h, out=out)
    h *= LIPSWISH_SCALE
    h *= s
    return h, s


def _lipswish_derivative(y, s, out=None):
    d = np.subtract(LIPSWISH_SCALE, y, out=out)
    d *= s
    d += y
    return d


def _tanh_derivative(y, _, out=None):
    d = np.multiply(y, y, out=out)
    return np.subtract(1.0, d, out=d)


def _sigmoid_derivative(y, _, out=None):
    d = np.subtract(1.0, y, out=out)
    d *= y
    return d


_HEADS = {  # the choices of `MLPField(final_activation=)`
    "lipswish": (_lipswish_forward, _lipswish_derivative),
    "tanh": (lambda h: (np.tanh(h, out=h), None), _tanh_derivative),
    "sigmoid": (lambda h: (sigmoid(h, out=h), None), _sigmoid_derivative),
    "identity": (lambda h: (h, None), lambda y, _, out=None: 1.0),
}


def _on_copy(fn, x):
    """fn on a float copy of x, so x is never written; a float for a float."""
    y = fn(np.array(x, dtype=float, ndmin=1))
    return y if np.ndim(x) else y[0]


def lipswish(x):
    """Smooth activation with Lipschitz constant one: 0.909 x sigmoid(x)."""
    return _on_copy(lambda h: _lipswish_forward(h)[0], x)


def lipswish_grad(x):
    """0.909 s + y (1 - s), s = sigmoid(x): the MLP pullback's derivative."""
    return _on_copy(lambda h: _lipswish_derivative(*_lipswish_forward(h)), x)


def _time_appended(t, z, state_dim):
    """The network input [z | t] as a new (batch, state_dim + 1) array."""
    if z.ndim != 2 or z.shape[1] != state_dim:
        raise ValueError(f"state must be (batch, {state_dim}), got {z.shape}")
    x = np.empty((z.shape[0], state_dim + 1))
    x[:, :-1] = z
    x[:, -1] = float(t)
    return x


def _flatten(weights, biases):
    """The flat parameter layout: weights-then-bias per layer."""
    return np.concatenate(
        [np.concatenate([w.ravel(), b]) for w, b in zip(weights, biases)])


class MLPField:
    """Fully connected network from (t, state) to a flat output vector.

    Weights are stored (fan_out, fan_in); a layer computes x @ W.T + b.
    Every hidden layer is LipSwish; the last layer gets `final_activation`
    ("identity" for a plain linear head). The network holds parameters and
    nothing else: `NeuralField` runs it, and needs at least one hidden
    layer. `hidden=[]` gives a single linear layer, which can be clipped
    but not run. `state_dim`, `out_dim` and each hidden width must be ints
    >= 1.
    """

    def __init__(self, state_dim, hidden, out_dim, *,
                 final_activation="identity", rng=None):
        if isinstance(hidden, numbers.Integral):
            hidden = [hidden]
        self.state_dim = _count(state_dim, "state_dim must be an int >= 1")
        self.out_dim = _count(out_dim, "out_dim must be an int >= 1")
        hidden = [_count(width, f"hidden[{i}] must be an int >= 1")
                  for i, width in enumerate(hidden)]
        if final_activation not in _HEADS:
            raise ValueError(f"final_activation must be one of "
                             f"{', '.join(map(repr, _HEADS))}, got "
                             f"{final_activation!r}")
        self.final_activation = final_activation
        self._final, self._final_grad = _HEADS[final_activation]
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

    def _layers(self, x):
        """Layers 1, 2, ... on x, the first hidden layer's output: (memos,
        inputs), where inputs[0] is x and inputs[-1] the network's output."""
        memos = []
        inputs = [x]
        last = len(self.weights) - 1
        for i in range(1, last + 1):
            h = inputs[-1].dot(self.weights[i].T)
            h += self.biases[i]
            y, memo = (self._final if i == last else _lipswish_forward)(h)
            memos.append(memo)
            inputs.append(y)
        return memos, inputs

    def get_params(self):
        """Flatten all parameters, weights-then-bias per layer."""
        return _flatten(self.weights, self.biases)

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
    """Drift/diffusion pair with one derivative and evaluation counters.

    Subclasses implement `_evaluate(t, z)` -> (mu, sigma) and `_vjp(t, z,
    d_mu, d_sigma)` -> (mu, sigma, d_z, d_params), with mu and sigma in new
    arrays. The public methods are views of these and count their calls,
    so solvers can assert their per-step evaluation budgets: `evaluate`
    gives (mu, sigma), `vjp` the values and their pullback, `eval_drift`
    and `eval_diffusion` one half of the pass, and `vjp_drift` and
    `vjp_diffusion` one half of the pullback. Evaluation is pure per
    thread: a field may reuse scratch buffers, but no two threads share
    them. Parameter mutation (set_params, clipping) requires exclusive
    access.
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

    def evaluate(self, t, z):
        """(mu, sigma) at (t, z); counts one evaluation of each kind."""
        self.drift_evals += 1
        self.diffusion_evals += 1
        return self._evaluate(t, z)

    def eval_drift(self, t, z):
        """mu at (t, z), from the pass `evaluate` runs."""
        self.drift_evals += 1
        return self._evaluate(t, z)[0]

    def eval_diffusion(self, t, z):
        """sigma at (t, z), from the pass `evaluate` runs."""
        self.diffusion_evals += 1
        return self._evaluate(t, z)[1]

    def vjp(self, t, z, d_mu, d_sigma):
        """(mu, sigma, d_z, d_params): the values at (t, z), bitwise those of
        `evaluate`, and d_z and d_params, the gradient of <d_mu, mu> +
        <d_sigma, sigma>; counts one evaluation and one VJP of each kind.
        mu and sigma are new arrays, which the caller may write into: the
        reversible sweep's round-trip check does."""
        self.drift_evals += 1
        self.diffusion_evals += 1
        self.drift_vjp_calls += 1
        self.diffusion_vjp_calls += 1
        return self._vjp(t, z, d_mu, d_sigma)

    def vjp_drift(self, t, z, cotangent):
        """Gradient of <cotangent, mu>: the pullback of (cotangent, 0)."""
        self.drift_vjp_calls += 1
        zero = np.zeros((len(z), self.state_dim, self.noise_dim))
        return self._vjp(t, z, cotangent, zero)[2:]

    def vjp_diffusion(self, t, z, cotangent):
        """Gradient of <cotangent, sigma>: the pullback of (0, cotangent)."""
        self.diffusion_vjp_calls += 1
        zero = np.zeros((len(z), self.state_dim))
        return self._vjp(t, z, zero, cotangent)[2:]

    def get_params(self):
        return np.zeros(0)

    def set_params(self, flat):
        if len(np.asarray(flat)) != 0:
            raise ValueError("field has no parameters")


class _Scratch(threading.local):
    """One thread's scratch buffers for one field, keyed by batch size."""

    def __init__(self):
        self.by_batch = {}


class NeuralField(VectorField):
    """Vector field whose drift and diffusion are MLPs, run as one pass.

    Each network needs at least one hidden layer, and every hidden layer is
    LipSwish; a network without one raises ValueError here. The flat
    parameter vector is the drift network's parameters followed by the
    diffusion network's. Diffusion output is reshaped row-major to (batch,
    state_dim, noise_dim).

    Both networks read the same [z | t], so their first layers run as one:
    one matmul, bias add and LipSwish against the two first layers stacked
    (drift rows first). The hidden state is kept (hidden, batch), so each
    network's block is a run of rows, which its later layers read
    transposed as a view and every product is a plain BLAS call on
    contiguous or transposed operands. The networks' `weights[0]` and
    `biases[0]` are views of the stacked arrays, so in-place writes
    (`clip`, `clip_weights`) reach the pass, and a network that rebinds
    them (`set_params`) is stacked anew at the next pass.

    `vjp` runs `_forward` and then `_pullback` over its tape, which lives
    only within the call. The pullback stacks the two cotangents on the
    hidden state in one buffer and applies the LipSwish derivative once.
    It sums the input cotangent per network, so the pullback of (d_mu,
    d_sigma) is bitwise the sum of those of (d_mu, 0) and (0, d_sigma).
    The hidden state and its LipSwish memo, the pullback's temporaries
    and the flat parameter gradient it fills are buffers of the calling
    thread, one set per batch size, so freeing and refaulting them per
    call is avoided; every array returned is new. The pullback reads the
    memo into the LipSwish derivative before it writes the stacked
    cotangent over the memo, so `vjp` holds one (hidden, batch) buffer
    more than `evaluate`.
    """

    def __init__(self, drift_net: MLPField, diffusion_net: MLPField):
        if drift_net.state_dim != diffusion_net.state_dim:
            raise ValueError("drift and diffusion disagree on state_dim")
        if drift_net.out_dim != drift_net.state_dim:
            raise ValueError("drift output must match state_dim")
        if diffusion_net.out_dim % drift_net.state_dim != 0:
            raise ValueError("diffusion output must be state_dim x noise_dim")
        for name, net in (("drift", drift_net), ("diffusion", diffusion_net)):
            if len(net.weights) < 2:
                raise ValueError(
                    f"the {name} network has no hidden layer; a NeuralField "
                    f"needs at least one LipSwish hidden layer per network")
        self.drift_net = drift_net
        self.diffusion_net = diffusion_net
        self.state_dim = drift_net.state_dim
        self.noise_dim = diffusion_net.out_dim // drift_net.state_dim
        self.param_count = drift_net.n_params + diffusion_net.n_params
        self._nets = (drift_net, diffusion_net)
        cut = len(drift_net.biases[0])
        self._rows = (slice(0, cut), slice(cut, None))
        self._views = (None,) * 4
        self._scratch = _Scratch()
        self._stacked()
        super().__init__()

    def _stacked(self):
        """(W0, b0 as a column), the stacked first layers; stacked anew if a
        network has rebound its first-layer arrays since the last call."""
        d, s = self._nets
        views = (d.weights[0], d.biases[0], s.weights[0], s.biases[0])
        if any(map(operator.is_not, views, self._views)):
            w0 = np.concatenate([d.weights[0], s.weights[0]])
            b0 = np.concatenate([d.biases[0], s.biases[0]])
            rd, rs = self._rows
            d.weights[0], d.biases[0] = w0[rd], b0[rd]
            s.weights[0], s.biases[0] = w0[rs], b0[rs]
            self._views = (d.weights[0], d.biases[0], s.weights[0],
                           s.biases[0])
            self._w0, self._b0 = w0, b0[:, None]
        return self._w0, self._b0

    def _evaluate(self, t, z):
        x = _time_appended(t, np.asarray(z), self.state_dim)
        return self._forward(x, self._buffers(len(x)))[:2]

    def _vjp(self, t, z, d_mu, d_sigma):
        x = _time_appended(t, np.asarray(z), self.state_dim)
        buffers = self._buffers(len(x))
        mu, sigma, tape = self._forward(x, buffers)
        return (mu, sigma, *self._pullback(tape, d_mu, d_sigma, buffers))

    def _forward(self, x, buffers):
        """(mu, sigma, tape) of one pass through both networks on x = [z | t].
        The stacked hidden state goes into the first of this thread's
        `buffers` and its LipSwish memo into the second."""
        w0, b0 = self._stacked()
        h = np.dot(w0, x.T, out=buffers[0])
        h += b0
        memo = _lipswish_forward(h, buffers[1])[1]
        tapes = [net._layers(h[rows].T)
                 for net, rows in zip(self._nets, self._rows)]
        mu, flat_sigma = [inputs[-1] for _, inputs in tapes]
        sigma = flat_sigma.reshape(len(x), self.state_dim, self.noise_dim)
        return mu, sigma, (x, w0, h, memo, tapes)

    def _pullback(self, tape, d_mu, d_sigma, buffers):
        """(d_z, d_params) over the tape of a `_forward` into the same
        `buffers`. The memo is the second buffer, the stacked cotangent's:
        the derivative reads it first."""
        x, w0, h, memo, tapes = tape
        batch = len(x)
        d_mu, d_sigma = np.asarray(d_mu), np.asarray(d_sigma)
        shapes = ((batch, self.state_dim),
                  (batch, self.state_dim, self.noise_dim))
        if (d_mu.shape, d_sigma.shape) != shapes:
            raise ValueError(f"cotangent shapes {d_mu.shape} and "
                             f"{d_sigma.shape} do not match (mu, sigma) "
                             f"shapes {shapes[0]} and {shapes[1]}")
        _, g0, d0, flat, nets = buffers
        _lipswish_derivative(h, memo, d0)
        for net, rows, cot, (memos, inputs), (grads, head) in zip(
                self._nets, self._rows, (d_mu, d_sigma.reshape(batch, -1)),
                tapes, nets):
            # Layer i's input is inputs[i - 1], its memo memos[i - 1].
            g = net._final_grad(inputs[-1], memos[-1], head)
            g *= cot
            for i in range(len(inputs) - 1, 0, -1):
                gw, gb = grads[i]
                np.dot(g.T, inputs[i - 1], out=gw)
                g.sum(axis=0, out=gb)
                if i > 1:
                    g = g.dot(net.weights[i])
                    g *= _lipswish_derivative(inputs[i - 1], memos[i - 2])
            np.dot(net.weights[1].T, g.T, out=g0[rows])
        g0 *= d0
        for rows, (grads, _) in zip(self._rows, nets):
            gw, gb = grads[0]
            np.dot(g0[rows], x, out=gw)
            g0[rows].sum(axis=1, out=gb)
        # Summed per network, so that d_z is bitwise the sum of the d_z of
        # the pullbacks of (d_mu, 0) and (0, d_sigma).
        rd, rs = self._rows
        d_x = g0[rd].T.dot(w0[rd])
        d_x += g0[rs].T.dot(w0[rs])
        return d_x[:, :-1], flat.copy()

    def _buffers(self, batch):
        """This thread's scratch for `batch` rows, made on first use.

        Three (hidden, batch) arrays: the forward pass's hidden state and
        LipSwish memo (`_evaluate`, `_vjp`), the pullback's stacked
        cotangent in the second (over the memo it has read) and its
        LipSwish derivative in the third; the flat parameter gradient; and
        per network its layers' (weight, bias) views of that gradient and
        its head's cotangent. Each lives only within one call.
        """
        buffers = self._scratch.by_batch.get(batch)
        if buffers is None:
            flat = np.empty(self.param_count)
            nets, pos = [], 0
            for net in self._nets:
                grads = []
                for w, b in zip(net.weights, net.biases):
                    end = pos + w.size
                    grads.append((flat[pos:end].reshape(w.shape),
                                  flat[end:end + b.size]))
                    pos = end + b.size
                nets.append((grads, np.empty((batch, net.out_dim))))
            wide = (len(self._b0), batch)
            buffers = (np.empty(wide), np.empty(wide), np.empty(wide), flat,
                       nets)
            self._scratch.by_batch[batch] = buffers
        return buffers

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
    cotangent for cot of the matching output shape. `_evaluate` calls the
    first two and `_vjp` all four, copying mu and sigma; a `vjp` without
    both derivative closures raises NotImplementedError naming the one
    missing.
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

    def _evaluate(self, t, z):
        return self._drift_fn(t, z), self._diffusion_fn(t, z)

    def _vjp(self, t, z, d_mu, d_sigma):
        if self._drift_vjp_fn is None:
            raise NotImplementedError("no drift_vjp_z closure")
        if self._diffusion_vjp_fn is None:
            raise NotImplementedError("no diffusion_vjp_z closure")
        # Copied: the closures may return arrays they keep or read-only
        # views (a drift may return its input).
        mu, sigma = self._evaluate(t, z)
        return (np.array(mu), np.array(sigma),
                self._drift_vjp_fn(t, z, d_mu)
                + self._diffusion_vjp_fn(t, z, d_sigma), np.zeros(0))


@dataclass
class FdReport:
    """Worst relative discrepancy between pullback and finite differences."""

    max_rel_error: float
    tolerance: float
    ok: bool


def fd_check(field: VectorField, t, z, tolerance=1e-5, step=1e-6):
    """Compare the field's `vjp` against central finite differences.

    Pulls fixed random probes (c_mu, 0) and (0, c_sigma) back through one
    `field.vjp` each, then bumps each flat coordinate of a copy of the
    state and each parameter (written back through `set_params`); one
    `evaluate` per bump serves both probes. Relative errors use an
    absolute floor of 1e-8 so near-zero entries do not blow up the ratio.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    z = np.array(z, dtype=float, order="C")
    rng = np.random.default_rng(12345)
    c_mu = rng.standard_normal((z.shape[0], field.state_dim))
    c_sigma = rng.standard_normal(c_mu.shape + (field.noise_dim,))
    grads = [field.vjp(t, z, c_mu, np.zeros_like(c_sigma))[2:],
             field.vjp(t, z, np.zeros_like(c_mu), c_sigma)[2:]]
    params = field.get_params()
    worst = 0.0
    for block, (x, write_back) in enumerate(
            [(z.reshape(-1), lambda x: None), (params, field.set_params)]):
        for k in range(x.size):
            orig = x[k]
            sums = []
            for eps in (step, -step):
                x[k] = orig + eps
                write_back(x)
                mu, sigma = field.evaluate(t, z)
                sums.append((float(np.sum(c_mu * mu)),
                             float(np.sum(c_sigma * sigma))))
            x[k] = orig
            write_back(x)
            for grad, (up, down) in zip(grads, zip(*sums)):
                fd = (up - down) / (2.0 * step)
                an = float(grad[block].reshape(-1)[k])
                worst = max(worst, abs(an - fd) / max(abs(an), abs(fd), 1e-8))
    return FdReport(max_rel_error=worst, tolerance=tolerance,
                    ok=worst <= tolerance)
