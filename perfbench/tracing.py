"""Spans around the public entry points of each revsde layer.

Everything here lives in the benchmark process; no library file changes.
A `Tracer` records one span per call: name, start, end, parent span and
operation id. Spans are recorded by

* proxies: the noise object passed as `SolveConfig.noise` times `query`,
  and the field proxy times `eval_drift`, `eval_diffusion`, `vjp_drift`
  and `vjp_diffusion`;
* module attributes rebound for the duration of `Tracer.installed()`:
  `revsde.brownian.standard_normals`, `split` and `bridge_sample`, and the
  solver entry points and step functions in `revsde.solvers`.

Spans stay in memory in flat arrays and are written out once, at the end.
A span's self time is its duration minus the time its child spans cover;
a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import contextlib
from array import array
from time import perf_counter

import numpy as np

from revsde import brownian, solvers

# (module, attribute, span name). The layer is the part before the dot.
PATCHES = (
    (brownian, "standard_normals", "prng.normals"),
    (brownian, "split", "prng.split"),
    (brownian, "bridge_sample", "brownian.bridge_sample"),
    (solvers, "revheun_adjoint_solve", "solvers.revheun_adjoint_solve"),
    (solvers, "revheun_solve", "solvers.revheun_solve"),
    (solvers, "baseline_solve", "solvers.baseline_solve"),
    (solvers, "revheun_step_forward", "solvers.revheun_step_forward"),
    (solvers, "revheun_step_backward", "solvers.revheun_step_backward"),
    (solvers, "baseline_step", "solvers.baseline_step"),
)
FIELD_EVALS = ("fields.eval_drift", "fields.eval_diffusion")
FIELD_VJPS = ("fields.vjp_drift", "fields.vjp_diffusion")
FWD_PASSES = ("solvers.revheun_solve", "solvers.baseline_solve")
ADJOINT = "solvers.revheun_adjoint_solve"


class Tracer:
    """In-memory span recorder; `op_id` tags the spans of one operation."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("H")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.op_id = -1
        self._stack = [-1]

    def _name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn):
        """Wrap fn so every call records a span called `name`."""
        nid = self._name(name)
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.op.append(self.op_id)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind the module attributes in PATCHES to timing wrappers."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in PATCHES]
        try:
            for mod, attr, name in PATCHES:
                setattr(mod, attr, self.span(name, getattr(mod, attr)))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def field(self, field):
        return _TracedField(self, field)

    def noise(self, tree):
        return _TracedNoise(self, tree)

    def save(self, path):
        """Write all spans as a compressed .npz (times in seconds)."""
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.asarray(self.name_id),
            parent=np.asarray(self.parent), op=np.asarray(self.op),
            start=np.asarray(self.start), end=np.asarray(self.end))


class _TracedField:
    """Field proxy timing the public eval and VJP methods."""

    def __init__(self, tracer, field):
        self._field = field
        self.eval_drift = tracer.span("fields.eval_drift", field.eval_drift)
        self.eval_diffusion = tracer.span("fields.eval_diffusion",
                                          field.eval_diffusion)
        self.vjp_drift = tracer.span("fields.vjp_drift", field.vjp_drift)
        self.vjp_diffusion = tracer.span("fields.vjp_diffusion",
                                         field.vjp_diffusion)

    def __getattr__(self, name):
        return getattr(self._field, name)


class _TracedNoise:
    """Noise proxy timing `query`."""

    def __init__(self, tracer, tree):
        self._tree = tree
        self.query = tracer.span("brownian.query", tree.query)

    def __getattr__(self, name):
        return getattr(self._tree, name)


def mlp_flops(field, batch: int):
    """Matmul FLOPs of one (drift, diffusion) evaluation at `batch` rows.

    A VJP re-runs the forward pass and then does two matmuls per layer, so
    it costs three evaluations. Fields without MLPs return (0, 0).
    """
    nets = (getattr(field, "drift_net", None),
            getattr(field, "diffusion_net", None))
    return tuple(0 if net is None else
                 2 * batch * sum(w.size for w in net.weights) for net in nets)


def layer_metrics(tracer: Tracer, stats, workload, field) -> dict:
    """Per-operation layer metrics from the spans and the trees' stats().

    `stats` holds one TreeStats per traced operation. Metrics of work a
    workload does not do (a backward pass, an MLP) are 0.
    """
    n_ops = len(stats)
    names = tracer.names
    nid = np.asarray(tracer.name_id, dtype=np.int64)
    parent = np.asarray(tracer.parent)
    dur = np.asarray(tracer.end) - np.asarray(tracer.start)
    has_parent = parent >= 0
    covered = np.zeros_like(dur)
    np.add.at(covered, parent[has_parent], dur[has_parent])
    self_t = dur - covered

    # Phase: 1 inside a forward pass, 2 inside an adjoint but outside its
    # forward pass. Parents are recorded before their children.
    code = {n: i for i, n in enumerate(names)}
    fwd_ids = {code[n] for n in FWD_PASSES if n in code}
    adj_id = code.get(ADJOINT, -1)
    phase = np.zeros(len(dur), dtype=np.int8)
    nid_list, parent_list = nid.tolist(), parent.tolist()
    for i, (k, p) in enumerate(zip(nid_list, parent_list)):
        if k in fwd_ids:
            phase[i] = 1
        elif k == adj_id:
            phase[i] = 2
        elif p >= 0:
            phase[i] = phase[p]

    def mask(*span_names, in_phase=None):
        ids = [code[n] for n in span_names if n in code]
        m = np.isin(nid, ids)
        return m if in_phase is None else m & (phase == in_phase)

    def count(*span_names, in_phase=None):
        return int(mask(*span_names, in_phase=in_phase).sum())

    def total(*span_names, in_phase=None):
        return float(dur[mask(*span_names, in_phase=in_phase)].sum())

    def mean_us(*span_names, in_phase=None):
        m = mask(*span_names, in_phase=in_phase)
        return float(dur[m].mean()) * 1e6 if m.any() else 0.0

    def layer_self(layer):
        ids = [i for i, n in enumerate(names) if n.startswith(layer + ".")]
        return float(self_t[np.isin(nid, ids)].sum())

    hits = sum(s.cache_hits for s in stats)
    lookups = hits + sum(s.cache_misses for s in stats)
    queries = sum(s.queries for s in stats)

    step_fwd = ("solvers.revheun_step_forward", "solvers.baseline_step")
    fwd_steps = count(*step_fwd, in_phase=1)
    bwd_steps = count("solvers.revheun_step_backward", in_phase=2)
    fwd_us = mean_us("solvers.revheun_step_forward")
    bwd_us = mean_us("solvers.revheun_step_backward")
    fwd_in_adjoint = (mask(*FWD_PASSES) & has_parent
                      & (nid[np.maximum(parent, 0)] == adj_id))
    bwd_pass = total(ADJOINT) - float(dur[fwd_in_adjoint].sum())

    drift_flops, diffusion_flops = mlp_flops(field, workload.batch)
    flops = ((count("fields.eval_drift") + 3 * count("fields.vjp_drift"))
             * drift_flops
             + (count("fields.eval_diffusion")
                + 3 * count("fields.vjp_diffusion")) * diffusion_flops)
    fields_s = total(*FIELD_EVALS, *FIELD_VJPS)
    normals_calls = count("prng.normals")
    # Every draw a BrownianInterval makes has batch * noise_dim normals.
    draw_size = workload.batch * field.noise_dim

    per_op = 1.0 / n_ops
    return {
        "prng.normals_calls": (normals_calls * per_op, "count"),
        "prng.normals_us": (mean_us("prng.normals"), "us"),
        "prng.normals_s": (total("prng.normals") * per_op, "s"),
        "prng.normals_mb_computed": (
            normals_calls * draw_size * 8 / 1e6 * per_op, "MB"),
        "prng.split_calls": (count("prng.split") * per_op, "count"),
        "prng.split_s": (total("prng.split") * per_op, "s"),
        "brownian.queries": (queries * per_op, "count"),
        "brownian.fwd_query_us": (
            mean_us("brownian.query", in_phase=1), "us"),
        "brownian.bwd_query_us": (
            mean_us("brownian.query", in_phase=2), "us"),
        "brownian.self_s": (layer_self("brownian") * per_op, "s"),
        "brownian.cache_hit_ratio": (hits / lookups, "ratio"),
        "brownian.cache_lookups": (lookups * per_op, "count"),
        "brownian.sample_recomputes": (
            sum(s.sample_recomputes for s in stats) * per_op, "count"),
        "brownian.max_sample_depth": (
            max(s.max_sample_depth for s in stats), "count"),
        "brownian.mean_traverse_edges": (
            sum(s.traverse_edges for s in stats) / queries, "count"),
        "brownian.node_count": (
            sum(s.node_count for s in stats) * per_op, "count"),
        "fields.evals": (count(*FIELD_EVALS) * per_op, "count"),
        "fields.vjps": (count(*FIELD_VJPS) * per_op, "count"),
        "fields.eval_us": (mean_us(*FIELD_EVALS), "us"),
        "fields.vjp_us": (mean_us(*FIELD_VJPS), "us"),
        "fields.s": (fields_s * per_op, "s"),
        "fields.gflop_per_s_computed": (flops / fields_s / 1e9, "GFLOP/s"),
        "solvers.fwd_step_us": (fwd_us, "us"),
        "solvers.bwd_step_us": (bwd_us, "us"),
        "solvers.bwd_fwd_ratio": (bwd_us / fwd_us, "ratio"),
        "solvers.self_s": (layer_self("solvers") * per_op, "s"),
        "solvers.fwd_pass_s": (total(*FWD_PASSES) * per_op, "s"),
        "solvers.bwd_pass_s": (bwd_pass * per_op, "s"),
        "solvers.fwd_evals_per_step": (
            count(*FIELD_EVALS, *FIELD_VJPS, in_phase=1) / fwd_steps,
            "count"),
        "solvers.bwd_evals_per_step": (
            count(*FIELD_EVALS, *FIELD_VJPS, in_phase=2) / bwd_steps
            if bwd_steps else 0.0, "count"),
    }
