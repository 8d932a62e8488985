"""Reversible SDE solving with exact adjoint gradients.

Modules:
  prng      splittable, counter-based Gaussian noise streams
  brownian  exact Brownian interval tree and the dyadic baseline store
  fields    drift/diffusion fields with hand-written VJPs
  solvers   reversible Heun stepping, adjoints, baselines, oracle
  harness   experiments, CSV output, command-line interface
"""

from .brownian import BrownianInterval, VirtualBrownianTree, bridge_sample
from .fields import (
    AnalyticField,
    MLPField,
    NeuralField,
    clip_weights,
    fd_check,
    lipswish,
)
from .prng import SeedState, new_seed, split, standard_normals
from .solvers import (
    RevHeunState,
    SolveConfig,
    SolverDivergence,
    baseline_solve,
    baseline_step,
    continuous_adjoint_solve,
    revheun_adjoint_solve,
    revheun_backward,
    revheun_solve,
    revheun_step_backward,
    revheun_step_forward,
    stability_probe,
    unrolled_backprop,
)

__all__ = [
    "AnalyticField",
    "BrownianInterval",
    "MLPField",
    "NeuralField",
    "RevHeunState",
    "SeedState",
    "SolveConfig",
    "SolverDivergence",
    "VirtualBrownianTree",
    "baseline_solve",
    "baseline_step",
    "bridge_sample",
    "clip_weights",
    "continuous_adjoint_solve",
    "fd_check",
    "lipswish",
    "new_seed",
    "revheun_adjoint_solve",
    "revheun_backward",
    "revheun_solve",
    "revheun_step_backward",
    "revheun_step_forward",
    "split",
    "stability_probe",
    "standard_normals",
    "unrolled_backprop",
]
