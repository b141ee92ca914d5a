"""Frequency-domain full-waveform inversion of dual-sensor Cauchy data.

Reconstructs piecewise-linear acoustic wave-speed models by minimizing a
reciprocity-gap misfit between simulated point-source fields and measured
pressure / normal-velocity traces, with an adjoint-state gradient and a
preconditioned L-BFGS driver stopped by the discrepancy principle.

The root exports the names of the README's library example; every other
name is imported from its own module.
"""

from .geometry import Grid, build_partition, evaluate_model
from .helmholtz import PhysicsConfig
from .acquisition import add_noise, receiver_layer, source_lattice, synthesize
from .inversion import Objective, OptimConfig, relative_l2_error, run_inversion

__all__ = [
    "Grid", "PhysicsConfig", "OptimConfig", "build_partition", "receiver_layer",
    "source_lattice", "synthesize", "add_noise", "run_inversion", "evaluate_model",
    "relative_l2_error", "Objective",
]

__version__ = "0.1.0"
