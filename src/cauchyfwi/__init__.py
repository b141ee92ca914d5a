"""Frequency-domain full-waveform inversion of dual-sensor Cauchy data.

Reconstructs piecewise-linear acoustic wave-speed models by minimizing a
reciprocity-gap misfit between simulated point-source fields and measured
pressure / normal-velocity traces, with an adjoint-state gradient and a
preconditioned L-BFGS driver stopped by the discrepancy principle.
"""

from .geometry import (
    Grid,
    NodalField,
    Partition,
    PiecewiseLinearModel,
    build_partition,
    coefficient_gradient,
    evaluate_model,
    fit_coefficients,
    read_model,
    write_model,
    write_partition,
)
from .helmholtz import (
    HelmholtzSystem,
    PhysicsConfig,
    assemble,
    points_per_wavelength,
)
from .acquisition import (
    CauchyDataSet,
    ReceiverArray,
    SourceSet,
    add_noise,
    read_data,
    receiver_layer,
    source_lattice,
    synthesize,
    write_data,
)
from .misfit_adjoint import (
    ReciprocityGapMatrix,
    misfit,
    misfit_and_gradient,
    misfit_only,
    nodal_gradient,
    reciprocity_gap,
)
from .inversion import (
    InversionResult,
    IterationRecord,
    Objective,
    OptimConfig,
    RejectedTrials,
    lbfgs_direction,
    line_search,
    relative_l2_error,
    run_inversion,
    stagnation,
)
from .analysis import (
    export_field,
    gaussian_smooth,
    gradcheck,
    probe_stability,
)
from .config import RunConfig, parse_config, render_config

__version__ = "0.1.0"
