"""The benchmark's three workloads: set-up, one operation, and its check.

Every call goes through the package's public API and looks the function up
on its module at call time, so the wrappers of spans.py see it.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from cauchyfwi import acquisition, analysis, inversion
from cauchyfwi import config as C
from cauchyfwi.config import DEFAULT_CONFIG, parse_config
from cauchyfwi.geometry import evaluate_model
from cauchyfwi.helmholtz import assemble
from cauchyfwi.inversion import relative_l2_error

# The acceptance suite's criterion-1 configuration: 41 x 21 grid, 2 sources,
# 12 free coefficients, clean data synthesized on the inversion grid.
GRADCHECK_CONFIG = """
[grid]
dim = 2
extent_x_m = 200
extent_z_m = 100
nodes_x = 41
nodes_z = 21

[physics]
freq_hz = 25
water_speed_m_per_s = 1500
c_min_m_per_s = 1400
c_max_m_per_s = 3400

[partition]
tile_x_m = 100
tile_z_m = 60
water_depth_m = 20

[acquisition]
receiver_depth_m = 20
obs_source_depth_m = 5
obs_source_count = 2
source_margin_m = 30

[noise]
snr_db = inf

[synthesis]
refine = 1

[phantom]
background_surface_m_per_s = 1650
background_gradient_per_s = 3.0
inclusion_speed_m_per_s = 2100
inclusion_center_x_m = 100
inclusion_center_z_m = 60
inclusion_radius_m = 30
initial_top_speed_m_per_s = 1600
initial_bottom_speed_m_per_s = 1900
"""

GRADCHECK_TOLERANCE = 1e-4


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@dataclass
class Outcome:
    """What one operation produced: its time units, checks and digest."""

    units: int          # driver iterations, or 1 per sweep
    records: list       # IterationRecord list ([] for a sweep)
    rel_l2: float
    failures: list      # names of the checks that failed
    digest: str


class InvertWorkload:
    """run_inversion on the default configuration until its stopping rule.

    The noise seed is the benchmark seed; nothing else depends on it.
    """

    def __init__(self, name, decoupled, min_improvement, max_iterations):
        self.name = name
        self.decoupled = decoupled
        self.min_improvement = min_improvement
        self.max_iterations = max_iterations

    def setup(self, seed):
        cfg = parse_config(DEFAULT_CONFIG)
        grid = C.build_grid(cfg)
        fine = C.build_grid(cfg, refine=cfg.refine)
        phys = C.build_physics(cfg)
        partition = C.build_partition_for(cfg, grid)
        receivers, obs = C.check_acquisition(cfg, grid)
        data = acquisition.synthesize(C.build_true_field(cfg, fine), obs, receivers, phys)
        data = acquisition.add_noise(data, cfg.snr_db, seed)
        return {
            "data": data,
            "sim": C.build_sim_sources(cfg, grid, decoupled=self.decoupled),
            "initial": C.build_initial_model(cfg, partition),
            "optim": C.build_optimizer(cfg),
            "phys": phys,
            "truth": C.build_true_field(cfg, grid),
        }

    def starting_system(self, inputs):
        initial = inputs["initial"]
        return assemble(initial.partition.grid, evaluate_model(initial), inputs["phys"])

    def run(self, inputs, callback):
        return inversion.run_inversion(inputs["data"], inputs["sim"], inputs["initial"],
                                       inputs["optim"], inputs["phys"], callback=callback)

    def check(self, inputs, result):
        initial = inputs["initial"]
        e_init = relative_l2_error(inputs["truth"], evaluate_model(initial))
        e_final = relative_l2_error(inputs["truth"], evaluate_model(result.model))
        history = np.array(result.misfit_history)
        frozen = initial.partition.frozen
        failures = []
        if not 1.0 - e_final / e_init >= self.min_improvement:
            failures.append("improvement")
        if self.max_iterations is not None and len(result.records) > self.max_iterations:
            failures.append("iterations")
        if not np.all(history[1:] <= history[:-1]):
            failures.append("monotone")
        if not np.array_equal(result.model.coeffs[frozen], initial.coeffs[frozen]):
            failures.append("frozen")
        return Outcome(len(result.records), list(result.records), e_final, failures,
                       digest(history, result.model.coefficient_vector))


class GradcheckWorkload:
    """analysis.gradcheck on the criterion-1 configuration.

    Its inputs do not depend on the seed: the data are clean and every free
    coefficient is probed.
    """

    name = "gradcheck_small"

    def setup(self, seed):
        cfg = parse_config(GRADCHECK_CONFIG)
        grid = C.build_grid(cfg)
        partition = C.build_partition_for(cfg, grid)
        return {"cfg": cfg, "grid": grid, "partition": partition}

    def starting_system(self, inputs):
        cfg = inputs["cfg"]
        model = C.build_initial_model(cfg, inputs["partition"])
        return assemble(inputs["grid"], evaluate_model(model), C.build_physics(cfg))

    def run(self, inputs, callback):
        return analysis.gradcheck(inputs["cfg"], tolerance=GRADCHECK_TOLERANCE)

    def check(self, inputs, report):
        cfg = inputs["cfg"]
        # no model comes out of a sweep: report the error of the model it
        # differentiates at, so that every workload carries the metric
        model = C.build_initial_model(cfg, inputs["partition"])
        rel_l2 = relative_l2_error(C.build_true_field(cfg, inputs["grid"]),
                                   evaluate_model(model))
        rows = np.array([[c.index, c.adjoint, c.finite_difference, c.rel_error]
                         for c in report.checks])
        failures = [] if report.passed else ["gradcheck"]
        return Outcome(1, [], rel_l2, failures, digest(rows))


WORKLOADS = {
    w.name: w for w in (
        InvertWorkload("invert_coupled", decoupled=False, min_improvement=0.50,
                       max_iterations=175),
        InvertWorkload("invert_decoupled", decoupled=True, min_improvement=0.40,
                       max_iterations=None),
        GradcheckWorkload(),
    )
}


def lu_fill(system):
    """L+U fill of a system's sparse LU and its bytes, computed.

    Bytes are those of compressed-column L and U with complex128 values and
    int32 row indices; SuperLU's supernodal storage differs.
    """
    lu = system.factorization
    nnz = int(lu.L.nnz + lu.U.nnz)
    n = system.matrix.shape[0]
    return nnz, nnz * (16 + 4) + 2 * (n + 1) * 4


def tail_percentile(samples):
    """Highest whole percentile that leaves at least 10 samples above it.

    With 10 samples or fewer there is none, and the maximum stands in.
    """
    n = len(samples)
    if n <= 10:
        return 100, max(samples)
    pct = math.floor(100.0 * (n - 10) / n)
    return pct, float(np.percentile(samples, pct))
