"""Empirical stability probe, gradient-check harness, and field export.

The stability probe samples admissible model pairs and tabulates the ratio
of their sup-norm distance to the square root of the two-model misfit: an
empirical illustration of the Lipschitz bound that motivates the
piecewise-linear subspace.  The gradient check compares the adjoint
coefficient gradient against central finite differences over a step sweep;
it is the master correctness gate for the whole forward/adjoint stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import acquisition
from . import config as config_mod
from .errors import ConfigError, DataFormatError
from .geometry import NodalField, evaluate_model
from .helmholtz import write_field_csv, write_field_structured_points
from .inversion import Objective, coefficient_scales
from .textio import write_text_atomic

# not called here: bench/spans.py wraps these four names on this module
from .geometry import coefficient_gradient  # noqa: F401
from .helmholtz import assemble  # noqa: F401
from .misfit_adjoint import misfit_and_gradient, misfit_only  # noqa: F401


# ---------------------------------------------------------------------------
# gaussian-smoothed export

def gaussian_smooth(field, sigma):
    """Truncated-gaussian smoothing with edge renormalization.

    sigma is in node units, nonnegative with a finite 4 sigma (DataFormatError
    otherwise); the kernel is cut at 4 sigma, or at the longest axis when
    that is shorter.  scipy.ndimage filters the field and a field of ones
    with zero padding, and their ratio renormalizes the weights over the
    in-bounds support, so constants (and the mean of interior-supported
    fields) are preserved to rounding.
    """
    if not 0 <= sigma <= np.finfo(float).max / 4.0:
        raise DataFormatError(f"sigma must be nonnegative, 4 sigma finite, got {sigma}")
    if sigma == 0:
        return field
    # imported here: scipy.ndimage raises a process's peak RSS, which a
    # module-level import would charge to every importer of analysis
    from scipy.ndimage import gaussian_filter

    vals = field.reshape().astype(float)
    radius = min(int(np.ceil(4.0 * sigma)), max(field.grid.shape) - 1)
    smooth, norm = (gaussian_filter(v, sigma, mode="constant", radius=radius)
                    for v in (vals, np.ones_like(vals)))
    return NodalField(field.grid, (smooth / norm).ravel())


def export_field(field, path, fmt="structured-points", sigma=0.0):
    """Write a field to disk, optionally smoothing it first."""
    smoothed = gaussian_smooth(field, sigma)
    if fmt == "structured-points":
        write_field_structured_points(smoothed, path)
    elif fmt == "csv":
        write_field_csv(smoothed, path)
    else:
        raise DataFormatError(f"unsupported export format {fmt!r}")


# ---------------------------------------------------------------------------
# gradient check

# Finite-difference steps, as fractions of inversion.coefficient_scales, in
# the order gradcheck tries them: a row reports the first step from the small
# end that agrees within the tolerance, or the closest step when none agrees.
# Either way the verdict is the one the whole sweep would give.
GRADCHECK_STEPS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2)


@dataclass
class CoefficientCheck:
    index: int
    adjoint: float
    finite_difference: float
    rel_error: float
    step: float
    conclusive: bool

    def within(self, tolerance):
        """The pass rule: conclusive, with rel_error at most tolerance."""
        return self.conclusive and self.rel_error <= tolerance


@dataclass
class GradCheckReport:
    checks: list
    passed: bool
    tolerance: float

    def worst(self):
        done = [c.rel_error for c in self.checks if c.conclusive]
        return max(done) if done else float("nan")


def gradcheck(cfg, n_probes=0, seed=7, tolerance=1e-4):
    """Adjoint gradient versus central finite differences over GRADCHECK_STEPS.

    Builds the configured problem, takes its clean data from
    config.build_clean_data (the phantom solved on the refine grid), and
    differentiates the misfit of the depth-only starting model.  With
    n_probes = 0 every non-frozen coefficient is probed.  A probe tries the
    steps from the smallest up and ends at the first one within tolerance,
    which its row reports; a probe that no step passes reports its closest
    step.  A step whose misfit difference drowns in rounding is skipped; a
    probe with no other step is retried once with 10x wider steps, then
    reported inconclusive.  Ending at the first agreeing step gives the
    verdict the whole sweep gives: a probe passes iff some conclusive step
    of the first round that has one is within tolerance.  A grid above
    151 x 101 nodes, or a 3D grid above 15251 nodes, raises ConfigError
    before any solve.
    """
    if (cfg.nodes_x * cfg.nodes_y * cfg.nodes_z > 151 * 101 if cfg.dim == 3
            else cfg.nodes_x > 151 or cfg.nodes_z > 101):
        raise ConfigError("gradient check expects a small grid (<= 151 x 101 nodes)")
    if n_probes < 0:
        raise ConfigError(f"the number of probes must be >= 0, got {n_probes}")
    if seed < 0:
        raise ConfigError(f"the seed must be >= 0, got {seed}")
    problem = config_mod.build_problem(cfg)
    model = problem.initial
    objective = Objective(model, problem.sim, config_mod.build_clean_data(cfg, problem),
                          problem.phys)
    base = model.coefficient_vector.copy()
    j0, adjoint = objective.value_and_gradient(base)

    free = ~np.repeat(problem.partition.frozen, 1 + problem.grid.dim)
    candidates = np.nonzero(free)[0]
    if n_probes and n_probes < candidates.size:
        rng = np.random.default_rng(seed)
        candidates = np.sort(rng.choice(candidates, size=n_probes, replace=False))

    scales = coefficient_scales(model)
    eps_floor = 1e-10 * max(np.max(np.abs(adjoint)), 1e-300)

    checks = []
    for k in candidates:
        best = None
        for widen in (1.0, 10.0):
            for rel in GRADCHECK_STEPS:
                delta = rel * widen * scales[k]
                plus = base.copy()
                plus[k] += delta
                minus = base.copy()
                minus[k] -= delta
                jp, jm = objective.value(plus), objective.value(minus)
                if abs(jp - jm) < 1e3 * np.finfo(float).eps * max(abs(jp), abs(jm), j0):
                    continue
                fd = (jp - jm) / (2 * delta)
                err = abs(adjoint[k] - fd) / max(abs(fd), eps_floor)
                if best is None or err < best[0]:
                    best = (err, fd, delta)
                if err <= tolerance:
                    break
            if best is not None:
                break
        err, fd, delta = best or (float("nan"), float("nan"), 0.0)
        checks.append(CoefficientCheck(int(k), float(adjoint[k]), float(fd), float(err),
                                       float(delta), best is not None))
    passed = all(c.within(tolerance) for c in checks)
    return GradCheckReport(checks, passed, tolerance)


def write_gradcheck_csv(report, path):
    rows = ["coefficient, adjoint, finite_difference, rel_error, step, conclusive\n"]
    rows += [f"{c.index}, {c.adjoint:.17g}, {c.finite_difference:.17g}, "
             f"{c.rel_error:.17g}, {c.step:.17g}, {int(c.conclusive)}\n"
             for c in report.checks]
    write_text_atomic(path, "".join(rows))


# ---------------------------------------------------------------------------
# stability probe

@dataclass
class StabilityPair:
    linf_distance: float
    misfit: float
    ratio: float
    flagged: bool
    excluded: bool


@dataclass
class StabilityProbeReport:
    pairs: list
    ratio_max: float
    ratio_min: float
    n_flagged: int

    def table(self):
        return np.array([[p.linf_distance, p.misfit, p.ratio] for p in self.pairs])


def _random_admissible_model(model, rng):
    """model with random coefficients whose evaluated field stays inside its
    bounds; the frozen tiles stay pinned."""
    partition, c_min, c_max = model.partition, model.c_min, model.c_max
    grid = partition.grid
    n = partition.n_subdomains
    margin = 0.2 * (c_max - c_min)
    coeffs = np.zeros((n, 1 + grid.dim))
    coeffs[:, 0] = rng.uniform(c_min + margin, c_max - margin, size=n)
    for j in range(n):
        lo, hi = partition.bounding_box(j)
        reach = margin
        for d in range(grid.dim):
            span = max(hi[d], 1e-9)
            amp = reach / (grid.dim * span)
            coeffs[j, 1 + d] = rng.uniform(-amp, amp)
    return model.with_coefficient_vector(coeffs.ravel())


def evaluate_pair(model_a, model_b, sim_sources, obs_sources, receivers, phys):
    """Sup-norm distance and two-model misfit of one admissible pair.

    Model a is simulated from sim_sources, model b supplies the observations;
    both use the same grid and discretization.
    """
    field_b = evaluate_model(model_b)
    linf = float(np.max(np.abs(evaluate_model(model_a).values - field_b.values)))
    data = acquisition.synthesize(field_b, obs_sources, receivers, phys)
    objective = Objective(model_a, sim_sources, data, phys)
    return linf, objective.value(model_a.coefficient_vector)


def probe_stability(model, phys, receivers, obs_sources, sim_sources, n_pairs, seed):
    """Ratio table ||c1 - c2||_inf / sqrt(J(c1, c2)) over random pairs.

    model supplies the partition, the speed bounds and the frozen
    coefficients that both models of a pair keep.  A pair's ratio is nan at
    zero distance (excluded), inf at zero misfit (flagged, not dropped),
    else linf / sqrt(J), flagged above 1e6 times the median finite ratio.
    ratio_min and ratio_max range over the rest.  Fewer than two pairs or a
    negative seed is a ConfigError.
    """
    if n_pairs < 2:
        raise ConfigError(f"need at least two pairs, got {n_pairs}")
    if seed < 0:
        raise ConfigError(f"the seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n_pairs):
        ma = _random_admissible_model(model, rng)
        mb = _random_admissible_model(model, rng)
        linf, value = evaluate_pair(ma, mb, sim_sources, obs_sources, receivers, phys)
        ratio = (float("nan") if linf == 0.0 else float("inf") if value <= 0.0
                 else float(linf / np.sqrt(value)))
        pairs.append(StabilityPair(linf, value, ratio, flagged=ratio == float("inf"),
                                   excluded=linf == 0.0))
    finite = [p.ratio for p in pairs if np.isfinite(p.ratio)]
    if finite:
        median = np.median(finite)
        for p in pairs:
            if p.ratio > 1e6 * median:  # false at nan, true at inf
                p.flagged = True
    kept = [p.ratio for p in pairs if not p.excluded and not p.flagged]
    return StabilityProbeReport(
        pairs,
        ratio_max=max(kept) if kept else float("nan"),
        ratio_min=min(kept) if kept else float("nan"),
        n_flagged=sum(p.flagged for p in pairs),
    )


def write_stability_csv(report, path):
    rows = ["linf_distance, misfit, ratio, flagged, excluded\n"]
    rows += [f"{p.linf_distance:.17g}, {p.misfit:.17g}, {p.ratio:.17g}, "
             f"{int(p.flagged)}, {int(p.excluded)}\n" for p in report.pairs]
    write_text_atomic(path, "".join(rows))
