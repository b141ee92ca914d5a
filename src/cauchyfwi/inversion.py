"""Nonlinear conjugate-gradient driver with backtracking and stagnation stop.

Each iteration solves the forward problem for the current model, forms the
reciprocity-gap misfit and its coefficient-space gradient, builds a
clamped-beta conjugate direction, and backtracks along c - alpha * s until
the Armijo condition holds and the trial model stays inside the speed
bounds.  The run stops at the iteration cap, on stagnation of the misfit
over a trailing window, or when the line search fails twice (once after an
automatic steepest-descent restart).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import BoundsViolationError, SolverBreakdownError
from .geometry import coefficient_gradient, evaluate_model
from .helmholtz import assemble
from .misfit_adjoint import misfit_and_gradient, misfit_only, source_specs


@dataclass
class OptimConfig:
    """Stopping and line-search constants.

    The iteration floor keeps the run alive through early slow progress;
    stagnation then stops it once the relative misfit decrease over the
    last n_eps iterations drops below eps_j.
    """

    n_iter_min: int = 50
    n_iter_max: int = 250
    n_eps: int = 10
    eps_j: float = 0.01
    armijo_c1: float = 1e-4
    backtrack_rho: float = 0.5
    initial_step_fraction: float = 0.01
    max_backtracks: int = 30

    def __post_init__(self):
        if not self.n_iter_min <= self.n_iter_max:
            raise ValueError("n_iter_min must not exceed n_iter_max")
        if not 0 < self.eps_j < 1:
            raise ValueError("eps_j must lie in (0, 1)")
        if self.n_eps < 1:
            raise ValueError("n_eps must be positive")
        if not 0 < self.armijo_c1 < 1:
            raise ValueError("armijo_c1 must lie in (0, 1)")
        if not 0 < self.backtrack_rho < 1:
            raise ValueError("backtrack_rho must lie in (0, 1)")


@dataclass
class RejectedTrials:
    """Line-search trials rejected, by cause.

    bounds: the trial speed left the bounds; armijo: the trial failed the
    Armijo test; early: those Armijo rejections proven before every forward
    solve had run; breakdown: the factorization or a solve failed.
    """

    bounds: int = 0
    armijo: int = 0
    early: int = 0
    breakdown: int = 0


@dataclass
class IterationRecord:
    """One driver iteration; rejected sums both line searches of a restart."""

    iteration: int
    misfit: float
    grad_norm: float
    alpha: float
    backtracks: int
    wall_time_s: float
    n_solves: int
    rejected: RejectedTrials = field(default_factory=RejectedTrials)


@dataclass
class InversionResult:
    model: object
    records: list
    reason: str

    @property
    def misfit_history(self):
        return [r.misfit for r in self.records]


def pr_direction(grad, grad_prev, dir_prev):
    """Conjugate direction with the clamped two-gradient beta.

    beta = max(0, <g, g - g_prev> / <g_prev, g_prev>); the clamp restores
    steepest descent whenever the curvature estimate turns negative.  The
    first iteration (or a vanished previous gradient) returns the gradient
    itself.  The update convention is c - alpha * s, so s aligns with +g.
    """
    g = np.asarray(grad, dtype=float)
    if grad_prev is None or dir_prev is None:
        return g.copy()
    gp = np.asarray(grad_prev, dtype=float)
    denom = float(gp @ gp)
    if denom == 0.0:
        return g.copy()
    beta = max(0.0, float(g @ (g - gp)) / denom)
    return g + beta * np.asarray(dir_prev, dtype=float)


@dataclass
class LineSearchResult:
    ok: bool
    alpha: float
    misfit: float
    coefficients: np.ndarray
    backtracks: int
    rejected: RejectedTrials = field(default_factory=RejectedTrials)


def line_search(coefficients, misfit_0, grad, direction, misfit_fn, cfg, speed_range,
                rejected=None):
    """Backtracking along c - alpha * s under Armijo plus bound feasibility.

    The first trial step moves the largest coefficient by
    initial_step_fraction of the admissible speed range.
    misfit_fn(trial, bound) returns the trial's misfit, or inf once that
    misfit is proven to exceed bound, the trial's Armijo bound.  A trial
    that violates the speed bounds (BoundsViolationError) or breaks the
    solver (SolverBreakdownError) is rejected regardless of its misfit.
    Rejected trials are counted into `rejected` (a new RejectedTrials if
    None), which the result carries.
    Requires <grad, direction> > 0 (a descent direction for the subtractive
    update); the caller resets the direction otherwise.
    """
    gs = float(np.asarray(grad) @ np.asarray(direction))
    if gs <= 0:
        raise ValueError("line search needs a descent direction (<g, s> > 0)")
    smax = float(np.max(np.abs(direction)))
    if smax == 0:
        raise ValueError("zero search direction")
    alpha = cfg.initial_step_fraction * speed_range / smax
    if rejected is None:
        rejected = RejectedTrials()
    for m in range(cfg.max_backtracks + 1):
        trial = coefficients - alpha * np.asarray(direction)
        bound = misfit_0 - cfg.armijo_c1 * alpha * gs
        try:
            value = misfit_fn(trial, bound)
        except BoundsViolationError:
            rejected.bounds += 1
        except SolverBreakdownError:
            rejected.breakdown += 1
        else:
            if value <= bound:
                return LineSearchResult(True, alpha, value, trial, m, rejected)
            rejected.armijo += 1
            if value == math.inf:
                rejected.early += 1
        alpha *= cfg.backtrack_rho
    return LineSearchResult(False, 0.0, misfit_0, np.asarray(coefficients),
                            cfg.max_backtracks + 1, rejected)


def stagnation(history, cfg):
    """Stop decision from the misfit history (most recent last).

    Below the iteration floor, or with fewer than n_eps + 1 values, the
    answer is always continue.  Otherwise stop when the relative decrease
    over the trailing window falls under eps_j.
    """
    j = len(history)
    if j < cfg.n_iter_min or j <= cfg.n_eps:
        return False, None
    ref = history[j - cfg.n_eps - 1]
    if ref == 0:
        return True, 0.0
    e = (ref - history[-1]) / ref
    return e < cfg.eps_j, e


def relative_l2_error(reference, reconstruction):
    """Node-quadrature-weighted relative L2 distance between two fields."""
    if reference.grid != reconstruction.grid:
        raise ValueError("fields live on different grids")
    w = reference.grid.node_weights()
    ref = np.asarray(reference.values, dtype=float)
    rec = np.asarray(reconstruction.values, dtype=float)
    denom = np.sqrt(w @ ref ** 2)
    if denom == 0:
        raise ValueError("reference field has zero norm")
    return float(np.sqrt(w @ (ref - rec) ** 2) / denom)


class Objective:
    """Misfit of a coefficient vector, alone or with its coefficient gradient.

    model supplies the partition, the speed bounds and the frozen
    coefficients; each evaluation swaps in a new coefficient vector and
    raises BoundsViolationError when the evaluated speed leaves the bounds.
    solves counts the right-hand sides solved over all evaluations so far.

    The last value call whose forward solves all ran keeps its vector's
    bytes, system (with its factorization), forward fields and gap matrix;
    a value_and_gradient call at the same bytes reuses them and solves only
    the adjoints.  Every call drops the kept entry first, so at most one
    system is alive.
    """

    def __init__(self, model, sim_sources, data, phys):
        self.model = model
        self.sim_sources = sim_sources
        self.data = data
        self.phys = phys
        self.solves = 0
        self._specs = source_specs(model.partition.grid, sim_sources)
        self._order = None  # sources by descending misfit share at the last gradient
        self._kept = None

    def _system(self, vec):
        model = self.model.with_coefficient_vector(vec)
        return assemble(model.partition.grid, evaluate_model(model), self.phys)

    def value(self, vec, bound=None):
        """Misfit alone: n_sim forward solves, fewer when the misfit is
        proven above bound early, and then inf is returned.

        The sources are tried in descending order of their misfit share at
        the last value_and_gradient vector, so an excess shows early.
        """
        self._kept = None
        system = self._system(vec)
        try:
            value, gap, fields = misfit_only(system, self.sim_sources, self.data, bound=bound,
                                             order=self._order, specs=self._specs)
        finally:
            self.solves += system.solve_count
        if gap is not None:
            self._kept = (_key(vec), system, fields, gap)
        return value

    def value_and_gradient(self, vec):
        """Misfit and its coefficient gradient: n_sim adjoint solves, plus
        n_sim forward solves on a new factorization unless the last value
        call was at the same vector."""
        if self._kept is None or self._kept[0] != _key(vec):
            self.value(vec)  # drops the kept system before assembling
        _, system, fields, gap = self._kept
        self._kept = None
        before = system.solve_count
        try:
            value, nodal_grad = misfit_and_gradient(system, self.sim_sources, self.data,
                                                    forward=(fields, gap))
        finally:
            self.solves += system.solve_count - before
        share = gap.sim_weights * ((np.abs(gap.values) ** 2) @ gap.obs_weights)
        self._order = np.argsort(-share, kind="stable")
        return value, coefficient_gradient(nodal_grad, self.model.partition)


def _key(vec):
    return np.asarray(vec, dtype=float).tobytes()


def run_inversion(data, sim_sources, initial_model, cfg, phys, callback=None):
    """Reconstruct the wave speed from Cauchy data.

    Per iteration: n_sim aggregated adjoint solves on the factorization and
    forward fields of the model the previous line search accepted (the
    first iteration assembles and solves its n_sim forward fields), nodal
    gradient, projection onto the partition coefficients, conjugate
    direction, backtracking update.  Each trial of the update assembles,
    factorizes and runs up to n_sim forward solves.
    Returns the last accepted model, one record per iteration, and the
    termination reason.  The accepted misfit sequence is non-increasing and
    frozen coefficients are bit-identical to the initial model's.
    """
    objective = Objective(initial_model, sim_sources, data, phys)
    coefficients = initial_model.coefficient_vector.copy()
    grad_prev = direction_prev = None
    records = []
    speed_range = initial_model.c_max - initial_model.c_min
    restarted = False
    reason = "max_iterations"

    for j in range(1, cfg.n_iter_max + 1):
        t0 = time.perf_counter()
        solves_0 = objective.solves
        value, grad = objective.value_and_gradient(coefficients)
        grad_norm = float(np.linalg.norm(grad))

        if grad_norm == 0.0:
            reason = "stationary"
            records.append(IterationRecord(j, value, grad_norm, 0.0, 0,
                                           time.perf_counter() - t0,
                                           objective.solves - solves_0))
            break

        direction = pr_direction(grad, grad_prev, direction_prev)
        if float(grad @ direction) <= 0:
            direction = grad.copy()

        rejected = RejectedTrials()
        result = line_search(coefficients, value, grad, direction,
                             objective.value, cfg, speed_range, rejected)
        if not result.ok and not restarted:
            # one automatic steepest-descent restart
            restarted = True
            direction = grad.copy()
            result = line_search(coefficients, value, grad, direction,
                                 objective.value, cfg, speed_range, rejected)
        records.append(IterationRecord(
            j, value, grad_norm, result.alpha, result.backtracks,
            time.perf_counter() - t0, objective.solves - solves_0, rejected,
        ))
        if callback is not None:
            callback(records[-1])
        if not result.ok:
            reason = "line_search_failure"
            break

        coefficients = result.coefficients
        grad_prev = grad
        direction_prev = direction
        restarted = False

        stop, _ = stagnation([r.misfit for r in records], cfg)
        if stop:
            reason = "stagnation"
            break

    return InversionResult(initial_model.with_coefficient_vector(coefficients),
                           records, reason)


def write_iteration_log(records, path):
    """CSV log 'iter, J, grad_norm, alpha, solves', one row per iteration."""
    with open(path, "w") as f:
        f.write("iter, J, grad_norm, alpha, solves\n")
        for r in records:
            f.write(
                f"{r.iteration}, {r.misfit:.17g}, {r.grad_norm:.17g}, "
                f"{r.alpha:.17g}, {r.n_solves}\n"
            )
