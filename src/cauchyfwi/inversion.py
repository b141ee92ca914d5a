"""Preconditioned L-BFGS driver with backtracking, stopped by the
discrepancy principle or on stagnation.

Each iteration forms the reciprocity-gap misfit of the current model and
its coefficient-space gradient, then backtracks along c - alpha * s, with
s the L-BFGS direction built from every step since the start or the last
restart, until the Armijo condition holds and the trial stays inside the
speed bounds.  When that search fails, or s is not a descent direction,
the pairs are cleared and one more search runs along M g, which s without
pairs already is; a zero gradient searches nothing.  M, the diagonal of
squared coefficient_scales, starts the recursion as gamma M: the
intercepts a_j are speeds and the slopes A_j speeds per metre, so without
M a step barely moves the slopes.

The run stops as "stationary" at a zero gradient, "line_search_failure"
when no search succeeded, "discrepancy" once an accepted misfit falls to
DISCREPANCY_TAU times its noise floor (noisy data only), "stagnation"
when the misfit stalls over a trailing window, or "max_iterations" at the
cap (OptimConfig).  A misfit, noise floor, gradient norm or <g, s> that
is not finite raises CauchyFwiError.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .acquisition import check_frequency
from .errors import BoundsViolationError, CauchyFwiError, GeometryError, SolverBreakdownError
from .geometry import coefficient_gradient, evaluate_model
from .helmholtz import assemble
from .misfit_adjoint import misfit_and_gradient, misfit_only
from .textio import write_text_atomic

# A pair is skipped unless s'y > CURVATURE_TOL |s| |y|.
CURVATURE_TOL = 1e-12
# Discrepancy principle: stop once an accepted misfit J <= DISCREPANCY_TAU
# times its noise floor E[J_noise].  On the default configuration 1.5 is
# reached on noise seeds 1-5, 7, 11 and 1234; on 12 and 2029 the runs stall
# at J / E[J_noise] = 1.56-1.57 and stop by stagnation after 57-60 iterations.
DISCREPANCY_TAU = 1.5
# Backtracking line search, at textbook values (Nocedal and Wright,
# Numerical Optimization, 2nd ed., 3.1).
ARMIJO_C1 = 1e-4
BACKTRACK_RHO = 0.5
INITIAL_STEP_FRACTION = 0.01
MAX_BACKTRACKS = 30


@dataclass
class OptimConfig:
    """The stopping rule.

    On noisy data the run stops as soon as an accepted misfit reaches
    DISCREPANCY_TAU times its noise floor, at any iteration.  Otherwise the
    iteration floor n_iter_min keeps the run alive through early slow
    progress; stagnation then stops it once the relative misfit decrease
    over the last n_eps iterations drops below eps_j.  n_iter_max caps the run.
    """

    n_iter_min: int = 50
    n_iter_max: int = 250
    n_eps: int = 10
    eps_j: float = 0.01

    def __post_init__(self):
        if not 0 <= self.n_iter_min <= self.n_iter_max:
            raise ValueError("n_iter_min must lie in [0, n_iter_max]")
        if self.n_iter_max < 1:
            raise ValueError("n_iter_max must be positive")
        if not 0 < self.eps_j < 1:
            raise ValueError("eps_j must lie in (0, 1)")
        if self.n_eps < 1:
            raise ValueError("n_eps must be positive")


@dataclass
class RejectedTrials:
    """Line-search trials rejected, by cause.

    bounds: the trial speed left the bounds; armijo: the trial failed the
    Armijo test; breakdown: the factorization or a solve failed.
    """

    bounds: int = 0
    armijo: int = 0
    breakdown: int = 0


@dataclass
class IterationRecord:
    """One driver iteration; rejected sums both line searches of a restart.

    misfit and noise_floor are J and E[J_noise] at the start of the
    iteration; accepted_misfit and accepted_noise_floor are those of the
    model the line search accepted (the start values when it failed).
    """

    iteration: int
    misfit: float
    noise_floor: float
    grad_norm: float
    alpha: float
    wall_time_s: float
    n_solves: int
    accepted_misfit: float
    accepted_noise_floor: float
    rejected: RejectedTrials = field(default_factory=RejectedTrials)


@dataclass
class InversionResult:
    """The written model, its misfit and gap matrix, one record per
    iteration and the termination reason."""

    model: object
    misfit: float
    gap: object
    records: list
    reason: str

    @property
    def misfit_history(self):
        return [r.misfit for r in self.records]


def coefficient_scales(model):
    """Natural perturbation scale per coefficient: the speed range for a_j,
    the speed range per domain extent for A_jd."""
    part = model.partition
    grid = part.grid
    span = model.c_max - model.c_min
    scales = np.empty((part.n_subdomains, 1 + grid.dim))
    scales[:, 0] = span
    for d in range(grid.dim):
        scales[:, 1 + d] = span / grid.extent[d]
    return scales.ravel()


def lbfgs_direction(grad, pairs, metric):
    """Preconditioned L-BFGS search direction H g by the two-loop recursion.

    pairs holds any number of (s, y) steps and gradient changes, oldest
    first; metric is the diagonal of M.  The initial inverse Hessian is
    gamma M with gamma = s'y / y'My of the newest pair, and no pairs give
    M g.  The update convention is c - alpha * s, so the direction aligns
    with +g.  It is a descent direction whenever every pair has s'y > 0,
    which update_pairs ensures, and M is positive.
    """
    q = np.array(grad, dtype=float)
    if not pairs:
        return metric * q
    rhos = [1.0 / float(s @ y) for s, y in pairs]
    alphas = []
    for (s, y), rho in zip(reversed(pairs), reversed(rhos)):
        a = rho * float(s @ q)
        q -= a * y
        alphas.append(a)
    s, y = pairs[-1]
    r = (float(s @ y) / float(y @ (metric * y))) * (metric * q)
    for (s, y), rho, a in zip(pairs, rhos, reversed(alphas)):
        r += (a - rho * float(y @ r)) * s
    return r


def update_pairs(pairs, s, y):
    """Append (s, y) to the list pairs unless it fails the curvature test
    s'y > CURVATURE_TOL |s| |y|.  The driver keeps every pair it stores
    until a restart clears them, so n_iter_max bounds their number."""
    if float(s @ y) > CURVATURE_TOL * float(np.linalg.norm(s) * np.linalg.norm(y)):
        pairs.append((s, y))


@dataclass
class LineSearchResult:
    ok: bool
    alpha: float
    misfit: float
    coefficients: np.ndarray


def line_search(coefficients, misfit_0, grad, direction, misfit_fn, alpha, rejected):
    """Backtracking along c - alpha * s under Armijo plus bound feasibility.

    alpha is the first trial step; each rejection multiplies it by
    BACKTRACK_RHO, and MAX_BACKTRACKS + 1 rejections fail the search.
    misfit_fn(trial) returns the trial's misfit, accepted when at most
    misfit_0 - ARMIJO_C1 alpha <grad, direction>.  A trial that violates the
    speed bounds (BoundsViolationError) or breaks the solver
    (SolverBreakdownError) is rejected regardless of its misfit.
    Each rejected trial is counted by cause into the caller's RejectedTrials
    `rejected`.
    Requires <grad, direction> > 0 (a descent direction for the subtractive
    update), and raises ValueError otherwise.
    """
    gs = float(np.asarray(grad) @ np.asarray(direction))
    if gs <= 0:
        raise ValueError("line search needs a descent direction (<g, s> > 0)")
    for _ in range(MAX_BACKTRACKS + 1):
        trial = coefficients - alpha * np.asarray(direction)
        try:
            value = misfit_fn(trial)
        except BoundsViolationError:
            rejected.bounds += 1
        except SolverBreakdownError:
            rejected.breakdown += 1
        else:
            if value <= misfit_0 - ARMIJO_C1 * alpha * gs:
                return LineSearchResult(True, alpha, value, trial)
            rejected.armijo += 1
        alpha *= BACKTRACK_RHO
    return LineSearchResult(False, 0.0, misfit_0, np.asarray(coefficients))


def discrepancy(misfit, noise_floor):
    """Discrepancy-principle stop: J <= DISCREPANCY_TAU E[J_noise], never
    on clean data (a zero floor)."""
    return noise_floor > 0 and misfit <= DISCREPANCY_TAU * noise_floor


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


def _finite(name, value):
    """value, or CauchyFwiError if an overflow made it infinite or nan."""
    if not np.isfinite(value):
        raise CauchyFwiError(f"the {name} is {value}: the data overflow float arithmetic")
    return value


class Objective:
    """Misfit of a coefficient vector, alone or with its coefficient gradient.

    model supplies the partition, the speed bounds and the frozen
    coefficients; each evaluation swaps in a new coefficient vector and
    raises BoundsViolationError when the evaluated speed leaves the bounds.
    solves counts the right-hand sides solved over all evaluations so far,
    and gap holds the gap matrix of the last value call, with its noise
    floor.

    The last value call keeps its vector's bytes, system (with its
    factorization), forward fields and gap matrix; a value_and_gradient
    call at the same bytes reuses them and solves only the adjoints.  Every
    call drops the kept entry first, so at most one system is alive.  Data
    at another frequency than phys's raise DataFormatError, as in read_data,
    and data whose receivers were built for another grid than the model's
    raise GeometryError; a misfit or noise floor that overflows raises
    CauchyFwiError, unwarned.
    """

    def __init__(self, model, sim_sources, data, phys):
        check_frequency(data.freq_hz, phys.freq_hz, "data")
        if data.receivers.grid != model.partition.grid:
            raise GeometryError("data's receiver layer was built for another grid "
                                "than the model's")
        self.model = model
        self.sim_sources = sim_sources
        self.data = data
        self.phys = phys
        self.solves = 0
        self.gap = None
        self._kept = None

    def _system(self, vec):
        model = self.model.with_coefficient_vector(vec)
        return assemble(model.partition.grid, evaluate_model(model), self.phys)

    def value(self, vec):
        """Misfit alone: n_sim forward solves."""
        self._kept = None
        system = self._system(vec)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                value, gap, fields = misfit_only(system, self.sim_sources, self.data)
        finally:
            self.solves += system.solve_count
        _finite("misfit", value)
        _finite("misfit's noise floor", gap.noise_floor)
        self.gap = gap
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
            value, nodal_grad = misfit_and_gradient(system, self.data, fields, gap)
        finally:
            self.solves += system.solve_count - before
        return value, coefficient_gradient(nodal_grad, self.model.partition)


def _key(vec):
    return np.asarray(vec, dtype=float).tobytes()


def run_inversion(data, sim_sources, initial_model, cfg, phys, callback=None):
    """Reconstruct the wave speed from Cauchy data.

    Per iteration: n_sim aggregated adjoint solves on the factorization and
    forward fields of the model the previous line search accepted (the
    first iteration assembles and solves its n_sim forward fields), nodal
    gradient, projection onto the partition coefficients, and the search
    loop of the module docstring, whose trials each assemble, factorize and
    run n_sim forward solves.  Every record, the stationary one included,
    reaches callback.  After an accepted update the run stops with reason
    "discrepancy" when the accepted misfit and its noise floor pass
    discrepancy(), then with "stagnation" when the misfit history does; so
    every solve belongs to a record, and no gradient is computed for a
    model the run would not move.
    Returns the last accepted model with its misfit and gap matrix, one
    record per iteration, and the termination reason.  A record holds the
    misfit at the start of its iteration.  The accepted misfit sequence is
    non-increasing and frozen coefficients are bit-identical to the initial
    model's.
    """
    objective = Objective(initial_model, sim_sources, data, phys)
    coefficients = initial_model.coefficient_vector.copy()
    metric = coefficient_scales(initial_model) ** 2
    pairs = []
    grad_prev = step = None
    records = []
    speed_range = initial_model.c_max - initial_model.c_min
    reason = "max_iterations"

    for j in range(1, cfg.n_iter_max + 1):
        t0 = time.perf_counter()
        solves_0 = objective.solves
        value, grad = objective.value_and_gradient(coefficients)
        misfit, gap, floor = value, objective.gap, objective.gap.noise_floor
        with np.errstate(over="ignore"):
            grad_norm = _finite("gradient norm", float(np.linalg.norm(grad)))
        if step is not None:
            update_pairs(pairs, step, grad - grad_prev)

        rejected = RejectedTrials()
        result = LineSearchResult(False, 0.0, value, coefficients)
        while True:
            with np.errstate(over="ignore", invalid="ignore"):
                direction = lbfgs_direction(grad, pairs, metric)
                gs = _finite("<g, s>", float(grad @ direction))
            if gs > 0:
                # the unit step with pairs; without, the step that moves the
                # largest coefficient by INITIAL_STEP_FRACTION of the range
                alpha = (1.0 if pairs else INITIAL_STEP_FRACTION * speed_range
                         / float(np.max(np.abs(direction))))
                result = line_search(coefficients, value, grad, direction,
                                     objective.value, alpha, rejected)
            if result.ok or not pairs:
                break
            pairs.clear()
        if result.ok:
            # the search stops at the accepted trial, the objective's last value call
            misfit, gap = result.misfit, objective.gap
        records.append(IterationRecord(
            j, value, floor, grad_norm, result.alpha,
            time.perf_counter() - t0, objective.solves - solves_0,
            misfit, gap.noise_floor, rejected,
        ))
        if callback is not None:
            callback(records[-1])
        if not result.ok:
            reason = "stationary" if grad_norm == 0.0 else "line_search_failure"
            break

        step = result.coefficients - coefficients
        coefficients = result.coefficients
        grad_prev = grad

        if discrepancy(misfit, gap.noise_floor):
            reason = "discrepancy"
            break
        if stagnation([r.misfit for r in records], cfg)[0]:
            reason = "stagnation"
            break

    return InversionResult(initial_model.with_coefficient_vector(coefficients),
                           misfit, gap, records, reason)


def write_iteration_log(records, path):
    """CSV log 'iter, J, grad_norm, alpha, solves', one row per iteration."""
    rows = ["iter, J, grad_norm, alpha, solves\n"]
    rows += [f"{r.iteration}, {r.misfit:.17g}, {r.grad_norm:.17g}, "
             f"{r.alpha:.17g}, {r.n_solves}\n" for r in records]
    write_text_atomic(path, "".join(rows))
