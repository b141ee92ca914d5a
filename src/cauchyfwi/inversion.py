"""L-BFGS driver with backtracking and stagnation stop.

Each iteration solves the forward problem for the current model, forms the
reciprocity-gap misfit and its coefficient-space gradient, builds an L-BFGS
direction from the last LBFGS_PAIRS steps, and backtracks along
c - alpha * s until the Armijo condition holds and the trial model stays
inside the speed bounds.  The run stops at the iteration cap, on stagnation
of the misfit over a trailing window, or when a steepest-descent line
search fails.  A failed search along an L-BFGS direction built from stored
pairs is retried once as a steepest-descent restart, which drops the
pairs; a search without pairs is already steepest descent and is not
repeated.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import BoundsViolationError, SolverBreakdownError
from .geometry import coefficient_gradient, evaluate_model
from .helmholtz import assemble
from .misfit_adjoint import misfit_and_gradient, misfit_only
from .textio import write_text_atomic

# Stored L-BFGS pairs; the model has a few dozen free coefficients.
LBFGS_PAIRS = 5
# A pair is skipped unless s'y > CURVATURE_TOL |s| |y|.
CURVATURE_TOL = 1e-12


@dataclass
class OptimConfig:
    """Stopping and line-search constants.

    The iteration floor keeps the run alive through early slow progress;
    stagnation then stops it once the relative misfit decrease over the
    last n_eps iterations drops below eps_j.  initial_step_fraction sets
    the first trial step only where no L-BFGS pair is stored, on the first
    iteration and after a restart: that step moves the largest coefficient
    by this fraction of the speed range.  Elsewhere the first trial is the
    unit step.
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
        if not self.initial_step_fraction > 0:
            raise ValueError("initial_step_fraction must be positive")
        if self.max_backtracks < 0:
            raise ValueError("max_backtracks must not be negative")


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


def lbfgs_direction(grad, pairs):
    """L-BFGS search direction H g by the two-loop recursion.

    pairs holds (s, y) steps and gradient changes, oldest first; the initial
    inverse Hessian is gamma I with gamma = s'y / y'y of the newest pair, and
    no pairs give the gradient itself.  The update convention is
    c - alpha * s, so the direction aligns with +g.  It is a descent
    direction whenever every pair has s'y > 0, which update_pairs ensures.
    """
    q = np.array(grad, dtype=float)
    if not pairs:
        return q
    rhos = [1.0 / float(s @ y) for s, y in pairs]
    alphas = []
    for (s, y), rho in zip(reversed(pairs), reversed(rhos)):
        a = rho * float(s @ q)
        q -= a * y
        alphas.append(a)
    s, y = pairs[-1]
    r = (float(s @ y) / float(y @ y)) * q
    for (s, y), rho, a in zip(pairs, rhos, reversed(alphas)):
        r += (a - rho * float(y @ r)) * s
    return r


def update_pairs(pairs, s, y):
    """Store (s, y) unless it fails the curvature test
    s'y > CURVATURE_TOL |s| |y|; pairs is a deque that drops its oldest
    pair beyond its maxlen."""
    if float(s @ y) > CURVATURE_TOL * float(np.linalg.norm(s) * np.linalg.norm(y)):
        pairs.append((s, y))


@dataclass
class LineSearchResult:
    ok: bool
    alpha: float
    misfit: float
    coefficients: np.ndarray
    backtracks: int
    rejected: RejectedTrials = field(default_factory=RejectedTrials)


def line_search(coefficients, misfit_0, grad, direction, misfit_fn, cfg, alpha,
                rejected=None):
    """Backtracking along c - alpha * s under Armijo plus bound feasibility.

    alpha is the first trial step; each rejection multiplies it by
    backtrack_rho.  misfit_fn(trial) returns the trial's misfit.  A trial
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
    if rejected is None:
        rejected = RejectedTrials()
    for m in range(cfg.max_backtracks + 1):
        trial = coefficients - alpha * np.asarray(direction)
        try:
            value = misfit_fn(trial)
        except BoundsViolationError:
            rejected.bounds += 1
        except SolverBreakdownError:
            rejected.breakdown += 1
        else:
            if value <= misfit_0 - cfg.armijo_c1 * alpha * gs:
                return LineSearchResult(True, alpha, value, trial, m, rejected)
            rejected.armijo += 1
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

    The last value call keeps its vector's bytes, system (with its
    factorization), forward fields and gap matrix; a value_and_gradient
    call at the same bytes reuses them and solves only the adjoints.  Every
    call drops the kept entry first, so at most one system is alive.
    """

    def __init__(self, model, sim_sources, data, phys):
        self.model = model
        self.sim_sources = sim_sources
        self.data = data
        self.phys = phys
        self.solves = 0
        self._kept = None

    def _system(self, vec):
        model = self.model.with_coefficient_vector(vec)
        return assemble(model.partition.grid, evaluate_model(model), self.phys)

    def value(self, vec):
        """Misfit alone: n_sim forward solves."""
        self._kept = None
        system = self._system(vec)
        try:
            value, gap, fields = misfit_only(system, self.sim_sources, self.data)
        finally:
            self.solves += system.solve_count
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
                                                    fields, gap)
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
    gradient, projection onto the partition coefficients, L-BFGS
    direction, backtracking update.  Each trial of the update assembles,
    factorizes and runs n_sim forward solves.
    Returns the last accepted model, one record per iteration, and the
    termination reason.  The accepted misfit sequence is non-increasing and
    frozen coefficients are bit-identical to the initial model's.
    """
    objective = Objective(initial_model, sim_sources, data, phys)
    coefficients = initial_model.coefficient_vector.copy()
    pairs = deque(maxlen=LBFGS_PAIRS)
    grad_prev = step = None
    records = []
    speed_range = initial_model.c_max - initial_model.c_min
    reason = "max_iterations"

    def first_trial(direction):
        # the unit step of an L-BFGS direction; without pairs, the step that
        # moves the largest coefficient by initial_step_fraction of the range
        if pairs:
            return 1.0
        return cfg.initial_step_fraction * speed_range / float(np.max(np.abs(direction)))

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

        if step is not None:
            update_pairs(pairs, step, grad - grad_prev)
        direction = lbfgs_direction(grad, pairs)
        if float(grad @ direction) <= 0:
            pairs.clear()
            direction = grad.copy()

        rejected = RejectedTrials()
        result = line_search(coefficients, value, grad, direction, objective.value,
                             cfg, first_trial(direction), rejected)
        if not result.ok and pairs:
            # one automatic steepest-descent restart, which forgets the pairs;
            # without pairs it would repeat the failed search
            pairs.clear()
            direction = grad.copy()
            result = line_search(coefficients, value, grad, direction, objective.value,
                                 cfg, first_trial(direction), rejected)
        records.append(IterationRecord(
            j, value, grad_norm, result.alpha, result.backtracks,
            time.perf_counter() - t0, objective.solves - solves_0, rejected,
        ))
        if callback is not None:
            callback(records[-1])
        if not result.ok:
            reason = "line_search_failure"
            break

        step = result.coefficients - coefficients
        coefficients = result.coefficients
        grad_prev = grad

        stop, _ = stagnation([r.misfit for r in records], cfg)
        if stop:
            reason = "stagnation"
            break

    return InversionResult(initial_model.with_coefficient_vector(coefficients),
                           records, reason)


def write_iteration_log(records, path):
    """CSV log 'iter, J, grad_norm, alpha, solves', one row per iteration."""
    rows = ["iter, J, grad_norm, alpha, solves\n"]
    rows += [f"{r.iteration}, {r.misfit:.17g}, {r.grad_norm:.17g}, "
             f"{r.alpha:.17g}, {r.n_solves}\n" for r in records]
    write_text_atomic(path, "".join(rows))
