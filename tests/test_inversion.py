import dataclasses
import gc
import weakref

import numpy as np
import pytest

from cauchyfwi import inversion

from cauchyfwi.acquisition import add_noise, receiver_layer, source_lattice, synthesize
from cauchyfwi.errors import (
    BoundsViolationError,
    CauchyFwiError,
    DataFormatError,
    GeometryError,
    SolverBreakdownError,
)
from cauchyfwi.geometry import (
    Grid,
    NodalField,
    PiecewiseLinearModel,
    build_partition,
    evaluate_model,
)
from cauchyfwi.helmholtz import FORWARD_BLOCK, HelmholtzSystem, PhysicsConfig, assemble
from cauchyfwi.inversion import (
    DISCREPANCY_TAU,
    Objective,
    OptimConfig,
    RejectedTrials,
    coefficient_scales,
    discrepancy,
    lbfgs_direction,
    line_search,
    relative_l2_error,
    run_inversion,
    stagnation,
    update_pairs,
    write_iteration_log,
)

PHYS = PhysicsConfig(freq_hz=25.0, water_speed=1500.0)


def small_problem(seed=0, perturb=0.08):
    grid = Grid((160.0, 120.0), (17, 13))
    partition = build_partition(grid, (80.0, 60.0), water_depth=40.0)
    receivers = receiver_layer(grid, depth_m=30.0)
    obs = source_lattice(grid, depth_m=10.0, count=3, margin_m=20.0)
    sim = source_lattice(grid, depth_m=10.0, count=3, margin_m=20.0)
    rng = np.random.default_rng(seed)
    n = partition.n_subdomains
    coeffs = np.column_stack([
        rng.uniform(1550.0, 1700.0, n),
        rng.uniform(-0.3, 0.3, n),
        rng.uniform(-0.5, 0.5, n),
    ])
    truth = PiecewiseLinearModel(partition, coeffs, 1250.0, 3400.0,
                                 water_speed=1500.0)
    start = coeffs.copy()
    start[~partition.frozen, 0] *= 1.0 + perturb
    initial = PiecewiseLinearModel(partition, start, 1250.0, 3400.0,
                                   water_speed=1500.0)
    data = synthesize(evaluate_model(truth), obs, receivers, PHYS)
    return truth, initial, data, sim


def curved_pairs(rng, n, m):
    """m (s, y) pairs with y = A s for one symmetric positive definite A."""
    a = rng.normal(size=(n, n))
    a = a @ a.T + n * np.eye(n)
    return [(s, a @ s) for s in rng.normal(size=(m, n))]


class TestLbfgsDirection:
    def check_one_pair_against_dense_bfgs(self, scaled):
        rng = np.random.default_rng(17)
        ((s, y),) = curved_pairs(rng, 6, 1)
        g = rng.normal(size=6)
        metric = rng.uniform(1e-3, 1e3, 6) if scaled else np.ones(6)
        m = np.diag(metric)
        rho = 1.0 / float(s @ y)
        h0 = float(s @ y) / float(y @ m @ y) * m
        v = np.eye(6) - rho * np.outer(y, s)
        h = v.T @ h0 @ v + rho * np.outer(s, s)
        assert np.allclose(lbfgs_direction(g, [(s, y)], metric), h @ g,
                           rtol=1e-12, atol=0)

    def test_one_pair_equals_dense_bfgs_product(self):
        self.check_one_pair_against_dense_bfgs(scaled=False)

    def test_one_pair_with_a_diagonal_metric_equals_dense_bfgs_product(self):
        self.check_one_pair_against_dense_bfgs(scaled=True)

    def test_no_pairs_give_the_scaled_gradient(self):
        rng = np.random.default_rng(20)
        g, metric = rng.normal(size=6), rng.uniform(0.1, 10.0, 6)
        assert lbfgs_direction(g, [], metric).tobytes() == (metric * g).tobytes()

    def test_descent_whenever_every_pair_has_positive_curvature(self):
        # up to 2n + 1 pairs in n dimensions: the driver keeps every pair
        rng = np.random.default_rng(18)
        n = 8
        for m in range(2 * n + 2):
            pairs = curved_pairs(rng, n, m)
            metric = rng.uniform(1e-3, 1e3, n)
            for g in rng.normal(size=(20, n)):
                assert float(g @ lbfgs_direction(g, pairs, metric)) > 0

    def test_pair_failing_the_curvature_test_leaves_the_direction(self):
        rng = np.random.default_rng(19)
        pairs = curved_pairs(rng, 5, 2)
        g = rng.normal(size=5)
        metric = np.ones(5)
        before = lbfgs_direction(g, pairs, metric).tobytes()
        s = rng.normal(size=5)
        orthogonal = np.array([s[1], -s[0], 0.0, 0.0, 0.0])
        for y in (-s, orthogonal, np.zeros(5)):
            update_pairs(pairs, s, y)
            assert len(pairs) == 2
            assert lbfgs_direction(g, pairs, metric).tobytes() == before
        update_pairs(pairs, s, s)
        assert len(pairs) == 3

    def test_restart_clears_the_pairs(self, monkeypatch):
        truth, initial, data, sim = small_problem(seed=1)
        cfg = OptimConfig(n_iter_min=1, n_iter_max=4, n_eps=1, eps_j=1e-9)
        stored, searches = [], []
        direction = inversion.lbfgs_direction
        metric = coefficient_scales(initial) ** 2

        def recording_direction(grad, pairs, m):
            assert m.tobytes() == metric.tobytes()
            stored.append(len(pairs))
            return direction(grad, pairs, m)

        def failing_third_search(coefficients, misfit_0, grad, d, misfit_fn, alpha,
                                 rejected):
            fraction_step = (inversion.INITIAL_STEP_FRACTION
                             * (initial.c_max - initial.c_min) / np.max(np.abs(d)))
            on_scaled_gradient = d.tobytes() == (metric * grad).tobytes()
            searches.append((alpha, fraction_step, on_scaled_gradient))
            if len(searches) == 3:
                return inversion.LineSearchResult(False, 0.0, misfit_0, coefficients)
            return line_search(coefficients, misfit_0, grad, d, misfit_fn, alpha, rejected)

        monkeypatch.setattr(inversion, "lbfgs_direction", recording_direction)
        monkeypatch.setattr(inversion, "line_search", failing_third_search)
        result = run_inversion(data, sim, initial, cfg, PHYS)
        assert len(result.records) == 4
        # iteration 3 fails on its pairs, restarts on the scaled gradient
        # (a direction without pairs) with the INITIAL_STEP_FRACTION step,
        # and iteration 4 has one pair again
        assert stored == [0, 1, 2, 0, 1]
        alphas, fraction_steps, on_gradient = zip(*searches)
        assert alphas == (fraction_steps[0], 1.0, 1.0, fraction_steps[3], 1.0)
        assert on_gradient == (True, False, False, True, False)

    def test_driver_keeps_every_pair(self, monkeypatch):
        # ten iterations without a restart store nine pairs, none dropped
        truth, initial, data, sim = small_problem(seed=1)
        cfg = OptimConfig(n_iter_min=1, n_iter_max=10, n_eps=1, eps_j=1e-9)
        stored = []
        direction = inversion.lbfgs_direction

        def recording_direction(grad, pairs, m):
            stored.append(len(pairs))
            return direction(grad, pairs, m)

        monkeypatch.setattr(inversion, "lbfgs_direction", recording_direction)
        result = run_inversion(data, sim, initial, cfg, PHYS)
        assert len(result.records) == 10
        assert stored == list(range(10))

    def test_failed_search_without_pairs_is_not_repeated(self, monkeypatch):
        # the first iteration has no pairs: a restart would search the same
        # gradient direction from the same INITIAL_STEP_FRACTION step
        truth, initial, data, sim = small_problem(seed=1)
        monkeypatch.setattr(inversion, "INITIAL_STEP_FRACTION", 50.0)
        monkeypatch.setattr(inversion, "MAX_BACKTRACKS", 2)
        cfg = OptimConfig(n_iter_min=1, n_iter_max=3, n_eps=1)
        result = run_inversion(data, sim, initial, cfg, PHYS)
        assert result.reason == "line_search_failure"
        assert len(result.records) == 1
        assert result.records[0].rejected == RejectedTrials(bounds=3)

    def test_direction_without_descent_is_followed_by_the_search_along_m_g(self,
                                                                          monkeypatch):
        # every direction built from pairs points uphill: each iteration
        # clears its pair and searches once, along M g
        truth, initial, data, sim = small_problem(seed=1)
        metric = coefficient_scales(initial) ** 2
        direction = inversion.lbfgs_direction
        on_scaled_gradient = []

        def uphill_with_pairs(grad, pairs, m):
            return -direction(grad, pairs, m) if pairs else direction(grad, pairs, m)

        def recording_search(coefficients, misfit_0, grad, d, misfit_fn, alpha, rejected):
            on_scaled_gradient.append(d.tobytes() == (metric * grad).tobytes())
            return line_search(coefficients, misfit_0, grad, d, misfit_fn, alpha, rejected)

        monkeypatch.setattr(inversion, "lbfgs_direction", uphill_with_pairs)
        monkeypatch.setattr(inversion, "line_search", recording_search)
        cfg = OptimConfig(n_iter_min=1, n_iter_max=3, n_eps=1, eps_j=1e-9)
        result = run_inversion(data, sim, initial, cfg, PHYS)
        assert result.reason == "max_iterations"
        assert on_scaled_gradient == [True, True, True]
        assert all(r.alpha > 0 for r in result.records)


class TestLineSearch:
    def quadratic(self, q, c_star):
        def f(c):
            d = c - c_star
            return 0.5 * float(d @ q @ d)
        return f

    def test_quadratic_accepted_at_first_trial(self):
        rng = np.random.default_rng(23)
        a = rng.normal(size=(4, 4))
        q = a @ a.T + 4 * np.eye(4)
        c_star = rng.normal(size=4)
        c0 = c_star + rng.normal(size=4)
        f = self.quadratic(q, c_star)
        g = q @ (c0 - c_star)
        s = g.copy()
        alpha_star = float(g @ s) / float(s @ q @ s)
        # a first trial below 2 alpha* passes Armijo
        rejected = RejectedTrials()
        result = line_search(c0, f(c0), g, s, f, alpha_star, rejected)
        assert result.ok
        assert rejected == RejectedTrials()
        assert result.misfit < f(c0)

    def test_backtracks_when_first_step_too_long(self):
        q = np.diag([4.0, 4.0])
        c_star = np.zeros(2)
        c0 = np.array([1.0, 1.0])
        f = self.quadratic(q, c_star)
        g = q @ c0
        alpha_star = float(g @ g) / float(g @ q @ g)
        rejected = RejectedTrials()
        result = line_search(c0, f(c0), g, g, f, 40 * alpha_star, rejected)
        assert result.ok
        # trials at alpha 10, 5, 2.5, 1.25 and 0.625 overshoot; 0.3125 passes
        assert rejected == RejectedTrials(armijo=5)

    def test_bound_violating_trial_rejected_despite_descent(self):
        # the full step would reduce the quadratic but leaves the bounds
        q = np.eye(2)
        c0 = np.array([1.0, 1.0])
        f_raw = self.quadratic(q, np.zeros(2))
        calls = []

        def f(c):
            calls.append(c.copy())
            if c[0] < 0.75:
                raise BoundsViolationError("out of bounds")
            return f_raw(c)

        g = q @ c0
        # the first trial lands at the origin
        rejected = RejectedTrials()
        result = line_search(c0, f_raw(c0), g, g, f, 1.0, rejected)
        assert result.ok
        assert rejected == RejectedTrials(bounds=2)
        assert result.coefficients[0] >= 0.75

    def test_exhausted_budget_reports_failure(self, monkeypatch):
        def f(c):
            return 1.0  # no decrease anywhere

        g = np.array([1.0])
        monkeypatch.setattr(inversion, "MAX_BACKTRACKS", 5)
        rejected = RejectedTrials()
        result = line_search(np.array([0.0]), 1.0, g, g, f, 1.0, rejected)
        assert not result.ok
        assert rejected == RejectedTrials(armijo=6)

    def test_ascent_direction_rejected(self):
        with pytest.raises(ValueError):
            line_search(np.zeros(2), 1.0, np.array([1.0, 0.0]),
                        np.array([-1.0, 0.0]), lambda c: 0.0, 1.0, RejectedTrials())

    def test_solver_breakdown_is_a_rejected_trial(self):
        q = np.eye(2)
        c0 = np.array([1.0, 1.0])
        f_raw = self.quadratic(q, np.zeros(2))
        calls = []

        def f(c):
            calls.append(c.copy())
            if len(calls) == 1:
                raise SolverBreakdownError("triangular solve returned non-finite values")
            return f_raw(c)

        rejected = RejectedTrials()
        result = line_search(c0, f_raw(c0), c0, c0, f, 0.5, rejected)
        assert result.ok
        assert rejected == RejectedTrials(breakdown=1)

    def test_rejections_are_counted_by_cause(self):
        # trial 1 leaves the bounds, trial 2 lands just above its Armijo
        # bound, trial 3 on its own, smaller bound and is accepted
        c0 = np.array([1.0])
        trials = []

        def f(c):
            trials.append(c[0])
            if len(trials) == 1:
                raise BoundsViolationError("out of bounds")
            if len(trials) == 2:
                return np.nextafter(1.0 - inversion.ARMIJO_C1 * 0.25, np.inf)
            return 1.0 - inversion.ARMIJO_C1 * 0.125

        rejected = RejectedTrials()
        result = line_search(c0, 1.0, c0, c0, f, 0.5, rejected)
        assert result.ok
        assert result.misfit == 1.0 - inversion.ARMIJO_C1 * 0.125
        assert rejected == RejectedTrials(bounds=1, armijo=1)
        assert trials == [0.5, 0.75, 0.875]


class TestStagnation:
    def cfg(self):
        return OptimConfig()  # defaults: floor 50, window 10, 1 %

    def test_flat_window_stops_after_floor(self):
        history = [2.0] * 60
        stop, e = stagnation(history, self.cfg())
        assert stop and e == 0.0

    def test_five_percent_drop_continues(self):
        history = [3.0] * 50 + [2.0] * 10 + [1.9]
        # reference 10 back is 2.0, current 1.9: e = 0.05
        stop, e = stagnation(history, self.cfg())
        assert not stop
        assert e == pytest.approx(0.05)

    def test_below_iteration_floor_never_stops(self):
        history = [1.0] * 49
        stop, _ = stagnation(history, self.cfg())
        assert not stop

    def test_boundary_cases_around_threshold(self):
        base = [5.0] * 49
        just_under = base + [1.0] * 10 + [1.0 * (1 - 0.0099)]
        stop, e = stagnation(just_under, self.cfg())
        assert stop and e < 0.01
        just_over = base + [1.0] * 10 + [1.0 * (1 - 0.0101)]
        stop, e = stagnation(just_over, self.cfg())
        assert not stop and e > 0.01

    def test_short_history_continues(self):
        cfg = OptimConfig(n_iter_min=1, n_iter_max=100, n_eps=10)
        stop, _ = stagnation([1.0] * 5, cfg)
        assert not stop


    def test_clean_run_stops_by_stagnation(self):
        truth, initial, data, sim = small_problem(seed=1)
        cfg = OptimConfig(n_iter_min=4, n_iter_max=30, n_eps=2, eps_j=0.5)
        result = run_inversion(data, sim, initial, cfg, PHYS)
        assert result.reason == "stagnation"
        history = [r.misfit for r in result.records]
        fired = [stagnation(history[:j], cfg)[0] for j in range(1, len(history) + 1)]
        assert fired == [False] * (len(history) - 1) + [True]


class TestDiscrepancy:
    def test_stops_at_tau_times_a_positive_floor(self):
        assert DISCREPANCY_TAU == 1.5
        assert discrepancy(1.5, 1.0)
        assert not discrepancy(np.nextafter(1.5, 2.0), 1.0)
        # clean data have no floor: only stagnation stops such a run
        assert not discrepancy(0.0, 0.0)

    def test_noisy_run_stops_at_its_floor_before_the_iteration_floor(self, monkeypatch):
        truth, initial, data, sim = small_problem(seed=2)
        columns = []
        solve = HelmholtzSystem.solve

        def counting_solve(system, rhs):
            columns.append(np.shape(rhs)[1])
            return solve(system, rhs)

        monkeypatch.setattr(HelmholtzSystem, "solve", counting_solve)
        cfg = OptimConfig()  # n_iter_min 50
        result = run_inversion(add_noise(data, 15.0, 3), sim, initial, cfg, PHYS)
        records = result.records
        assert result.reason == "discrepancy"
        assert len(records) < cfg.n_iter_min
        fired = [discrepancy(r.accepted_misfit, r.accepted_noise_floor) for r in records]
        assert fired == [False] * (len(records) - 1) + [True]
        # each record's accepted values start the next one, and the last
        # record's are the returned model's
        for a, b in zip(records, records[1:]):
            assert (a.accepted_misfit, a.accepted_noise_floor) == (b.misfit, b.noise_floor)
        assert records[-1].accepted_misfit == result.misfit
        assert records[-1].accepted_noise_floor == result.gap.noise_floor > 0
        # no adjoint solve after the stop: every solve belongs to a record
        assert sum(r.n_solves for r in records) == sum(columns)

    def test_clean_run_records_zero_floors(self):
        truth, initial, data, sim = small_problem(seed=2)
        cfg = OptimConfig(n_iter_min=1, n_iter_max=4, n_eps=2, eps_j=1e-9)
        result = run_inversion(data, sim, initial, cfg, PHYS)
        assert result.reason == "max_iterations"
        assert all(r.noise_floor == r.accepted_noise_floor == 0.0 for r in result.records)


class TestRelativeL2Error:
    def test_identical_fields_zero(self):
        grid = Grid((50.0, 30.0), (6, 4))
        f = NodalField(grid, np.random.default_rng(1).uniform(1, 2, grid.n_nodes))
        assert relative_l2_error(f, f) == 0.0

    def test_doubled_field_gives_one(self):
        grid = Grid((50.0, 30.0), (6, 4))
        vals = np.random.default_rng(2).uniform(1, 2, grid.n_nodes)
        ref = NodalField(grid, vals)
        rec = NodalField(grid, 2 * vals)
        assert relative_l2_error(ref, rec) == pytest.approx(1.0, rel=1e-13)

    def test_zero_reference_rejected(self):
        grid = Grid((50.0, 30.0), (6, 4))
        zero = NodalField(grid, np.zeros(grid.n_nodes))
        one = NodalField(grid, np.ones(grid.n_nodes))
        with pytest.raises(ValueError):
            relative_l2_error(zero, one)


def many_source_problem():
    """small_problem with 12 simulation sources, more than one forward block."""
    truth, initial, data, _ = small_problem(seed=1)
    sim = source_lattice(initial.partition.grid, depth_m=10.0, count=6,
                         margin_m=20.0, depth_span_m=10.0, n_layers=2)
    assert sim.n_sources > FORWARD_BLOCK
    return initial, data, sim


def nearby_vectors(model, n, seed):
    rng = np.random.default_rng(seed)
    base = model.coefficient_vector
    free = ~np.repeat(model.partition.frozen, 3)
    for _ in range(n):
        vec = base.copy()
        vec[free] *= 1.0 + 0.01 * rng.normal(size=free.sum())
        yield vec


class TestObjective:
    def test_values_agree_and_solves_are_counted(self):
        truth, initial, data, sim = small_problem(seed=1)
        objective = Objective(initial, sim, data, PHYS)
        vec = initial.coefficient_vector
        value, grad = objective.value_and_gradient(vec)
        assert objective.solves == 2 * sim.n_sources
        assert objective.value(vec) == value
        assert objective.solves == 3 * sim.n_sources
        assert grad.shape == vec.shape

    def test_bound_violation_raises_without_solves(self):
        truth, initial, data, sim = small_problem(seed=1)
        objective = Objective(initial, sim, data, PHYS)
        vec = initial.coefficient_vector.copy()
        vec[~np.repeat(initial.partition.frozen, 3)] = 4000.0
        with pytest.raises(BoundsViolationError):
            objective.value(vec)
        assert objective.solves == 0

    @pytest.mark.parametrize("problem", ["many_sources", "few_sources"])
    def test_gradient_reuses_the_last_value_solves(self, problem):
        if problem == "many_sources":
            initial, data, sim = many_source_problem()
        else:
            truth, initial, data, sim = small_problem(seed=1)
        vec = next(nearby_vectors(initial, 1, seed=12))
        fresh_value, fresh_grad = Objective(initial, sim, data, PHYS).value_and_gradient(vec)
        objective = Objective(initial, sim, data, PHYS)
        objective.value_and_gradient(initial.coefficient_vector)
        objective.value(vec)
        solves_0 = objective.solves
        value, grad = objective.value_and_gradient(vec)
        assert objective.solves - solves_0 == sim.n_sources
        assert value == fresh_value
        assert grad.tobytes() == fresh_grad.tobytes()

    def test_data_on_another_grid_are_refused(self):
        truth, initial, data, sim = small_problem(seed=1)
        # the same extent and tiles at twice the nodes: every receiver node
        # index is valid on the finer grid, but names another point
        grid = Grid((160.0, 120.0), (33, 25))
        partition = build_partition(grid, (80.0, 60.0), water_depth=40.0)
        model = PiecewiseLinearModel(partition, initial.coefficient_vector.reshape(-1, 3),
                                     1250.0, 3400.0, water_speed=1500.0)
        with pytest.raises(GeometryError, match="built for another grid than the model's"):
            Objective(model, sim, data, PHYS)

    def test_other_vector_misses_the_kept_solves(self):
        initial, data, sim = many_source_problem()
        vec = next(nearby_vectors(initial, 1, seed=13))
        other = vec.copy()
        k = np.nonzero(~np.repeat(initial.partition.frozen, 3))[0][0]
        other.view(np.int64)[k] ^= 1  # the last bit of one coefficient
        fresh_value, fresh_grad = Objective(initial, sim, data, PHYS).value_and_gradient(other)
        objective = Objective(initial, sim, data, PHYS)
        objective.value(vec)
        solves_0 = objective.solves
        value, grad = objective.value_and_gradient(other)
        assert objective.solves - solves_0 == 2 * sim.n_sources
        assert value == fresh_value
        assert grad.tobytes() == fresh_grad.tobytes()

    def test_a_miss_releases_the_kept_system_before_assembling(self, monkeypatch):
        initial, data, sim = many_source_problem()
        vec, other = nearby_vectors(initial, 2, seed=14)
        systems, alive = [], []

        def recording_assemble(*args):
            gc.collect()
            alive.append(sum(ref() is not None for ref in systems))
            system = assemble(*args)
            systems.append(weakref.ref(system))
            return system

        monkeypatch.setattr(inversion, "assemble", recording_assemble)
        objective = Objective(initial, sim, data, PHYS)
        objective.value(vec)
        objective.value_and_gradient(other)
        objective.value(vec)
        assert alive == [0, 0, 0]


class TestRunInversion:
    def test_misfit_decreases_and_sequence_non_increasing(self):
        truth, initial, data, sim = small_problem()
        cfg = OptimConfig(n_iter_min=1, n_iter_max=6, n_eps=2, eps_j=1e-6)
        result = run_inversion(data, sim, initial, cfg, PHYS)
        js = result.misfit_history
        assert js[-1] < js[0]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(js, js[1:]))

    def test_single_gradient_step_decreases_misfit(self):
        truth, initial, data, sim = small_problem(seed=4)
        cfg = OptimConfig(n_iter_min=1, n_iter_max=2, n_eps=1, eps_j=1e-9)
        result = run_inversion(data, sim, initial, cfg, PHYS)
        assert result.records[1].misfit < result.records[0].misfit

    def test_frozen_coefficients_bit_identical(self):
        truth, initial, data, sim = small_problem(seed=2)
        cfg = OptimConfig(n_iter_min=1, n_iter_max=4, n_eps=2, eps_j=1e-9)
        result = run_inversion(data, sim, initial, cfg, PHYS)
        frozen = initial.partition.frozen
        assert np.array_equal(result.model.coeffs[frozen], initial.coeffs[frozen])
        assert not np.array_equal(result.model.coeffs[~frozen],
                                  initial.coeffs[~frozen])

    def test_every_visited_model_within_bounds(self):
        truth, initial, data, sim = small_problem(seed=3)
        cfg = OptimConfig(n_iter_min=1, n_iter_max=4, n_eps=2, eps_j=1e-9)
        result = run_inversion(data, sim, initial, cfg, PHYS)
        field = evaluate_model(result.model)  # raises on violation
        assert field.values.min() >= initial.c_min
        assert field.values.max() <= initial.c_max

    def test_deterministic_records(self):
        cfg = OptimConfig(n_iter_min=1, n_iter_max=4, n_eps=2, eps_j=1e-9)
        runs = []
        for _ in range(2):
            truth, initial, data, sim = small_problem(seed=5)
            result = run_inversion(data, sim, initial, cfg, PHYS)
            runs.append((
                [r.misfit for r in result.records],
                [r.alpha for r in result.records],
                result.model.coefficient_vector.copy(),
            ))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]
        assert np.array_equal(runs[0][2], runs[1][2])

    def test_already_optimal_model_stays_put(self):
        truth, initial, data, sim = small_problem(seed=6)
        cfg = OptimConfig(n_iter_min=1, n_iter_max=3, n_eps=1, eps_j=1e-9)
        result = run_inversion(data, sim, truth, cfg, PHYS)
        # the data came from this model: the misfit starts at the rounding
        # floor and the model must not move materially
        scale = np.abs(truth.coefficient_vector).max()
        drift = np.abs(result.model.coefficient_vector - truth.coefficient_vector)
        assert drift.max() <= 1e-6 * scale
        assert result.records[0].misfit <= 1e-16

    def test_n_solves_counts_the_columns_solved(self, monkeypatch):
        truth, initial, data, sim = small_problem(seed=1)
        columns = []
        solve = HelmholtzSystem.solve

        def counting_solve(system, rhs):
            columns.append(1 if np.ndim(rhs) == 1 else np.shape(rhs)[1])
            return solve(system, rhs)

        monkeypatch.setattr(HelmholtzSystem, "solve", counting_solve)
        per_record = []
        seen = [0]

        def callback(record):
            per_record.append((record.n_solves, sum(columns) - seen[0]))
            seen[0] = sum(columns)

        cfg = OptimConfig(n_iter_min=1, n_iter_max=4, n_eps=2, eps_j=1e-9)
        result = run_inversion(data, sim, initial, cfg, PHYS, callback=callback)
        assert sum(r.n_solves for r in result.records) == sum(columns)
        assert all(counted == solved for counted, solved in per_record)
        assert all(r.n_solves >= 2 * sim.n_sources for r in result.records)

    def test_rejected_trials_are_counted(self, monkeypatch):
        truth, initial, data, sim = small_problem(seed=1)
        outcomes = []
        value = Objective.value

        def recording_value(objective, vec):
            try:
                v = value(objective, vec)
            except BoundsViolationError:
                outcomes.append("bounds")
                raise
            outcomes.append("evaluated")
            return v

        monkeypatch.setattr(Objective, "value", recording_value)
        # a first step long enough to leave the bounds and fail Armijo
        monkeypatch.setattr(inversion, "INITIAL_STEP_FRACTION", 0.3)
        cfg = OptimConfig(n_iter_min=1, n_iter_max=4, n_eps=2, eps_j=1e-9)
        result = run_inversion(data, sim, initial, cfg, PHYS)

        def total(cause):
            return sum(getattr(r.rejected, cause) for r in result.records)

        assert result.reason == "max_iterations"
        assert total("bounds") == outcomes.count("bounds") > 0
        assert total("breakdown") == 0
        # the first gradient's forward solves, then per iteration the
        # Armijo-rejected trials and the accepted one
        assert outcomes.count("evaluated") == 1 + total("armijo") + len(result.records)

    @pytest.mark.parametrize("stop", ["max_iterations", "line_search_failure"])
    def test_result_carries_the_written_models_misfit_and_gap(self, monkeypatch, stop):
        truth, initial, data, sim = small_problem(seed=1)
        cfg = OptimConfig(n_iter_min=1, n_iter_max=4, n_eps=2, eps_j=1e-9)
        searches = []

        def failing_from_third_search(coefficients, misfit_0, grad, d, misfit_fn, alpha,
                                      rejected):
            # from the third search on, evaluate one trial and give up, so the
            # objective's last value call is a rejected trial
            searches.append(alpha)
            if len(searches) >= 3:
                misfit_fn(coefficients - 1e-3 * alpha * d)
                return inversion.LineSearchResult(False, 0.0, misfit_0, coefficients)
            return line_search(coefficients, misfit_0, grad, d, misfit_fn, alpha, rejected)

        if stop == "line_search_failure":
            monkeypatch.setattr(inversion, "line_search", failing_from_third_search)
        result = run_inversion(data, sim, initial, cfg, PHYS)
        assert result.reason == stop

        fresh = Objective(initial, sim, data, PHYS)
        value = fresh.value(result.model.coefficient_vector)
        assert np.float64(result.misfit).tobytes() == np.float64(value).tobytes()
        assert result.gap.values.tobytes() == fresh.gap.values.tobytes()
        if stop == "max_iterations":
            # the records hold the misfit at the start of each iteration
            assert result.misfit < result.records[-1].misfit
        else:
            assert result.misfit == result.records[-1].misfit

    def test_all_zero_traces_stop_stationary_through_the_callback(self):
        truth, initial, data, sim = small_problem(seed=1)
        zero = dataclasses.replace(data, g=np.zeros_like(data.g), dg=np.zeros_like(data.dg))
        seen = []
        cfg = OptimConfig(n_iter_min=1, n_iter_max=3, n_eps=1, eps_j=1e-9)
        result = run_inversion(zero, sim, initial, cfg, PHYS, callback=seen.append)
        assert result.reason == "stationary"
        assert seen == result.records and len(seen) == 1
        (record,) = seen
        assert record.misfit == record.accepted_misfit == result.misfit == 0.0
        assert (record.grad_norm, record.alpha) == (0.0, 0.0)
        assert record.rejected == RejectedTrials()
        assert record.n_solves == 2 * sim.n_sources
        assert np.array_equal(result.model.coefficient_vector, initial.coefficient_vector)

    @pytest.mark.parametrize("snr_db, overflowing", [(-3000.0, "gradient norm"),
                                                     (-3070.0, "misfit")])
    def test_data_whose_arithmetic_overflows_raise_without_warning(self, snr_db,
                                                                   overflowing):
        # warnings are errors in this suite, so any overflow warning fails
        truth, initial, data, sim = small_problem(seed=2)
        cfg = OptimConfig(n_iter_min=1, n_iter_max=3, n_eps=1)
        with pytest.raises(CauchyFwiError, match=f"the {overflowing} is inf"):
            run_inversion(add_noise(data, snr_db, 3), sim, initial, cfg, PHYS)

    def test_very_noisy_data_still_stop_at_their_floor(self):
        truth, initial, data, sim = small_problem(seed=2)
        cfg = OptimConfig(n_iter_min=1, n_iter_max=3, n_eps=1)
        result = run_inversion(add_noise(data, -1000.0, 3), sim, initial, cfg, PHYS)
        assert result.reason == "discrepancy"
        assert len(result.records) == 1

    def test_data_at_another_frequency_are_refused(self):
        truth, initial, data, sim = small_problem(seed=1)
        cfg = OptimConfig(n_iter_min=1, n_iter_max=3, n_eps=1)
        other = PhysicsConfig(freq_hz=26.0, water_speed=1500.0)
        with pytest.raises(DataFormatError, match="25.0 Hz does not match expected 26.0 Hz"):
            run_inversion(data, sim, initial, cfg, other)
        # the rule of read_data: equal to a relative 1e-9
        Objective(initial, sim, data, PhysicsConfig(freq_hz=25.0 * (1 + 5e-10),
                                                    water_speed=1500.0))
        with pytest.raises(DataFormatError):
            Objective(initial, sim, data, PhysicsConfig(freq_hz=25.0 * (1 + 2e-9),
                                                        water_speed=1500.0))

    def test_iteration_log_csv(self, tmp_path):
        truth, initial, data, sim = small_problem(seed=7)
        cfg = OptimConfig(n_iter_min=1, n_iter_max=2, n_eps=1, eps_j=1e-9)
        result = run_inversion(data, sim, initial, cfg, PHYS)
        path = tmp_path / "log.csv"
        write_iteration_log(result.records, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iter, J, grad_norm, alpha, solves"
        assert len(lines) == len(result.records) + 1
