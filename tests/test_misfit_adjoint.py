import os
import subprocess
import sys

import numpy as np
import pytest

import cauchyfwi
from cauchyfwi.acquisition import (
    CauchyDataSet,
    Provenance,
    ReceiverArray,
    add_noise,
    receiver_layer,
    source_lattice,
    synthesize,
)
from cauchyfwi.geometry import (
    Grid,
    NodalField,
    PiecewiseLinearModel,
    build_partition,
    evaluate_model,
    fit_coefficients,
)
from cauchyfwi.helmholtz import PhysicsConfig, assemble
from cauchyfwi.inversion import Objective
from cauchyfwi.misfit_adjoint import (
    ReciprocityGapMatrix,
    _aggregated_adjoint_rhs,
    misfit,
    misfit_and_gradient,
    misfit_only,
    nodal_gradient,
    reciprocity_gap,
    simulate_traces,
    solve_adjoint_fields,
)
from cauchyfwi.phantom import layered_inclusion_phantom

PHYS = PhysicsConfig(freq_hz=25.0, water_speed=1500.0)


def crime_scenario(seed=0, perturb=0.1):
    """Small same-grid scenario: truth and a perturbed start, clean data."""
    grid = Grid((160.0, 120.0), (17, 13))  # h = 10
    partition = build_partition(grid, (80.0, 60.0), water_depth=40.0)
    receivers = receiver_layer(grid, depth_m=30.0)
    obs = source_lattice(grid, depth_m=10.0, count=3, margin_m=20.0)
    sim = source_lattice(grid, depth_m=10.0, count=2, margin_m=40.0)

    rng = np.random.default_rng(seed)
    n = partition.n_subdomains
    coeffs = np.column_stack([
        rng.uniform(1500.0, 1700.0, n),
        rng.uniform(-0.4, 0.4, n),
        rng.uniform(-0.6, 0.6, n),
    ])
    truth = PiecewiseLinearModel(partition, coeffs, 1250.0, 3400.0,
                                 water_speed=1500.0)
    start = coeffs.copy()
    start[~partition.frozen, 0] *= 1.0 + perturb
    initial = PiecewiseLinearModel(partition, start, 1250.0, 3400.0,
                                   water_speed=1500.0)
    data = synthesize(evaluate_model(truth), obs, receivers, PHYS)
    return grid, partition, receivers, obs, sim, truth, initial, data


class TestReciprocityGap:
    def test_hand_quadrature_three_receivers(self):
        grid = Grid((40.0, 40.0), (5, 5))
        rec = ReceiverArray(grid, depth_index=2,
                            lateral_indices=np.array([[0], [2], [4]]),
                            weights=np.array([5.0, 20.0, 5.0]))
        u = np.array([[1 + 2j, 0.5 - 1j, 2 + 0j]])
        q = np.array([[0.1 + 0.3j, -0.2 + 0.1j, 0.4 - 0.5j]])
        g = np.array([[2 - 1j, 1 + 1j, -0.5 + 0.5j]])
        dg = np.array([[0.3 + 0j, 0.2 - 0.2j, -0.1 + 0.4j]])
        prov = Provenance(grid.shape, grid.extent, np.inf, 0)
        from cauchyfwi.acquisition import SourceSet

        src = SourceSet(np.array([[20.0, 10.0]]), np.array([2.0]))
        data = CauchyDataSet(rec, src, g, dg, PHYS.freq_hz, prov)
        gap = reciprocity_gap(u, q, data, np.array([3.0]))
        expected = sum(
            w * (u[0, i] * dg[0, i] - g[0, i] * q[0, i])
            for i, w in enumerate((5.0, 20.0, 5.0))
        )
        assert gap.values[0, 0] == pytest.approx(expected, rel=1e-14)
        assert gap.sim_weights[0] == 3.0
        assert gap.obs_weights[0] == 2.0

    def test_same_model_gap_cancels_to_rounding(self):
        # identical discrete operator on both sides: the layer sum telescopes
        grid, _, receivers, obs, _, truth, _, data = crime_scenario()
        system = assemble(grid, evaluate_model(truth), PHYS)
        _, vals, dnu = simulate_traces(system, obs, receivers)
        gap = reciprocity_gap(vals, dnu, data, obs.weights)
        scale = np.max(np.abs(vals)) * np.max(np.abs(data.dg)) * receivers.weights.sum()
        assert np.max(np.abs(gap.values)) <= 1e-10 * scale

    def test_same_model_antisymmetry(self):
        grid, _, receivers, obs, _, truth, _, data = crime_scenario()
        system = assemble(grid, evaluate_model(truth), PHYS)
        _, vals, dnu = simulate_traces(system, obs, receivers)
        gap = reciprocity_gap(vals, dnu, data, obs.weights)
        s = gap.values
        # in this configuration the gap itself collapses to rounding, so the
        # reference scale is the quadrature terms before cancellation
        w = receivers.weights
        term_scale = np.max((np.abs(vals) * w) @ np.abs(data.dg).T
                            + (np.abs(dnu) * w) @ np.abs(data.g).T)
        assert np.max(np.abs(s + s.T)) <= 1e-10 * term_scale

    def test_receiver_count_mismatch_rejected(self):
        grid, _, receivers, obs, sim, truth, _, data = crime_scenario()
        with pytest.raises(Exception):
            reciprocity_gap(np.zeros((2, 3), complex), np.zeros((2, 3), complex),
                            data, sim.weights)


class TestMisfitValue:
    def test_zero_gap_zero_misfit(self):
        gap = ReciprocityGapMatrix(np.zeros((2, 3)), np.ones(2), np.ones(3))
        assert misfit(gap) == 0.0

    def test_single_pair_arithmetic(self):
        gap = ReciprocityGapMatrix(np.array([[3 + 4j]]), np.ones(1), np.ones(1))
        assert misfit(gap) == pytest.approx(25.0, rel=1e-15)

    def test_linear_in_sim_weights(self):
        rng = np.random.default_rng(1)
        s = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        wy, wz = rng.uniform(1, 2, 3), rng.uniform(1, 2, 4)
        j1 = misfit(ReciprocityGapMatrix(s, wy, wz))
        j2 = misfit(ReciprocityGapMatrix(s, 2 * wy, wz))
        assert j2 == pytest.approx(2 * j1, rel=1e-14)

    def test_invariant_under_joint_reordering(self):
        rng = np.random.default_rng(2)
        s = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        wy, wz = rng.uniform(1, 2, 3), rng.uniform(1, 2, 4)
        py, pz = rng.permutation(3), rng.permutation(4)
        j1 = misfit(ReciprocityGapMatrix(s, wy, wz))
        j2 = misfit(ReciprocityGapMatrix(s[np.ix_(py, pz)], wy[py], wz[pz]))
        assert j2 == pytest.approx(j1, rel=1e-12)

    def test_invariant_under_negated_transpose_relabeling(self):
        # swapping the two source roles negates and transposes the gap
        rng = np.random.default_rng(3)
        s = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        w = rng.uniform(1, 2, 3)
        j1 = misfit(ReciprocityGapMatrix(s, w, w))
        j2 = misfit(ReciprocityGapMatrix(-s.T, w, w))
        assert j2 == pytest.approx(j1, rel=1e-13)


class TestNoiseFloor:
    """E[J_noise] where it is exact: at a piecewise-linear truth on the
    inversion grid, whose clean data the model fits to rounding."""

    def truth_traces(self):
        grid, _, receivers, _, sim, truth, _, clean = crime_scenario()
        _, vals, dnu = simulate_traces(assemble(grid, evaluate_model(truth), PHYS),
                                       sim, receivers)
        return vals, dnu, sim, clean

    def test_clean_data_have_no_floor(self):
        vals, dnu, sim, clean = self.truth_traces()
        gap = reciprocity_gap(vals, dnu, clean, sim.weights)
        assert gap.noise_floor == 0.0
        noisy = reciprocity_gap(vals, dnu, add_noise(clean, 15.0, 1), sim.weights)
        assert noisy.noise_floor > 0.0

    @pytest.mark.parametrize("snr_db", [15.0, 5.0])
    def test_mean_misfit_at_the_truth_matches_the_floor(self, snr_db):
        # at 5 dB the floor without its 1 / (1 + f) factor would sit about
        # 14 standard errors above the mean
        vals, dnu, sim, clean = self.truth_traces()
        js, floors = [], []
        for seed in range(400):
            gap = reciprocity_gap(vals, dnu, add_noise(clean, snr_db, seed), sim.weights)
            js.append(misfit(gap))
            floors.append(gap.noise_floor)
        j_clean = misfit(reciprocity_gap(vals, dnu, clean, sim.weights))
        assert j_clean <= 1e-12 * np.mean(floors)
        standard_error = np.std(js, ddof=1) / np.sqrt(len(js))
        assert abs(np.mean(js) - np.mean(floors)) <= 3.0 * standard_error


class TestAdjointSolve:
    def test_rhs_matches_dense_reference(self):
        # 5x5 grid, 2 receivers, 1 observation source, hand-built source
        grid = Grid((40.0, 40.0), (5, 5))
        rec = ReceiverArray(grid, depth_index=2,
                            lateral_indices=np.array([[1], [3]]),
                            weights=np.array([10.0, 10.0]))
        rng = np.random.default_rng(3)
        g = rng.normal(size=(1, 2)) + 1j * rng.normal(size=(1, 2))
        dg = rng.normal(size=(1, 2)) + 1j * rng.normal(size=(1, 2))
        from cauchyfwi.acquisition import SourceSet

        src = SourceSet(np.array([[20.0, 10.0]]), np.array([1.5]))
        data = CauchyDataSet(rec, src, g, dg, PHYS.freq_hz,
                             Provenance(grid.shape, grid.extent, np.inf, 0))
        s = rng.normal(size=(2, 1)) + 1j * rng.normal(size=(2, 1))
        gap = ReciprocityGapMatrix(s, np.array([1.0, 1.0]), src.weights)

        got = _aggregated_adjoint_rhs(gap, data, rec, grid)

        hz = grid.spacing[-1]
        cell = grid.cell_volume
        expected = np.zeros((2, grid.n_nodes), dtype=complex)
        for y in range(2):
            for z in range(1):
                coef = 2.0 * np.conj(s[y, z]) * src.weights[z]
                for i, (node, above, below, w) in enumerate(zip(
                        rec.value_nodes, rec.above_nodes, rec.below_nodes,
                        rec.weights)):
                    expected[y, node] += coef * w * dg[z, i]
                    expected[y, above] -= coef * w * g[z, i] / (2 * hz)
                    expected[y, below] += coef * w * g[z, i] / (2 * hz)
        expected /= cell
        # one column per simulation source, negated, as the adjoint solve takes it
        assert got.shape == (grid.n_nodes, 2) and got.flags.f_contiguous
        assert np.allclose(got, -expected.T, rtol=1e-14, atol=0)

    def test_zero_gap_row_gives_zero_field(self):
        grid, _, receivers, obs, sim, truth, _, data = crime_scenario()
        system = assemble(grid, evaluate_model(truth), PHYS)
        gap = ReciprocityGapMatrix(
            np.zeros((sim.n_sources, obs.n_sources), complex),
            sim.weights, obs.weights)
        field = solve_adjoint_fields(system, gap, data, receivers)[:, 0]
        assert np.all(field == 0.0)

    def test_linear_in_gap(self):
        grid, _, receivers, obs, sim, truth, _, data = crime_scenario()
        system = assemble(grid, evaluate_model(truth), PHYS)
        rng = np.random.default_rng(4)
        s = rng.normal(size=(sim.n_sources, obs.n_sources)) \
            + 1j * rng.normal(size=(sim.n_sources, obs.n_sources))
        one = solve_adjoint_fields(
            system, ReciprocityGapMatrix(s, sim.weights, obs.weights), data, receivers)[:, 1]
        two = solve_adjoint_fields(
            system, ReciprocityGapMatrix(2 * s, sim.weights, obs.weights), data, receivers)[:, 1]
        assert np.allclose(two, 2 * one, rtol=1e-12, atol=0)


class TestNodalGradient:
    def test_zero_adjoint_zero_gradient(self):
        grid, _, receivers, obs, sim, truth, _, data = crime_scenario()
        speed = evaluate_model(truth)
        n = grid.n_nodes
        fields = np.ones((n, 2), complex)
        adj = np.zeros((n, 2), complex)
        grad = nodal_gradient(fields, adj, speed, PHYS, np.ones(2))
        assert np.all(grad.values == 0.0)

    def test_free_surface_nodes_zeroed(self):
        grid, _, receivers, obs, sim, truth, _, data = crime_scenario()
        system = assemble(grid, evaluate_model(truth), PHYS)
        _, gap, fields = misfit_only(system, sim, data)
        _, grad = misfit_and_gradient(system, sim, data, fields, gap)
        assert np.all(grad.values[grid.free_surface_mask()] == 0.0)

    def test_descent_raises_speed_in_slow_inclusion(self):
        # the start misses a fast inclusion: the update c - alpha * g must
        # raise the speed there, so the mean gradient over it is negative
        grid = Grid((300.0, 150.0), (41, 21))
        partition = build_partition(grid, (75.0, 55.0), water_depth=30.0)
        receivers = receiver_layer(grid, depth_m=22.5)
        obs = source_lattice(grid, depth_m=7.5, count=5, margin_m=30.0)
        sim = source_lattice(grid, depth_m=7.5, count=5, margin_m=30.0)
        center = (150.0, 90.0)
        truth = layered_inclusion_phantom(
            grid, 30.0, 1500.0, 1600.0, 0.0, center, 40.0, 2200.0)
        background = layered_inclusion_phantom(
            grid, 30.0, 1500.0, 1600.0, 0.0, center, 40.0, 1600.0)
        data = synthesize(truth, obs, receivers, PHYS)
        system = assemble(grid, background, PHYS)
        _, gap, fields = misfit_only(system, sim, data)
        _, grad = misfit_and_gradient(system, sim, data, fields, gap)
        r = np.linalg.norm(grid.node_positions() - np.array(center), axis=1)
        inside = r <= 40.0
        assert grad.values[inside].mean() < 0.0

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="OpenBLAS runs one thread on one core")
    def test_results_independent_of_blas_thread_count(self):
        # the helper prints the thread count in effect, then digests of the
        # nodal gradient of random 3321 x 32 blocks, a 32-column solve, the
        # h/2 clean data, two objective evaluations and eight inversion
        # iterations on the default configuration
        helper = os.path.join(os.path.dirname(__file__), "blas_thread_digests.py")
        src = os.path.dirname(os.path.dirname(cauchyfwi.__file__))
        outputs = {}
        for threads in (1, 2):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            run = subprocess.run([sys.executable, helper], env=env, capture_output=True,
                                 text=True, timeout=600)
            assert run.returncode == 0, run.stderr
            first, rest = run.stdout.split("\n", 1)
            assert first == f"openblas_threads {threads}"
            outputs[threads] = rest
        assert len(outputs[1].splitlines()) == 6
        assert outputs[1] == outputs[2]


class TestGradientAgainstFiniteDifferences:
    def test_coefficient_gradient_matches_central_differences(self):
        grid, partition, receivers, obs, sim, truth, initial, data = crime_scenario()
        objective = Objective(initial, sim, data, PHYS)
        base = initial.coefficient_vector.copy()
        _, adjoint = objective.value_and_gradient(base)

        span = 3400.0 - 1250.0
        scales = np.empty_like(base)
        scales.reshape(-1, 3)[:, 0] = span
        scales.reshape(-1, 3)[:, 1] = span / grid.extent[0]
        scales.reshape(-1, 3)[:, 2] = span / grid.extent[1]

        free = ~np.repeat(partition.frozen, 3)
        worst = 0.0
        for k in np.nonzero(free)[0]:
            best = np.inf
            for rel in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
                delta = rel * scales[k]
                plus, minus = base.copy(), base.copy()
                plus[k] += delta
                minus[k] -= delta
                fd = (objective.value(plus) - objective.value(minus)) / (2 * delta)
                err = abs(adjoint[k] - fd) / max(abs(fd), 1e-12 * np.abs(adjoint).max())
                best = min(best, err)
            worst = max(worst, best)
        assert worst <= 1e-4

    def test_cost_contract_forward_plus_adjoint(self):
        grid, partition, receivers, obs, sim, truth, initial, data = crime_scenario()
        system = assemble(grid, evaluate_model(initial), PHYS)
        assert system.solve_count == 0
        _, vals, dnu = simulate_traces(system, sim, receivers)
        n_forward = system.solve_count
        gap = reciprocity_gap(vals, dnu, data, sim.weights)
        solve_adjoint_fields(system, gap, data, receivers)
        n_adjoint = system.solve_count - n_forward
        assert n_forward == sim.n_sources
        assert n_adjoint == sim.n_sources
        before = system.solve_count
        _, gap, fields = misfit_only(system, sim, data)
        misfit_and_gradient(system, sim, data, fields, gap)
        assert system.solve_count - before == 2 * sim.n_sources

    def test_kept_forward_fields_cost_only_the_adjoints(self):
        grid, partition, receivers, obs, sim, truth, initial, data = crime_scenario()
        system = assemble(grid, evaluate_model(initial), PHYS)
        value, gap, fields = misfit_only(system, sim, data)
        before = system.solve_count
        kept_value, kept_grad = misfit_and_gradient(system, sim, data, fields, gap)
        assert system.solve_count - before == sim.n_sources
        fresh = assemble(grid, evaluate_model(initial), PHYS)
        _, fresh_gap, fresh_fields = misfit_only(fresh, sim, data)
        fresh_value, fresh_grad = misfit_and_gradient(fresh, sim, data,
                                                      fresh_fields, fresh_gap)
        assert kept_value == fresh_value == value
        assert kept_grad.values.tobytes() == fresh_grad.values.tobytes()

    def test_3d_gradient_matches_central_differences(self):
        grid = Grid((80.0, 60.0, 70.0), (9, 7, 8))
        partition = build_partition(grid, (40.0, 30.0, 40.0), water_depth=20.0)
        receivers = receiver_layer(grid, depth_m=40.0)
        obs = source_lattice(grid, depth_m=10.0, count=2, margin_m=15.0)
        sim = source_lattice(grid, depth_m=10.0, count=2, margin_m=20.0)
        rng = np.random.default_rng(14)
        n = partition.n_subdomains
        coeffs = np.column_stack([
            rng.uniform(1500.0, 1700.0, n),
            rng.uniform(-0.5, 0.5, (n, 3)),
        ])
        truth = PiecewiseLinearModel(partition, coeffs, 1250.0, 3400.0,
                                     water_speed=1500.0)
        start = coeffs.copy()
        start[~partition.frozen, 0] *= 1.05
        initial = PiecewiseLinearModel(partition, start, 1250.0, 3400.0,
                                       water_speed=1500.0)
        data = synthesize(evaluate_model(truth), obs, receivers, PHYS)
        objective = Objective(initial, sim, data, PHYS)
        base = initial.coefficient_vector.copy()
        _, adjoint = objective.value_and_gradient(base)

        span = 3400.0 - 1250.0
        scales = np.empty_like(base).reshape(n, 4)
        scales[:, 0] = span
        for d in range(3):
            scales[:, 1 + d] = span / grid.extent[d]
        scales = scales.ravel()
        free = np.nonzero(~np.repeat(partition.frozen, 4))[0]
        probe = rng.choice(free, size=8, replace=False)
        for k in probe:
            best = np.inf
            for rel in (1e-3, 1e-4, 1e-5):
                delta = rel * scales[k]
                plus, minus = base.copy(), base.copy()
                plus[k] += delta
                minus[k] -= delta
                fd = (objective.value(plus) - objective.value(minus)) / (2 * delta)
                err = abs(adjoint[k] - fd) / max(abs(fd), 1e-12 * np.abs(adjoint).max())
                best = min(best, err)
            assert best <= 1e-4
