import os
import subprocess
import sys

import numpy as np
import pytest

import cauchyfwi
from cauchyfwi import analysis, config
from cauchyfwi.acquisition import receiver_layer, source_lattice
from cauchyfwi.analysis import (
    GRADCHECK_STEPS,
    evaluate_pair,
    export_field,
    gaussian_smooth,
    gradcheck,
    probe_stability,
    write_gradcheck_csv,
    write_stability_csv,
)
from cauchyfwi.cli import cli_main
from cauchyfwi.config import parse_config
from cauchyfwi.errors import ConfigError, DataFormatError
from cauchyfwi.geometry import (
    Grid,
    NodalField,
    PiecewiseLinearModel,
    build_partition,
)
from cauchyfwi.helmholtz import PhysicsConfig, read_field_structured_points
from cauchyfwi.inversion import Objective, coefficient_scales

PHYS = PhysicsConfig(freq_hz=25.0, water_speed=1500.0)

SMALL_CONFIG = """
[grid]
dim = 2
extent_x_m = 160
extent_z_m = 120
nodes_x = 17
nodes_z = 13

[physics]
freq_hz = 25
water_speed_m_per_s = 1500
c_min_m_per_s = 1250
c_max_m_per_s = 3400

[partition]
tile_x_m = 80
tile_z_m = 60
water_depth_m = 40

[acquisition]
receiver_depth_m = 30
obs_source_depth_m = 10
obs_source_count = 3
source_margin_m = 20

[noise]
snr_db = inf

[synthesis]
refine = 1

[phantom]
background_surface_m_per_s = 1600
background_gradient_per_s = 1.0
inclusion_speed_m_per_s = 2100
inclusion_center_x_m = 80
inclusion_center_z_m = 80
inclusion_radius_m = 30
initial_top_speed_m_per_s = 1550
initial_bottom_speed_m_per_s = 1800
"""


def dense_smoothing_reference(values2d, sigma):
    """Direct truncated-gaussian convolution with edge renormalization."""
    radius = int(np.ceil(4 * sigma))
    nx, nz = values2d.shape
    out = np.zeros_like(values2d)
    for i in range(nx):
        for j in range(nz):
            acc = 0.0
            norm = 0.0
            for di in range(-radius, radius + 1):
                for dj in range(-radius, radius + 1):
                    ii, jj = i + di, j + dj
                    if 0 <= ii < nx and 0 <= jj < nz:
                        w = np.exp(-0.5 * (di ** 2 + dj ** 2) / sigma ** 2)
                        acc += w * values2d[ii, jj]
                        norm += w
            out[i, j] = acc / norm
    return out


def dense_smoothing_reference_3d(values3d, sigma):
    """Truncated-gaussian smoothing with edge renormalization as one dense
    node-to-node weight matrix."""
    radius = int(np.ceil(4 * sigma))
    nodes = np.indices(values3d.shape).reshape(3, -1).T
    offsets = nodes[:, None, :] - nodes[None, :, :]
    w = np.exp(-0.5 * np.sum(offsets ** 2, axis=-1) / sigma ** 2)
    w *= np.max(np.abs(offsets), axis=-1) <= radius
    return (w @ values3d.ravel() / w.sum(axis=1)).reshape(values3d.shape)


class TestGaussianSmooth:
    def test_sigma_zero_is_identity(self):
        grid = Grid((50.0, 30.0), (6, 4))
        field = NodalField(grid, np.random.default_rng(0).normal(size=grid.n_nodes))
        out = gaussian_smooth(field, 0.0)
        assert np.array_equal(out.values, field.values)

    def test_constant_field_unchanged(self):
        grid = Grid((50.0, 30.0), (11, 7))
        field = NodalField(grid, np.full(grid.n_nodes, 3.14))
        out = gaussian_smooth(field, 2.5)
        assert np.allclose(out.values, 3.14, rtol=1e-14)

    def test_delta_spike_matches_dense_reference(self):
        grid = Grid((100.0, 100.0), (21, 21))
        vals = np.zeros(grid.shape)
        vals[10, 10] = 1.0
        field = NodalField(grid, vals.ravel())
        out = gaussian_smooth(field, 2.0)
        ref = dense_smoothing_reference(vals, 2.0)
        assert np.max(np.abs(out.reshape() - ref)) <= 1e-12

    def test_spike_near_corner_matches_dense_reference(self):
        grid = Grid((100.0, 100.0), (21, 21))
        vals = np.zeros(grid.shape)
        vals[1, 2] = -2.5
        field = NodalField(grid, vals.ravel())
        out = gaussian_smooth(field, 2.0)
        ref = dense_smoothing_reference(vals, 2.0)
        assert np.max(np.abs(out.reshape() - ref)) <= 1e-12

    def test_3d_field_matches_dense_reference(self):
        grid = Grid((60.0, 40.0, 50.0), (7, 5, 6))
        vals = np.random.default_rng(4).normal(size=grid.shape)
        out = gaussian_smooth(NodalField(grid, vals.ravel()), 0.8)
        ref = dense_smoothing_reference_3d(vals, 0.8)
        assert np.max(np.abs(out.reshape() - ref)) <= 1e-12

    def test_tiny_sigma_is_identity(self):
        # the kernel is a unit spike; no exponent may overflow on the way
        grid = Grid((100.0, 60.0), (21, 13))
        field = NodalField(grid, np.random.default_rng(5).normal(size=grid.n_nodes))
        out = gaussian_smooth(field, 1e-200)
        assert np.array_equal(out.values, field.values)

    def test_importing_the_package_does_not_load_scipy_ndimage(self):
        # gaussian_smooth imports it on first use, so no other importer pays
        # for its memory
        src = os.path.dirname(os.path.dirname(cauchyfwi.__file__))
        code = ("import sys, cauchyfwi, cauchyfwi.analysis, cauchyfwi.cli; "
                "print('scipy.ndimage' in sys.modules)")
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src), timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "False"

    def test_interior_support_preserves_mean(self):
        grid = Grid((100.0, 100.0), (31, 31))
        rng = np.random.default_rng(1)
        vals = np.zeros(grid.shape)
        vals[12:19, 12:19] = rng.normal(size=(7, 7))
        field = NodalField(grid, vals.ravel())
        out = gaussian_smooth(field, 1.5)
        assert out.values.mean() == pytest.approx(field.values.mean(), abs=1e-12)

    def test_huge_sigma_gives_the_separable_mean(self):
        # every in-bounds weight rounds to 1, and the kernel stops at the
        # longest axis instead of at 4 sigma
        grid = Grid((100.0, 60.0), (21, 13))
        vals = np.random.default_rng(3).normal(size=grid.shape)
        out = gaussian_smooth(NodalField(grid, vals.ravel()), 1e12)
        mean = vals.mean(axis=0, keepdims=True).mean(axis=1, keepdims=True)
        assert np.allclose(out.reshape(), mean, rtol=0.0, atol=1e-14)


class TestExportField:
    def test_structured_points_round_trip_with_sigma_zero(self, tmp_path):
        grid = Grid((50.0, 30.0), (6, 4))
        field = NodalField(grid, np.random.default_rng(2).normal(size=grid.n_nodes))
        path = tmp_path / "f.txt"
        export_field(field, path, fmt="structured-points", sigma=0.0)
        back = read_field_structured_points(path)
        assert np.array_equal(back.values, field.values)

    def test_csv_format(self, tmp_path):
        grid = Grid((20.0, 10.0), (3, 2))
        field = NodalField(grid, np.arange(6, dtype=float))
        path = tmp_path / "f.csv"
        export_field(field, path, fmt="csv")
        rows = path.read_text().strip().splitlines()
        assert len(rows) == 6
        first = [float(t) for t in rows[0].split(",")]
        assert first == [0.0, 0.0, 0.0, 0.0]

    def test_unknown_format_rejected(self, tmp_path):
        grid = Grid((20.0, 10.0), (3, 2))
        field = NodalField(grid, np.zeros(6))
        with pytest.raises(DataFormatError, match="unsupported export format 'binary'"):
            export_field(field, tmp_path / "f.bin", fmt="binary")


class TestGradcheck:
    def test_small_configuration_passes(self):
        cfg = parse_config(SMALL_CONFIG)
        report = gradcheck(cfg)
        assert report.passed
        assert report.worst() <= 1e-4
        assert all(c.conclusive for c in report.checks)

    def test_every_free_coefficient_and_csv(self, tmp_path):
        cfg = parse_config(SMALL_CONFIG)
        report = gradcheck(cfg)
        # 4 free tiles x 3 coefficients, in index order
        indices = [c.index for c in report.checks]
        assert len(indices) == 12 and indices == sorted(set(indices))
        path = tmp_path / "report.csv"
        write_gradcheck_csv(report, path)
        assert len(path.read_text().strip().splitlines()) == 13

    def small_objective(self):
        """SMALL_CONFIG's config, objective, starting vector and step scales."""
        cfg = parse_config(SMALL_CONFIG)
        problem = config.build_problem(cfg)
        model = problem.initial
        objective = Objective(model, problem.sim, config.build_clean_data(cfg, problem),
                              problem.phys)
        return cfg, objective, model.coefficient_vector.copy(), coefficient_scales(model)

    def test_passing_probe_ends_at_the_smallest_step(self, monkeypatch):
        cfg, _, _, scales = self.small_objective()
        value = Objective.value
        calls = []

        def counted_value(objective, vec):
            calls.append(vec)
            return value(objective, vec)

        monkeypatch.setattr(Objective, "value", counted_value)
        report = gradcheck(cfg)
        assert report.passed
        # the adjoint's own evaluation, then one pair of misfits per probe
        assert len(calls) == 1 + 2 * len(report.checks)
        for c in report.checks:
            assert c.step == min(GRADCHECK_STEPS) * scales[c.index]

    def test_probe_passes_when_only_the_largest_step_agrees(self, monkeypatch):
        cfg, objective, base, scales = self.small_objective()
        j0, adjoint = objective.value_and_gradient(base)
        value = Objective.value

        def agreeing_at_the_largest_step(objective, vec):
            # linear in the probed coefficient, with the plus side off by
            # 1e-3 j0 at every step but the largest
            d = vec - base
            if not d.any():
                return value(objective, vec)
            k = np.argmax(np.abs(d))
            linear = j0 + adjoint[k] * d[k]
            if abs(d[k]) > 0.5 * max(GRADCHECK_STEPS) * scales[k] or d[k] < 0:
                return linear
            return linear + 1e-3 * j0

        monkeypatch.setattr(Objective, "value", agreeing_at_the_largest_step)
        report = gradcheck(cfg)
        assert report.passed
        for c in report.checks:
            assert c.within(report.tolerance)
            assert c.step == max(GRADCHECK_STEPS) * scales[c.index]

    def test_failing_probe_reports_the_closest_step_of_the_sweep(self, monkeypatch):
        cfg, objective, base, scales = self.small_objective()
        value_and_gradient = Objective.value_and_gradient

        def off_adjoint(objective, vec):
            j, grad = value_and_gradient(objective, vec)
            return j, grad * (1 + 1e-3)

        monkeypatch.setattr(Objective, "value_and_gradient", off_adjoint)
        report = gradcheck(cfg)
        assert not report.passed
        assert len(report.checks) == 12
        _, adjoint = objective.value_and_gradient(base)
        eps_floor = 1e-10 * np.max(np.abs(adjoint))
        for c in report.checks:
            assert c.conclusive and not c.within(report.tolerance)
            sweep = []
            for rel in GRADCHECK_STEPS:
                delta = rel * scales[c.index]
                plus, minus = base.copy(), base.copy()
                plus[c.index] += delta
                minus[c.index] -= delta
                fd = (objective.value(plus) - objective.value(minus)) / (2 * delta)
                sweep.append((abs(adjoint[c.index] - fd) / max(abs(fd), eps_floor), fd, delta))
            assert (c.rel_error, c.finite_difference, c.step) == min(sweep)

    def test_probes_drowned_in_rounding_are_inconclusive_and_fail(self, tmp_path,
                                                                  monkeypatch, capsys):
        # every finite-difference misfit is the same number: no step survives
        value = Objective.value

        def flat_value(objective, vec):
            value(objective, vec)
            return 1.0

        monkeypatch.setattr(Objective, "value", flat_value)
        report = gradcheck(parse_config(SMALL_CONFIG))
        assert not report.passed
        assert len(report.checks) == 12
        for c in report.checks:
            assert not c.conclusive and not c.within(report.tolerance)
            assert np.isnan(c.finite_difference) and np.isnan(c.rel_error)
            assert c.step == 0.0
        assert np.isnan(report.worst())
        path = tmp_path / "small.cfg"
        path.write_text(SMALL_CONFIG)
        assert cli_main(["gradcheck", "--config", str(path)]) == 1
        assert capsys.readouterr().out.startswith("gradcheck FAIL: 0/12 coefficients within")

    def test_rejects_large_grid(self):
        text = SMALL_CONFIG.replace("nodes_x = 17", "nodes_x = 201")
        text = text.replace("extent_x_m = 160", "extent_x_m = 2000")
        cfg = parse_config(text)
        with pytest.raises(ConfigError):
            gradcheck(cfg)

    def test_rejects_large_3d_grid_before_building(self, monkeypatch):
        # 26^3 = 17,576 nodes, more than the 151 x 101 = 15,251 of the 2D bound
        text = SMALL_CONFIG.replace("dim = 2", "dim = 3")
        text = text.replace("extent_x_m = 160", "extent_x_m = 160\nextent_y_m = 160")
        text = text.replace("nodes_x = 17\nnodes_z = 13", "nodes_x = 26\nnodes_y = 26\nnodes_z = 26")
        text = text.replace("tile_x_m = 80", "tile_x_m = 80\ntile_y_m = 80")
        cfg = parse_config(text)

        def build_problem(*args, **kwargs):
            raise AssertionError("gradcheck built the problem of an oversized grid")

        monkeypatch.setattr(config, "build_problem", build_problem)
        with pytest.raises(ConfigError, match="151 x 101"):
            gradcheck(cfg)


class TestStabilityProbe:
    def build(self):
        grid = Grid((160.0, 120.0), (17, 13))
        partition = build_partition(grid, (80.0, 80.0), water_depth=40.0)
        receivers = receiver_layer(grid, depth_m=30.0)
        obs = source_lattice(grid, depth_m=10.0, count=3, margin_m=20.0)
        sim = source_lattice(grid, depth_m=10.0, count=3, margin_m=20.0)
        return grid, partition, receivers, obs, sim

    def model(self, partition):
        # the probe reads only the partition, bounds and water speed
        return PiecewiseLinearModel(partition, np.zeros((partition.n_subdomains, 3)),
                                    1250.0, 3400.0, water_speed=1500.0)

    def test_identical_pair_has_zero_distance_and_floor_misfit(self):
        grid, partition, receivers, obs, sim = self.build()
        rng = np.random.default_rng(5)
        n = partition.n_subdomains
        coeffs = np.column_stack([
            rng.uniform(1500, 1800, n),
            rng.uniform(-0.2, 0.2, n),
            rng.uniform(-0.2, 0.2, n),
        ])
        model = PiecewiseLinearModel(partition, coeffs, 1250.0, 3400.0,
                                     water_speed=1500.0)
        linf, value = evaluate_pair(model, model, sim, obs, receivers, PHYS)
        assert linf == 0.0
        assert value <= 1e-16

    def test_report_reproducible_and_finite(self):
        grid, partition, receivers, obs, sim = self.build()
        reports = [
            probe_stability(self.model(partition), PHYS, receivers,
                            obs, sim, n_pairs=6, seed=42)
            for _ in range(2)
        ]
        t1, t2 = reports[0].table(), reports[1].table()
        assert np.array_equal(t1, t2)
        assert np.isfinite(reports[0].ratio_max)
        assert reports[0].ratio_max > 0

    def test_no_unflagged_zero_misfit_with_distinct_models(self, tmp_path):
        grid, partition, receivers, obs, sim = self.build()
        report = probe_stability(self.model(partition), PHYS, receivers,
                                 obs, sim, n_pairs=6, seed=1)
        for pair in report.pairs:
            if pair.linf_distance > 0 and pair.misfit <= 0:
                assert pair.flagged
        path = tmp_path / "probe.csv"
        write_stability_csv(report, path)
        assert len(path.read_text().strip().splitlines()) == 7

    def test_excluded_zero_misfit_and_outlier_pairs_are_marked(self, monkeypatch):
        grid, partition, receivers, obs, sim = self.build()
        # (distance, misfit) per pair: coinciding models, a vanishing misfit,
        # ratios 1, 2, 2 and 3, and one ratio above 1e6 times their median 2
        script = iter([(0.0, 1.0), (2.0, 0.0), (1.0, 1.0), (2.0, 1.0), (4.0, 4.0),
                       (3e7, 1.0), (3.0, 1.0)])
        monkeypatch.setattr(analysis, "evaluate_pair", lambda *args: next(script))
        report = probe_stability(self.model(partition), PHYS, receivers, obs, sim,
                                 n_pairs=7, seed=0)
        assert [p.excluded for p in report.pairs] == [True] + [False] * 6
        assert [p.flagged for p in report.pairs] == [False, True, False, False, False,
                                                     True, False]
        ratios = [p.ratio for p in report.pairs]
        assert np.isnan(ratios[0]) and ratios[1:] == [np.inf, 1.0, 2.0, 2.0, 3e7, 3.0]
        assert (report.ratio_min, report.ratio_max, report.n_flagged) == (1.0, 3.0, 2)

    def test_doubling_difference_doubles_distance(self):
        grid, partition, receivers, obs, sim = self.build()
        n = partition.n_subdomains
        base = np.zeros((n, 3))
        base[:, 0] = 1700.0
        delta = np.zeros((n, 3))
        delta[~partition.frozen, 0] = 50.0
        m0 = PiecewiseLinearModel(partition, base, 1250.0, 3400.0, water_speed=1500.0)
        m1 = PiecewiseLinearModel(partition, base + delta, 1250.0, 3400.0,
                                  water_speed=1500.0)
        m2 = PiecewiseLinearModel(partition, base + 2 * delta, 1250.0, 3400.0,
                                  water_speed=1500.0)
        l1, _ = evaluate_pair(m0, m1, sim, obs, receivers, PHYS)
        l2, _ = evaluate_pair(m0, m2, sim, obs, receivers, PHYS)
        assert l2 == pytest.approx(2 * l1, rel=1e-12)
