import math

import numpy as np
import pytest

from cauchyfwi.errors import BoundsViolationError, DataFormatError, GeometryError
from cauchyfwi.geometry import (
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

from conftest import brute_force_tiling


# ---------------------------------------------------------------------------
# grid

class TestGrid:
    def test_spacing_from_extent(self, grid2d):
        assert grid2d.spacing == (10.0, 10.0)
        assert grid2d.n_nodes == 21 * 11

    def test_exactly_one_free_surface_face(self, grid3d):
        mask = grid3d.free_surface_mask()
        idx = grid3d.multi_indices()
        marked = [(a, s) for a in range(3) for s in (0, 1)
                  if mask[idx[:, a] == s * (grid3d.shape[a] - 1)].all()]
        assert marked == [(2, 0)]
        assert mask.sum() == grid3d.shape[0] * grid3d.shape[1]  # none off that face

    def test_node_weights_sum_to_volume(self, grid2d, grid3d):
        for g in (grid2d, grid3d):
            assert np.isclose(g.node_weights().sum(), np.prod(g.extent), rtol=1e-13)

    def test_rejects_degenerate_axes(self):
        with pytest.raises(ValueError):
            Grid((100.0,), (11,))
        with pytest.raises(ValueError):
            Grid((100.0, -1.0), (11, 11))
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                Grid((bad, 100.0), (11, 11))
        with pytest.raises(ValueError):
            Grid((100.0, 100.0), (11, 1))

    def test_nearest_node_snaps(self, grid2d):
        node, = grid2d.nearest_nodes([(52.0, 48.0)])
        assert np.allclose(grid2d.node_positions()[node], (50.0, 50.0))

    def test_nearest_nodes_rounds_half_to_even(self):
        # x = 5, 15, 25 m sit halfway between nodes 10 m apart; Python's
        # round sends each to the even index
        grid = Grid((100.0, 100.0), (11, 11))
        xs = (5.0, 15.0, 25.0)
        nodes = grid.nearest_nodes([(x, 50.0) for x in xs])
        assert list(grid.multi_indices()[nodes, 0]) == [0, 2, 2]

        # against a per-point loop with Python's round, on every midpoint
        # and node of a 3-D grid plus random points up to half a spacing out
        grid = Grid((60.0, 40.0, 50.0), (7, 5, 6))
        h = np.array(grid.spacing)
        rng = np.random.default_rng(3)
        halves = np.indices(2 * np.array(grid.shape) - 1).reshape(3, -1).T * h / 2
        scatter = rng.uniform(-h / 2, np.array(grid.extent) + h / 2, (500, 3))
        positions = np.vstack([halves, scatter])
        expected = [np.ravel_multi_index([min(max(int(round(x / s)), 0), n - 1)
                                          for x, s, n in zip(p, grid.spacing, grid.shape)],
                                         grid.shape)
                    for p in positions]
        assert grid.nearest_nodes(positions).tolist() == expected

    @pytest.mark.parametrize("position", [(-5.01, 50.0), (50.0, 105.01), (float("nan"), 50.0)])
    def test_nearest_nodes_rejects_outside_extent(self, position):
        grid = Grid((100.0, 100.0), (11, 11))
        grid.nearest_nodes([(-5.0, 105.0)])  # half a spacing out still snaps
        with pytest.raises(ValueError, match="outside grid extent"):
            grid.nearest_nodes([(50.0, 50.0), position])

    def test_refine_keeps_extent(self, grid2d):
        fine = grid2d.refine(2)
        assert fine.extent == grid2d.extent
        assert fine.shape == (41, 21)


# ---------------------------------------------------------------------------
# partition

class TestBuildPartition:
    def test_four_equal_tiles_no_water(self):
        grid = Grid((100.0, 100.0), (11, 11))
        part = build_partition(grid, (50.0, 50.0), water_depth=0.0)
        assert part.n_subdomains == 4
        assert not part.frozen.any()
        counts = np.bincount(part.node_map)
        assert counts.sum() == grid.n_nodes

    def test_node_coverage_and_connectedness_against_enumeration(self, grid2d):
        # 200 x 100 m at h = 10, caps 70 m, water at 20 m
        part = build_partition(grid2d, (70.0, 70.0), water_depth=20.0)

        x_tiles = brute_force_tiling(200.0, 21, 70.0)
        z_tiles = brute_force_tiling(100.0, 11, 70.0)
        # water split: z cell layers 0..1 are water, the first z tile splits
        z_bounds = sorted({0, len(z_tiles)} | {i for i in range(1, len(z_tiles))
                          if z_tiles[i] != z_tiles[i - 1]} | {2})
        nz_tiles = len(z_bounds) - 1
        nx_tiles = max(x_tiles) + 1
        assert part.n_subdomains == nx_tiles * nz_tiles

        # every node in exactly one subdomain, matching a per-node recomputation
        def node_tile(i, bounds):
            return sum(1 for b in bounds[1:-1] if i > b)

        x_bounds = sorted({0, len(x_tiles)} | {i for i in range(1, len(x_tiles))
                          if x_tiles[i] != x_tiles[i - 1]})
        expected = np.empty(grid2d.n_nodes, dtype=int)
        for flat, (ix, iz) in enumerate(grid2d.multi_indices()):
            expected[flat] = node_tile(ix, x_bounds) * nz_tiles + node_tile(iz, z_bounds)
        assert np.array_equal(part.node_map, expected)

        # connectedness: each subdomain's nodes form one index box
        for j in range(part.n_subdomains):
            nodes = part.nodes_of(j)
            multi = grid2d.multi_indices()[nodes]
            lo, hi = multi.min(axis=0), multi.max(axis=0)
            assert len(nodes) == np.prod(hi - lo + 1)

    def test_frozen_tiles_cover_water_nodes_exactly(self, grid2d):
        part = build_partition(grid2d, (70.0, 70.0), water_depth=20.0)
        depth = grid2d.node_positions()[:, -1]
        frozen_nodes = part.frozen[part.node_map]
        assert np.array_equal(frozen_nodes, depth <= 20.0)

    def test_cap_below_spacing_rejected(self, grid2d):
        with pytest.raises(GeometryError, match="below the cell spacing"):
            build_partition(grid2d, (5.0, 5.0))

    def test_water_depth_outside_grid_rejected(self, grid2d):
        with pytest.raises(GeometryError, match="water depth 150.0 m outside grid extent"):
            build_partition(grid2d, (50.0, 50.0), water_depth=150.0)

    def test_3d_tiling_covers_all_nodes(self, grid3d):
        part = build_partition(grid3d, (30.0, 20.0, 20.0), water_depth=10.0)
        counts = np.bincount(part.node_map, minlength=part.n_subdomains)
        assert (counts > 0).all()
        assert counts.sum() == grid3d.n_nodes
        depth = grid3d.node_positions()[:, -1]
        assert np.array_equal(part.frozen[part.node_map], depth <= 10.0)

    def test_empty_subdomain_rejected(self, grid2d):
        node_map = np.zeros(grid2d.n_nodes, dtype=int)
        node_map[0] = 2  # subdomain 1 empty
        with pytest.raises(ValueError):
            Partition(grid2d, node_map, np.zeros(3, dtype=bool))


# ---------------------------------------------------------------------------
# model evaluation

class TestEvaluateModel:
    def test_constant_model(self, partition2d):
        n = partition2d.n_subdomains
        coeffs = np.zeros((n, 3))
        coeffs[:, 0] = 1500.0
        model = PiecewiseLinearModel(partition2d, coeffs, 1000.0, 2000.0, 1500.0)
        field = evaluate_model(model)
        assert np.all(field.values == 1500.0)

    def test_affine_arithmetic(self):
        grid = Grid((100.0, 1000.0), (2, 3))
        part = Partition(grid, np.zeros(grid.n_nodes, dtype=int), [False])
        model = PiecewiseLinearModel(part, [[1000.0, 0.0, 0.5]], 500.0, 2000.0, 1500.0)
        field = evaluate_model(model)
        node = np.ravel_multi_index((0, 2), grid.shape)  # x = (0, 1000)
        assert field.values[node] == pytest.approx(1500.0, abs=1e-12)

    def test_matches_per_node_recomputation(self, partition2d):
        rng = np.random.default_rng(42)
        n = partition2d.n_subdomains
        coeffs = np.column_stack([
            rng.uniform(1400, 1600, n),
            rng.uniform(-0.5, 0.5, n),
            rng.uniform(-0.5, 0.5, n),
        ])
        model = PiecewiseLinearModel(partition2d, coeffs, 100.0, 5000.0, 1500.0)
        field = evaluate_model(model)
        pos = partition2d.grid.node_positions()
        for flat in range(partition2d.grid.n_nodes):
            j = partition2d.node_map[flat]
            expected = model.coeffs[j, 0] + model.coeffs[j, 1:] @ pos[flat]
            assert field.values[flat] == pytest.approx(expected, rel=1e-14)

    def test_frozen_pinned_to_water_speed(self, partition2d):
        n = partition2d.n_subdomains
        coeffs = np.full((n, 3), 0.5)
        coeffs[:, 0] = 1800.0
        model = PiecewiseLinearModel(partition2d, coeffs, 1000.0, 3000.0,
                                     water_speed=1500.0)
        field = evaluate_model(model)
        frozen_nodes = partition2d.frozen[partition2d.node_map]
        assert np.all(field.values[frozen_nodes] == 1500.0)

    def test_bounds_violation_carries_node(self, partition2d):
        n = partition2d.n_subdomains
        coeffs = np.zeros((n, 3))
        coeffs[:, 0] = 1500.0
        j = int(np.flatnonzero(~partition2d.frozen)[0])
        coeffs[j, 0] = 900.0
        model = PiecewiseLinearModel(partition2d, coeffs, 1000.0, 2000.0, 1500.0)
        node = int(np.flatnonzero(partition2d.node_map == j)[0])
        with pytest.raises(BoundsViolationError, match=f"speed 900 m/s at node {node} "):
            evaluate_model(model)

    def test_nan_speed_is_a_bounds_violation(self, partition2d):
        # finite slopes whose products overflow to inf - inf on the last tile
        n = partition2d.n_subdomains
        coeffs = np.zeros((n, 3))
        coeffs[:, 0] = 1500.0
        coeffs[-1, 1:] = (1e308, -1e308)
        model = PiecewiseLinearModel(partition2d, coeffs, 1000.0, 2000.0, 1500.0)
        node = int(np.flatnonzero(partition2d.node_map == n - 1)[0])
        with pytest.raises(BoundsViolationError, match=f"speed nan m/s at node {node} "):
            evaluate_model(model)

    def test_linearity_in_coefficients(self, partition2d):
        # no frozen tile, so no coefficient is pinned to the water speed
        n = partition2d.n_subdomains
        free = Partition(partition2d.grid, partition2d.node_map, np.zeros(n, dtype=bool))
        rng = np.random.default_rng(3)
        c1, c2 = (np.column_stack([rng.uniform(1400, 1600, n), rng.uniform(-0.3, 0.3, n),
                                   rng.uniform(-0.3, 0.3, n)]) for _ in range(2))
        a, b = 0.3, 1.7
        f1, f2, f12 = (evaluate_model(PiecewiseLinearModel(free, c, 100.0, 5000.0, 1500.0))
                       .values for c in (c1, c2, a * c1 + b * c2))
        scale = np.max(np.abs(f12)) or 1.0
        assert np.max(np.abs(f12 - (a * f1 + b * f2))) <= 1e-13 * scale


# ---------------------------------------------------------------------------
# fitting

class TestFitCoefficients:
    def test_round_trip_on_affine_field(self, partition2d):
        rng = np.random.default_rng(7)
        n = partition2d.n_subdomains
        coeffs = np.column_stack([
            rng.uniform(1400, 1600, n),
            rng.uniform(-0.3, 0.3, n),
            rng.uniform(-0.3, 0.3, n),
        ])
        model = PiecewiseLinearModel(partition2d, coeffs, 100.0, 5000.0, 1500.0)
        field = evaluate_model(model)
        refit = fit_coefficients(field, partition2d, 100.0, 5000.0, 1500.0)
        back = evaluate_model(refit)
        assert np.max(np.abs(back.values - field.values)) <= 1e-12 * np.max(field.values)

    def test_constant_field_gives_constant_coeffs(self, partition2d):
        field = NodalField(partition2d.grid, np.full(partition2d.grid.n_nodes, 2000.0))
        model = fit_coefficients(field, partition2d, 100.0, 5000.0, water_speed=2000.0)
        assert np.allclose(model.coeffs[:, 0], 2000.0, atol=1e-9)
        assert np.allclose(model.coeffs[:, 1:], 0.0, atol=1e-12)

    def test_matches_dense_normal_equations(self):
        # single subdomain; the fit must agree with (X^T X)^-1 X^T y
        grid = Grid((50.0, 30.0), (6, 4))
        part = Partition(grid, np.zeros(grid.n_nodes, dtype=int), [False])
        rng = np.random.default_rng(11)
        vals = rng.normal(size=grid.n_nodes)
        field = NodalField(grid, vals)
        model = fit_coefficients(field, part, 0.001, 1e6, 1500.0)
        x = grid.node_positions()
        design = np.column_stack([np.ones(grid.n_nodes), x])
        sol = np.linalg.solve(design.T @ design, design.T @ vals)
        assert np.allclose(model.coeffs[0], sol, rtol=1e-9, atol=1e-12)

    def test_rank_deficiency_on_thin_subdomain(self):
        # nodes on a single depth layer cannot pin the depth slope
        grid = Grid((50.0, 30.0), (6, 4))
        node_map = (grid.multi_indices()[:, -1] > 0).astype(int)
        part = Partition(grid, node_map, [False, False])
        field = NodalField(grid, np.ones(grid.n_nodes))
        with pytest.raises(GeometryError, match="subdomain 0 has fewer"):
            fit_coefficients(field, part, 0.5, 2.0, 1.0)

    def test_frozen_pinned_instead_of_fitted(self, partition2d):
        field = NodalField(partition2d.grid,
                           np.full(partition2d.grid.n_nodes, 1700.0))
        model = fit_coefficients(field, partition2d, 1000.0, 3000.0,
                                 water_speed=1500.0)
        assert np.all(model.coeffs[partition2d.frozen, 0] == 1500.0)
        assert np.all(model.coeffs[~partition2d.frozen, 0] == pytest.approx(1700.0))


# ---------------------------------------------------------------------------
# coefficient gradient

class TestCoefficientGradient:
    def test_constant_density_integrates_to_quadrature_measure(self):
        # single tile spanning the grid: sum of weights is the exact volume
        grid = Grid((80.0, 40.0), (9, 5))
        part = Partition(grid, np.zeros(grid.n_nodes, dtype=int), [False])
        g = NodalField(grid, np.ones(grid.n_nodes))
        grad = coefficient_gradient(g, part)
        assert grad[0] == pytest.approx(80.0 * 40.0, rel=1e-13)

    def test_frozen_components_zero(self, partition2d):
        rng = np.random.default_rng(5)
        g = NodalField(partition2d.grid, rng.normal(size=partition2d.grid.n_nodes))
        grad = coefficient_gradient(g, partition2d).reshape(-1, 3)
        assert np.all(grad[partition2d.frozen] == 0.0)
        assert np.any(grad[~partition2d.frozen] != 0.0)

    def test_adjoint_of_evaluation_under_weighted_inner_product(self, partition2d):
        # <evaluate(e_k), g>_w == coefficient_gradient(g)[k] for every basis k
        rng = np.random.default_rng(9)
        grid = partition2d.grid
        g_vals = rng.normal(size=grid.n_nodes)
        g = NodalField(grid, g_vals)
        grad = coefficient_gradient(g, partition2d)
        w = grid.node_weights()
        n_coeff = partition2d.n_subdomains * 3
        # a constant 1500 m/s model plus one unit coefficient: every speed
        # is an integer below 2^53, so the difference is the basis exactly
        base = np.zeros((partition2d.n_subdomains, 3))
        base[:, 0] = 1500.0
        template = PiecewiseLinearModel(partition2d, base, 100.0, 5000.0, 1500.0)
        constant = evaluate_model(template).values
        for k in range(n_coeff):
            e = np.zeros(n_coeff)
            e[k] = 1.0
            basis = evaluate_model(
                template.with_coefficient_vector(template.coefficient_vector + e)
            ).values - constant
            expected = float(w @ (basis * g_vals))
            j = k // 3
            if partition2d.frozen[j]:
                assert grad[k] == 0.0
            else:
                assert grad[k] == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_matches_finite_differences_of_weighted_functional(self, partition2d):
        # M(m) = <evaluate(m), g>_w is linear, so central differences are exact
        rng = np.random.default_rng(13)
        grid = partition2d.grid
        g_vals = rng.normal(size=grid.n_nodes)
        g = NodalField(grid, g_vals)
        w = grid.node_weights()
        grad = coefficient_gradient(g, partition2d)
        n = partition2d.n_subdomains

        def functional(vec):
            m = PiecewiseLinearModel(partition2d, vec.reshape(n, 3), 100.0, 5000.0, 1500.0)
            return float(w @ (evaluate_model(m).values * g_vals))

        base = np.column_stack([rng.uniform(1400, 1600, n), rng.uniform(-0.3, 0.3, n),
                                rng.uniform(-0.3, 0.3, n)]).ravel()
        for k in rng.choice(3 * n, size=10, replace=False):
            if partition2d.frozen[k // 3]:
                continue
            delta = 1e-3
            plus, minus = base.copy(), base.copy()
            plus[k] += delta
            minus[k] -= delta
            fd = (functional(plus) - functional(minus)) / (2 * delta)
            assert grad[k] == pytest.approx(fd, rel=1e-4)

    def test_projector_idempotence(self, partition2d):
        # fit(evaluate(m)) returns m's field exactly on the subspace
        rng = np.random.default_rng(21)
        n = partition2d.n_subdomains
        coeffs = np.column_stack([
            rng.uniform(1400, 1600, n),
            rng.uniform(-0.2, 0.2, n),
            rng.uniform(-0.2, 0.2, n),
        ])
        m = PiecewiseLinearModel(partition2d, coeffs, 100.0, 5000.0, 1500.0)
        f = evaluate_model(m)
        m2 = fit_coefficients(f, partition2d, 100.0, 5000.0, 1500.0)
        f2 = evaluate_model(m2)
        assert np.max(np.abs(f2.values - f.values)) <= 1e-12 * np.max(np.abs(f.values))


# ---------------------------------------------------------------------------
# file round trips

class TestModelFiles:
    def test_model_round_trip(self, partition2d, tmp_path):
        rng = np.random.default_rng(31)
        n = partition2d.n_subdomains
        coeffs = rng.normal(loc=1500.0, scale=30.0, size=(n, 3))
        model = PiecewiseLinearModel(partition2d, coeffs, 1000.0, 2000.0,
                                     water_speed=1500.0)
        path = tmp_path / "model.txt"
        write_model(model, path)
        back = read_model(path, partition2d, 1000.0, 2000.0, water_speed=1500.0)
        assert np.array_equal(back.coeffs, model.coeffs)

    def test_frozen_row_must_carry_the_water_speed(self, partition2d, tmp_path):
        # a file written at 1600 m/s water, read after the config says 1500
        n = partition2d.n_subdomains
        model = PiecewiseLinearModel(partition2d, np.full((n, 3), 1700.0), 1000.0, 2000.0,
                                     water_speed=1600.0)
        path = tmp_path / "model.txt"
        write_model(model, path)
        j = int(np.flatnonzero(partition2d.frozen)[0])
        with pytest.raises(DataFormatError, match=f"model.txt: frozen row '{j} 1600 0 0 1'"):
            read_model(path, partition2d, 1000.0, 2000.0, water_speed=1500.0)
        back = read_model(path, partition2d, 1000.0, 2000.0, water_speed=1600.0)
        assert np.array_equal(back.coeffs, model.coeffs)

    def test_model_header_validation(self, partition2d, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("plmodel 2 999\n")
        with pytest.raises(DataFormatError, match="999 subdomains in file"):
            read_model(path, partition2d, 1000.0, 2000.0, 1500.0)

    def test_repeated_subdomain_rejected(self, partition2d, tmp_path):
        # row 0 written twice in place of row 1: subdomain 1 would read as
        # all-zero coefficients
        n = partition2d.n_subdomains
        model = PiecewiseLinearModel(partition2d, np.full((n, 3), 1500.0), 1000.0, 2000.0,
                                     1500.0)
        path = tmp_path / "model.txt"
        write_model(model, path)
        lines = path.read_text().splitlines()
        lines[2] = lines[1]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match="has subdomain index 0, expected 1"):
            read_model(path, partition2d, 1000.0, 2000.0, 1500.0)

    def test_failed_write_keeps_the_old_file(self, partition2d, tmp_path, disk_full):
        n = partition2d.n_subdomains
        model = PiecewiseLinearModel(partition2d, np.full((n, 3), 1500.0), 1000.0, 2000.0,
                                     1500.0)
        path = tmp_path / "model.txt"
        path.write_text("previous model\n")
        disk_full("model.txt")
        with pytest.raises(OSError, match="disk full"):
            write_model(model, path)
        assert path.read_text() == "previous model\n"
        assert [p.name for p in tmp_path.iterdir()] == ["model.txt"]

    def test_partition_round_trip(self, grid2d, tmp_path):
        part = build_partition(grid2d, (70.0, 70.0), water_depth=20.0)
        path = tmp_path / "part.txt"
        write_partition(part, path)
        head, *rows = path.read_text().splitlines()
        assert head == "partition 2 21 11"
        assert [len(row.split()) for row in rows] == [11] * 21
        node_map = np.array(" ".join(rows).split(), dtype=int)
        assert np.array_equal(node_map, part.node_map)
