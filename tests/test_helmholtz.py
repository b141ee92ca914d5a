import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.special import hankel1

from cauchyfwi import config as C
from cauchyfwi.acquisition import receiver_layer
from cauchyfwi.config import DEFAULT_CONFIG, parse_config
from cauchyfwi.errors import AssemblyError, GeometryError, SolverBreakdownError
from cauchyfwi.geometry import Grid, NodalField, evaluate_model
from cauchyfwi.helmholtz import (
    FORWARD_BLOCK,
    SUPERLU_PANEL_SIZE,
    SUPERLU_RELAX,
    HelmholtzSystem,
    PhysicsConfig,
    _pattern,
    assemble,
    points_per_wavelength,
    read_field_structured_points,
    traces_many,
    write_field_structured_points,
)
from conftest import GRADCHECK_CONFIG


PHYS = PhysicsConfig(freq_hz=25.0, water_speed=1500.0)
GRID_3D = Grid((60.0, 40.0, 50.0), (7, 5, 6))


def constant_speed(grid, c=1500.0):
    return NodalField(grid, np.full(grid.n_nodes, c))


def random_speed(grid, seed):
    rng = np.random.default_rng(seed)
    return NodalField(grid, rng.uniform(1400, 1700, grid.n_nodes))


def criterion_1_start():
    """Starting model and physics of the criterion-1 gradient check (41 x 21)."""
    cfg = parse_config(GRADCHECK_CONFIG)
    grid = C.build_grid(cfg)
    model = C.build_initial_model(cfg, C.build_partition_for(cfg, grid))
    return evaluate_model(model), C.build_physics(cfg)


def coo_reference(grid, speed, phys, free_surface=True):
    """The operator assembled from COO triplets and converted to CSC, with
    the same floating-point operations as assemble, for a bit-exact check
    of its cached pattern."""
    shape = grid.shape
    h = grid.spacing
    m = grid.n_nodes
    idx = grid.multi_indices()
    scale = grid.boundary_scale()
    dirichlet = grid.free_surface_mask() if free_surface else np.zeros(m, dtype=bool)
    ik0 = 1j * phys.absorbing_k0
    diag = (phys.k ** 2 / speed.values ** 2).astype(complex)
    for d in range(grid.dim):
        on_b = (idx[:, d] == 0) | (idx[:, d] == shape[d] - 1)
        diag += np.where(on_b, -2.0 / h[d] ** 2 + 2.0 * ik0 / h[d], -2.0 / h[d] ** 2)
    diag *= scale
    diag[dirichlet] = 1.0
    rows, cols, vals = [np.arange(m)], [np.arange(m)], [diag]
    for d in range(grid.dim):
        for step in (+1, -1):
            nb = idx.copy()
            nb[:, d] += step
            inside = (nb[:, d] >= 0) & (nb[:, d] < shape[d])
            src = np.flatnonzero(inside)
            tgt = np.ravel_multi_index(tuple(nb[inside].T), shape)
            keep = ~dirichlet[src] & ~dirichlet[tgt]
            src, tgt = src[keep], tgt[keep]
            # a ghost node beyond the opposite face mirrors onto this neighbor
            mirrored = idx[src, d] == (0 if step > 0 else shape[d] - 1)
            coeff = np.where(mirrored, 2.0, 1.0) / h[d] ** 2 * scale[src]
            rows.append(src)
            cols.append(tgt)
            vals.append(coeff.astype(complex))
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(m, m),
    ).tocsc()


def assert_bit_equal(got, ref):
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def dense_reference_matrix(grid, speed, phys, free_surface=True):
    """Hand-rolled dense assembly, node by node, for cross-checking.

    Centered interior stencil, ghost-eliminated radiation rows with the
    2^-(boundary faces) scaling, Dirichlet identity rows on the top face.
    """
    dim = grid.dim
    shape = grid.shape
    h = grid.spacing
    k2 = phys.k ** 2
    ik0 = 1j * phys.absorbing_k0
    c = speed.values
    m = grid.n_nodes
    a = np.zeros((m, m), dtype=complex)

    def flat(multi):
        return int(np.ravel_multi_index(multi, shape))

    for multi in np.ndindex(*shape):
        row = flat(multi)
        if free_surface and multi[-1] == 0:
            a[row, row] = 1.0
            continue
        n_bound = 0
        entries = {row: k2 / c[row] ** 2}
        for d in range(dim):
            entries[row] = entries[row] - 2.0 / h[d] ** 2
            for step in (-1, +1):
                nb = list(multi)
                nb[d] += step
                if 0 <= nb[d] < shape[d]:
                    col = flat(tuple(nb))
                    entries[col] = entries.get(col, 0.0) + 1.0 / h[d] ** 2
                else:
                    # ghost: u_ghost = u_mirror + 2 h i k0 u_center
                    mirror = list(multi)
                    mirror[d] -= step
                    col = flat(tuple(mirror))
                    entries[col] = entries.get(col, 0.0) + 1.0 / h[d] ** 2
                    entries[row] = entries[row] + 2.0 * ik0 / h[d]
            if multi[d] == 0 or multi[d] == shape[d] - 1:
                n_bound += 1
        scale = 0.5 ** n_bound
        for col, val in entries.items():
            if free_surface:
                col_multi = np.unravel_index(col, shape)
                if col_multi[-1] == 0:
                    continue
            a[row, col] = val * scale
    return a


class TestAssemble:
    def test_interior_stencil_on_3x3(self):
        grid = Grid((20.0, 20.0), (3, 3))
        speed = constant_speed(grid)
        system = assemble(grid, speed, PHYS)
        a = system.matrix.toarray()
        assert a.shape == (9, 9)
        h = 10.0
        center = np.ravel_multi_index((1, 1), grid.shape)
        expected_diag = -4.0 / h ** 2 + PHYS.k ** 2 / 1500.0 ** 2
        assert a[center, center] == pytest.approx(expected_diag, rel=1e-14)
        for nb in ((0, 1), (2, 1), (1, 2)):
            col = np.ravel_multi_index(nb, grid.shape)
            assert a[center, col] == pytest.approx(1.0 / h ** 2, rel=1e-14)
        # the (1, 0) neighbor sits on the pressure-free face: dropped
        assert a[center, np.ravel_multi_index((1, 0), grid.shape)] == 0.0

    @pytest.mark.parametrize("free_surface", [True, False])
    def test_matrix_symmetric_entrywise(self, free_surface):
        grid = Grid((50.0, 40.0), (6, 5))
        rng = np.random.default_rng(2)
        speed = NodalField(grid, rng.uniform(1400, 1700, grid.n_nodes))
        system = assemble(grid, speed, PHYS, free_surface=free_surface)
        diff = (system.matrix - system.matrix.T).toarray()
        assert np.max(np.abs(diff)) == 0.0

    def test_matrix_symmetric_3d(self):
        grid = Grid((30.0, 24.0, 20.0), (4, 4, 3))
        rng = np.random.default_rng(3)
        speed = NodalField(grid, rng.uniform(1400, 1700, grid.n_nodes))
        system = assemble(grid, speed, PHYS)
        diff = (system.matrix - system.matrix.T).toarray()
        assert np.max(np.abs(diff)) == 0.0

    @pytest.mark.parametrize("free_surface", [True, False])
    def test_matches_dense_reference_on_4x4(self, free_surface):
        grid = Grid((30.0, 30.0), (4, 4))
        rng = np.random.default_rng(4)
        speed = NodalField(grid, rng.uniform(1400, 1700, grid.n_nodes))
        system = assemble(grid, speed, PHYS, free_surface=free_surface)
        ref = dense_reference_matrix(grid, speed, PHYS, free_surface)
        got = system.matrix.toarray()
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_matches_dense_reference_3d(self):
        grid = Grid((20.0, 20.0, 20.0), (3, 3, 3))
        rng = np.random.default_rng(5)
        speed = NodalField(grid, rng.uniform(1400, 1700, grid.n_nodes))
        system = assemble(grid, speed, PHYS)
        ref = dense_reference_matrix(grid, speed, PHYS)
        got = system.matrix.toarray()
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("case", ["default_2d", "default_2d_all_robin", "3d", "3d_all_robin"])
    def test_cached_pattern_bit_equal_to_coo_assembly(self, case):
        if case.startswith("default_2d"):
            cfg = parse_config(DEFAULT_CONFIG)
            grid = C.build_grid(cfg)
            speed, phys = C.build_true_field(cfg, grid), C.build_physics(cfg)
        else:
            grid, phys = GRID_3D, PHYS
            speed = random_speed(grid, 13)
        free_surface = not case.endswith("all_robin")
        system = assemble(grid, speed, phys, free_surface=free_surface)
        assert_bit_equal(system.matrix, coo_reference(grid, speed, phys, free_surface))
        # a second speed on the same grid goes through the cached pattern
        other = NodalField(grid, speed.values[::-1].copy())
        again = assemble(grid, other, phys, free_surface=free_surface)
        assert_bit_equal(again.matrix, coo_reference(grid, other, phys, free_surface))

    def test_cached_pattern_survives_writes_to_a_matrix(self):
        grid = GRID_3D
        speed = random_speed(grid, 14)
        first = assemble(grid, speed, PHYS).matrix
        for written in (first.data, first.indices, first.indptr):
            written[:] = 7
        second = assemble(grid, speed, PHYS).matrix
        assert_bit_equal(second, coo_reference(grid, speed, PHYS))
        for shared in _pattern(grid, True):
            assert not shared.flags.writeable
            with pytest.raises(ValueError):
                shared[0] = 1

    def test_cached_offdiagonals_are_real(self):
        # the values 1/h^2 times the row scale are never complex: the cache
        # keeps them as float64, half the bytes, and assemble's complex
        # copy of them is checked bit for bit against COO assembly above
        for grid in (Grid((40.0, 40.0), (5, 5)), GRID_3D):
            for free_surface in (True, False):
                offdiag = _pattern(grid, free_surface)[2]
                assert offdiag.dtype == np.float64
                assert not offdiag.flags.writeable

    def test_nonfinite_speed_rejected(self):
        grid = Grid((30.0, 30.0), (4, 4))
        vals = np.full(grid.n_nodes, 1500.0)
        vals[5] = np.nan
        with pytest.raises(AssemblyError):
            assemble(grid, NodalField(grid, vals), PHYS)

    def test_points_per_wavelength(self):
        grid = Grid((600.0, 300.0), (81, 41))
        assert points_per_wavelength(grid, PHYS, 1500.0) == pytest.approx(8.0)


class TestSolve:
    def test_zero_rhs_gives_zero(self):
        grid = Grid((40.0, 40.0), (5, 5))
        system = assemble(grid, constant_speed(grid), PHYS)
        x = system.solve(np.zeros(grid.n_nodes, dtype=complex))
        assert np.all(x == 0)

    def test_residual_bound(self):
        # one vector on a small constant grid, a 32-column block on the
        # default config's true model and on the criterion-1 starting
        # model, one vector on a small constant 3-D grid and a 32-column
        # block on it at a random speed
        cfg = parse_config(DEFAULT_CONFIG)
        grid_5 = Grid((40.0, 40.0), (5, 5))
        grid_cfg = C.build_grid(cfg)
        start_1, phys_1 = criterion_1_start()
        rng = np.random.default_rng(6)
        for system, block in (
            (assemble(grid_5, constant_speed(grid_5), PHYS), ()),
            (assemble(grid_cfg, C.build_true_field(cfg, grid_cfg),
                      C.build_physics(cfg)), (32,)),
            (assemble(start_1.grid, start_1, phys_1), (32,)),
            (assemble(GRID_3D, constant_speed(GRID_3D), PHYS), ()),
            (assemble(GRID_3D, random_speed(GRID_3D, 15), PHYS), (32,)),
        ):
            shape = (system.grid.n_nodes, *block)
            b = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            x = system.solve(b)
            residual = np.linalg.norm(system.matrix @ x - b, axis=0)
            assert np.all(residual <= 1e-10 * np.linalg.norm(b, axis=0))

    def test_agrees_with_dense_lu(self):
        grid = Grid((40.0, 40.0), (5, 5))
        rng = np.random.default_rng(7)
        speed = NodalField(grid, rng.uniform(1400, 1700, grid.n_nodes))
        system = assemble(grid, speed, PHYS)
        b = rng.normal(size=grid.n_nodes) + 1j * rng.normal(size=grid.n_nodes)
        x = system.solve(b)
        x_dense = np.linalg.solve(system.matrix.toarray(), b)
        assert np.linalg.norm(x - x_dense) <= 1e-10 * np.linalg.norm(x_dense)

    def test_solve_linear_in_rhs(self):
        grid = Grid((40.0, 40.0), (5, 5))
        system = assemble(grid, constant_speed(grid), PHYS)
        rng = np.random.default_rng(8)
        b1 = rng.normal(size=grid.n_nodes) + 1j * rng.normal(size=grid.n_nodes)
        b2 = rng.normal(size=grid.n_nodes) + 1j * rng.normal(size=grid.n_nodes)
        a, c = 1.3 - 0.2j, -0.7 + 2.1j
        lhs = system.solve(a * b1 + c * b2)
        rhs = a * system.solve(b1) + c * system.solve(b2)
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)

    def test_solve_rejects_other_shapes(self):
        # flattened in C order and restored in F order, a (25, 2, 3) block
        # came back off by 224 from its columns solved alone
        grid = Grid((40.0, 40.0), (5, 5))
        system = assemble(grid, constant_speed(grid), PHYS)
        rng = np.random.default_rng(21)
        for shape in ((25, 2, 3), (25, 1, 1), ()):
            b = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            with pytest.raises(ValueError, match="one vector or a"):
                system.solve(b)
        assert system.solve_count == 0

    def test_block_solve_matches_column_solves(self):
        grid = Grid((40.0, 40.0), (5, 5))
        system = assemble(grid, constant_speed(grid), PHYS)
        rng = np.random.default_rng(9)
        b = rng.normal(size=(grid.n_nodes, 3)) + 1j * rng.normal(size=(grid.n_nodes, 3))
        block = system.solve(b)
        for col in range(3):
            single = system.solve(b[:, col])
            assert np.allclose(block[:, col], single, rtol=0, atol=1e-14)

    def test_block_columns_bit_equal_on_default_config(self):
        # bounded misfits solve the sources in blocks of a few columns and
        # must reproduce the one-block fields bit for bit, at the process's
        # BLAS thread count: on the inversion grid at the starting model,
        # and on the h/2 synthesis grid at the true model; for the
        # supernodes of SuperLU's relax and panel settings, also on the
        # criterion-1 grid at its starting model and on a small 3-D grid
        cfg = parse_config(DEFAULT_CONFIG)
        grid = C.build_grid(cfg)
        fine = C.build_grid(cfg, refine=2)
        model = C.build_initial_model(cfg, C.build_partition_for(cfg, grid))
        phys = C.build_physics(cfg)
        sources = C.build_sim_sources(cfg, grid)
        assert sources.n_sources == 32
        start_1, phys_1 = criterion_1_start()
        row_1 = [(10.0 + 5.0 * i, 50.0) for i in range(32)]
        layers_3d = [(x, y, z) for z in (20.0, 30.0) for x in (10.0, 20.0, 30.0, 40.0, 50.0)
                     for y in (10.0, 20.0, 30.0)]
        for speed, positions, phys_ in (
            (evaluate_model(model), sources.positions, phys),
            (C.build_true_field(cfg, fine), C.build_obs_sources(cfg, grid).positions, phys),
            (start_1, row_1, phys_1),
            (random_speed(GRID_3D, 16), layers_3d, PHYS),
        ):
            system = assemble(speed.grid, speed, phys_)
            positions = np.asarray(positions, dtype=float)
            nodes = speed.grid.nearest_nodes(positions)
            assert len(set(nodes)) == len(nodes) >= 30
            full = system.green_many(positions)
            order = np.random.default_rng(10).permutation(len(nodes))
            blocks = np.empty_like(full, order="F")
            for start in range(0, len(nodes), 8):
                cols = order[start:start + 8]
                blocks[:, cols] = system.green_many(positions[cols])
            assert blocks.tobytes(order="F") == full.tobytes(order="F")
            for col in order[:3]:
                single = system.green_many(positions[[col]])
                assert single.tobytes() == full[:, col].tobytes()

    def test_solve_never_writes_the_right_hand_side(self):
        # each solved column goes back to node order inside SuperLU's fresh
        # result, or into a new block past FORWARD_BLOCK columns: the
        # caller's array keeps its bytes, the result shares none of its
        # memory, and the values are those of a scatter into a new block
        cfg = parse_config(DEFAULT_CONFIG)
        grid = C.build_grid(cfg)
        system = assemble(grid, C.build_true_field(cfg, grid), C.build_physics(cfg))
        lu = system.factorization
        n = grid.n_nodes
        rng = np.random.default_rng(20)
        for shape in ((n,), (n, 1), (n, 7), (n, 8), (n, 9), (n, 17)):
            for layout in "CF":
                b = np.array(rng.normal(size=shape) + 1j * rng.normal(size=shape),
                             order=layout)
                before = b.tobytes(order="A")
                x = system.solve(b)
                assert b.tobytes(order="A") == before
                assert not np.shares_memory(x, b)
                cols = b.reshape(n, -1)
                ref = np.empty(cols.shape, dtype=complex, order="F")
                for start in range(0, cols.shape[1], FORWARD_BLOCK):
                    chunk = slice(start, start + FORWARD_BLOCK)
                    ref[:, chunk] = lu.solve(cols[:, chunk])[system._perm]
                assert x.shape == shape
                assert x.tobytes(order="F") == ref.reshape(shape, order="F").tobytes(order="F")

    def test_green_many_holds_two_blocks(self):
        # the right-hand side and SuperLU's result are the only node-sized
        # blocks of an 8-source solve; a second result block would make 3
        cfg = parse_config(DEFAULT_CONFIG)
        grid = C.build_grid(cfg)
        system = assemble(grid, C.build_true_field(cfg, grid), C.build_physics(cfg))
        system.factorization
        positions = C.build_sim_sources(cfg, grid).positions[:FORWARD_BLOCK]
        tracemalloc.start()
        try:
            system.green_many(positions)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * grid.n_nodes * FORWARD_BLOCK * 16

    @pytest.mark.parametrize("grid_name", ["criterion_1", "default_2d", "3d"])
    def test_cached_order_bit_equal_to_per_call_ordering(self, grid_name):
        # the column order computed once per grid must give the factors and
        # the solves of a minimum-degree ordering run on the operator itself
        if grid_name == "criterion_1":
            grid = criterion_1_start()[0].grid
        elif grid_name == "default_2d":
            grid = C.build_grid(parse_config(DEFAULT_CONFIG))
        else:
            grid = GRID_3D
        rng = np.random.default_rng(17)
        for free_surface in (True, False):
            for freq_hz in (12.5, 25.0):
                phys = PhysicsConfig(freq_hz=freq_hz, water_speed=1500.0)
                speed = random_speed(grid, int(rng.integers(1 << 30)))
                system = assemble(grid, speed, phys, free_surface=free_surface)
                ref = spla.splu(system.matrix, permc_spec="MMD_AT_PLUS_A",
                                relax=SUPERLU_RELAX, panel_size=SUPERLU_PANEL_SIZE)
                lu = system.factorization
                assert lu.L.data.tobytes() == ref.L.data.tobytes()
                assert lu.U.data.tobytes() == ref.U.data.tobytes()
                shape = (grid.n_nodes, FORWARD_BLOCK)
                b = rng.normal(size=shape) + 1j * rng.normal(size=shape)
                assert system.solve(b).tobytes(order="F") == ref.solve(b).tobytes(order="F")

    def test_one_ordering_per_grid(self, monkeypatch):
        orderings = []

        def counting(factorize):
            def factorize_and_count(matrix, permc_spec=None, **kwargs):
                orderings.append(permc_spec)
                return factorize(matrix, permc_spec=permc_spec, **kwargs)
            return factorize_and_count

        monkeypatch.setattr(spla, "splu", counting(spla.splu))
        monkeypatch.setattr(spla, "spilu", counting(spla.spilu))
        _pattern.cache_clear()
        grid = Grid((100.0, 80.0), (21, 17))
        for seed in (18, 19):
            assemble(grid, random_speed(grid, seed), PHYS).factorization
        assert orderings == ["MMD_AT_PLUS_A", "NATURAL", "NATURAL"]

    @pytest.mark.parametrize("shape", [(41, 21), (81, 41), (161, 81), (17, 13, 15)],
                             ids=["41x21", "81x41", "161x81", "17x13x15"])
    def test_order_is_that_of_a_complete_factorization(self, shape):
        # _pattern orders from an incomplete factorization of its stand-in;
        # a complete MMD_AT_PLUS_A factorization of a diagonally dominant
        # matrix with the operator's structure gives the same column order
        grid = Grid(tuple(10.0 * (n - 1) for n in shape), shape)
        for free_surface in (True, False):
            a = abs(assemble(grid, constant_speed(grid), PHYS, free_surface=free_surface).matrix)
            dominant = sp.csc_matrix(a + sp.diags(1.0 + np.asarray(a.sum(axis=0)).ravel()))
            lu = spla.splu(dominant, permc_spec="MMD_AT_PLUS_A",
                           relax=SUPERLU_RELAX, panel_size=SUPERLU_PANEL_SIZE)
            perm = _pattern(grid, free_surface)[4]
            assert np.array_equal(perm, lu.perm_c)

    def test_symmetric_ordering_keeps_fill_low(self):
        # MMD on A^T + A leaves 93,263 nonzeros in L + U here; the default
        # COLAMD ordering left 150,722
        cfg = parse_config(DEFAULT_CONFIG)
        grid = C.build_grid(cfg)
        model = C.build_initial_model(cfg, C.build_partition_for(cfg, grid))
        lu = assemble(grid, evaluate_model(model), C.build_physics(cfg)).factorization
        assert lu.L.nnz + lu.U.nnz < 100_000


class TestGreen:
    def test_reciprocity_between_interior_points(self):
        grid = Grid((100.0, 80.0), (21, 17))
        rng = np.random.default_rng(10)
        speed = NodalField(grid, rng.uniform(1400, 1700, grid.n_nodes))
        system = assemble(grid, speed, PHYS)
        positions = [(30.0, 40.0), (70.0, 25.0)]
        node_a, node_b = grid.nearest_nodes(positions)
        g_a, g_b = system.green_many(positions).T
        lhs = g_a[node_b]
        rhs = g_b[node_a]
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)

    def test_dirichlet_trace_exactly_zero(self):
        grid = Grid((100.0, 80.0), (21, 17))
        system = assemble(grid, constant_speed(grid), PHYS)
        field = system.green_many([(50.0, 40.0)])[:, 0]
        top = field[grid.free_surface_mask()]
        assert np.all(top == 0.0)

    def test_source_on_free_surface_rejected(self):
        # rejected whatever the boundary choice, before any solve
        grid = Grid((100.0, 80.0), (21, 17))
        for free_surface in (True, False):
            system = assemble(grid, constant_speed(grid), PHYS, free_surface=free_surface)
            with pytest.raises(GeometryError, match="lies on the pressure-free surface"):
                system.green_many([(50.0, 40.0), (50.0, 0.0)])
            assert system.solve_count == 0

    def test_free_space_magnitude_all_robin(self):
        # homogeneous medium, radiation condition on every face: |G| must
        # track the outgoing free-space response at mid-range radii
        grid = Grid((360.0, 360.0), (97, 97))
        system = assemble(grid, constant_speed(grid), PHYS, free_surface=False)
        center = (180.0, 180.0)
        field = system.green_many([center])[:, 0]
        kappa = PHYS.k / 1500.0
        pos = grid.node_positions()
        r = np.linalg.norm(pos - np.array(center), axis=1)
        h = grid.spacing[0]
        ring = (r >= 2 * h) & (r <= 90.0)
        exact = np.abs(0.25j * hankel1(0, kappa * r[ring]))
        got = np.abs(field[ring])
        rel = np.abs(got - exact) / exact
        assert np.median(rel) < 0.05
        assert rel.max() < 0.10


class TestTraces:
    def test_depth_linear_field_has_unit_upward_derivative(self):
        grid = Grid((100.0, 80.0), (11, 9))
        receivers = receiver_layer(grid, depth_m=40.0)
        field = NodalField(grid, grid.node_positions()[:, -1])
        vals, dnu = traces_many(field.values[:, None], receivers)
        assert np.allclose(vals, 40.0)
        assert np.allclose(dnu, -1.0, atol=1e-13)

    def test_constant_field_has_zero_derivative(self):
        grid = Grid((100.0, 80.0), (11, 9))
        receivers = receiver_layer(grid, depth_m=40.0)
        field = NodalField(grid, np.full(grid.n_nodes, 3.3))
        _, dnu = traces_many(field.values[:, None], receivers)
        assert np.all(dnu == 0.0)

    def test_centered_difference_converges_second_order(self):
        def smooth(grid):
            pos = grid.node_positions()
            return NodalField(grid, np.sin(0.05 * pos[:, 0]) * np.exp(-0.02 * pos[:, 1]))

        errors = []
        for shape in ((11, 9), (21, 17)):
            grid = Grid((100.0, 80.0), shape)
            receivers = receiver_layer(grid, depth_m=40.0, count=5, margin_m=10.0)
            _, dnu = traces_many(smooth(grid).values[:, None], receivers)
            x = receivers.positions[:, 0]
            exact = 0.02 * np.sin(0.05 * x) * np.exp(-0.02 * 40.0)
            errors.append(np.max(np.abs(dnu[0] - exact)))
        order = np.log2(errors[0] / errors[1])
        assert order >= 1.8


class TestSolverBreakdown:
    def test_singular_factorization_reported(self):
        grid = Grid((20.0, 20.0), (3, 3))
        speed = constant_speed(grid)
        singular = sp.csc_matrix((9, 9), dtype=complex)
        system = HelmholtzSystem(speed, PHYS, singular, np.arange(9), grid.free_surface_mask())
        with pytest.raises(SolverBreakdownError):
            system.factorization

    def test_non_finite_solution_reported(self):
        grid = Grid((20.0, 20.0), (3, 3))
        tiny = sp.identity(9, dtype=complex, format="csc") * 1e-300
        system = HelmholtzSystem(constant_speed(grid), PHYS, tiny, np.arange(9),
                                 grid.free_surface_mask())
        with pytest.raises(SolverBreakdownError):
            system.solve(np.full(9, 1e10, dtype=complex))  # 1e310 overflows
        assert system.solve_count == 0


class TestFieldExport:
    def test_structured_points_round_trip(self, tmp_path):
        grid = Grid((50.0, 30.0), (6, 4))
        rng = np.random.default_rng(12)
        field = NodalField(grid, rng.normal(size=grid.n_nodes))
        path = tmp_path / "field.txt"
        write_field_structured_points(field, path)
        back = read_field_structured_points(path)
        assert back.grid == grid
        assert np.array_equal(back.values, field.values)
