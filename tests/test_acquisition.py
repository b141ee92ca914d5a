import math
import tracemalloc

import numpy as np
import pytest

from cauchyfwi.acquisition import (
    CauchyDataSet,
    Provenance,
    ReceiverArray,
    SourceSet,
    add_noise,
    noise_factor,
    read_data,
    receiver_layer,
    source_lattice,
    synthesize,
    validate_geometry,
    write_data,
)
from cauchyfwi.errors import DataFormatError, GeometryError
from cauchyfwi.geometry import Grid, NodalField
from cauchyfwi.helmholtz import (
    FORWARD_BLOCK,
    HelmholtzSystem,
    PhysicsConfig,
    assemble,
    traces_many,
)

PHYS = PhysicsConfig(freq_hz=25.0, water_speed=1500.0)


def make_grid():
    return Grid((300.0, 150.0), (41, 21))  # h = 7.5


def homogeneous(grid, c=1500.0):
    return NodalField(grid, np.full(grid.n_nodes, c))


class TestReceiverLayer:
    def test_full_layer_weights_sum_to_span(self):
        grid = make_grid()
        rec = receiver_layer(grid, depth_m=30.0)
        assert rec.n_receivers == 41
        assert np.isclose(rec.weights.sum(), 300.0, rtol=1e-13)

    def test_subset_weights_sum_to_lattice_span(self):
        grid = make_grid()
        rec = receiver_layer(grid, depth_m=30.0, count=5, margin_m=15.0)
        x = rec.positions[:, 0]
        assert np.isclose(rec.weights.sum(), x[-1] - x[0], rtol=1e-13)

    def test_misaligned_depth_rejected(self):
        grid = make_grid()
        with pytest.raises(GeometryError, match="not on a node layer"):
            receiver_layer(grid, depth_m=31.0)

    def test_layer_on_boundary_rejected(self):
        grid = make_grid()
        with pytest.raises(GeometryError, match="strictly inside the domain"):
            receiver_layer(grid, depth_m=0.0)
        with pytest.raises(GeometryError, match="strictly inside the domain"):
            receiver_layer(grid, depth_m=150.0)

    def test_3d_layer_weights(self):
        grid = Grid((60.0, 40.0, 50.0), (7, 5, 6))
        rec = receiver_layer(grid, depth_m=20.0)
        assert rec.n_receivers == 7 * 5
        assert np.isclose(rec.weights.sum(), 60.0 * 40.0, rtol=1e-13)

    def test_nodes_fixed_and_read_only(self):
        grid = Grid((60.0, 40.0, 50.0), (7, 5, 6))
        rec = receiver_layer(grid, depth_m=20.0, count=3, margin_m=10.0)
        positions = grid.node_positions()
        assert np.array_equal(positions[rec.value_nodes], rec.positions)
        # z is the last, fastest axis: the straddling layers are one node off
        assert np.array_equal(rec.above_nodes, rec.value_nodes - 1)
        assert np.array_equal(rec.below_nodes, rec.value_nodes + 1)
        for nodes in (rec.value_nodes, rec.above_nodes, rec.below_nodes):
            assert not nodes.flags.writeable

    def test_on_grid_remap(self):
        grid = make_grid()
        rec = receiver_layer(grid, depth_m=30.0, count=5, margin_m=15.0)
        fine = grid.refine(2)
        rec_f = rec.on_grid(fine)
        assert np.allclose(rec_f.positions, rec.positions)
        assert rec_f.depth_index == rec.depth_index * 2


class TestSourceLattice:
    def test_planar_weights_are_midpoint_cells(self):
        grid = make_grid()
        src = source_lattice(grid, depth_m=7.5, count=8, margin_m=30.0)
        assert src.n_sources == 8
        span = 300.0 - 60.0
        assert np.allclose(src.weights, span / 8)
        assert np.all(src.positions[:, -1] == 7.5)

    def test_volumetric_weights(self):
        grid = make_grid()
        src = source_lattice(grid, depth_m=7.5, count=4, margin_m=30.0,
                             depth_span_m=15.0, n_layers=2)
        assert src.n_sources == 8
        assert np.allclose(src.weights, (240.0 / 4) * (15.0 / 2))

    def test_too_close_to_receivers_rejected(self):
        grid = make_grid()
        rec = receiver_layer(grid, depth_m=15.0)
        src = source_lattice(grid, depth_m=7.5, count=4, margin_m=30.0)
        with pytest.raises(GeometryError):
            validate_geometry(src, rec)


class TestSynthesize:
    def test_inverse_crime_matches_direct_simulation(self):
        # same grid for synthesis and for the inversion-side operator
        grid = make_grid()
        field = homogeneous(grid, 1550.0)
        rec = receiver_layer(grid, depth_m=30.0)
        obs = source_lattice(grid, depth_m=7.5, count=4, margin_m=30.0)
        data = synthesize(field, obs, rec, PHYS)

        system = assemble(grid, field, PHYS)
        for s, pos in enumerate(obs.positions):
            g_field = system.green_many([pos])
            vals, dnu = traces_many(g_field, rec)
            assert np.allclose(vals[0], data.g[s], rtol=1e-12, atol=0)
            assert np.allclose(dnu[0], data.dg[s], rtol=1e-12, atol=0)

    def test_refined_grid_traces_converge_second_order(self):
        grid = make_grid()
        rec = receiver_layer(grid, depth_m=30.0)
        obs = source_lattice(grid, depth_m=7.5, count=2, margin_m=60.0)

        def data_at(refine):
            fine = grid.refine(refine)
            return synthesize(homogeneous(fine, 1500.0), obs, rec, PHYS)

        d1, d2, d4 = data_at(1), data_at(2), data_at(4)
        err_12 = np.max(np.abs(d1.g - d2.g))
        err_24 = np.max(np.abs(d2.g - d4.g))
        assert err_12 > 0
        order = np.log2(err_12 / err_24)
        assert order >= 1.7

    def test_streams_source_blocks_and_keeps_only_traces(self):
        # 128 sources on distinct nodes of the 81 x 41 h/2 grid: 16 blocks
        # of FORWARD_BLOCK.
        grid = make_grid()
        fine = grid.refine(2)
        field = homogeneous(fine, 1550.0)
        rec = receiver_layer(grid, depth_m=30.0)
        obs = source_lattice(grid, depth_m=5.0, count=32, margin_m=30.0,
                             depth_span_m=15.0, n_layers=4)
        assert obs.n_sources >= 8 * FORWARD_BLOCK
        rec_fine = rec.on_grid(fine)
        system = assemble(fine, field, PHYS)  # also caches the grid's pattern
        g_ref, dg_ref = traces_many(system.green_many(obs.positions), rec_fine)

        tracemalloc.start()
        try:
            data = synthesize(field, obs, rec, PHYS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # numpy's arrays are traced, SuperLU's own memory is not.  A block
        # is FORWARD_BLOCK fields on the fine grid: solving 8 sources at a
        # time peaks at 3.29 of them, their right-hand side and result
        # beside the operator and the traces; 2 at a time peaks at 2.04
        field_block = fine.n_nodes * FORWARD_BLOCK * np.dtype(complex).itemsize
        assert peak < 2.5 * field_block
        np.testing.assert_array_equal(data.g, g_ref)
        np.testing.assert_array_equal(data.dg, dg_ref)

    @pytest.mark.parametrize("refine, width", [(1, FORWARD_BLOCK), (2, 2)])
    def test_source_block_width_follows_the_grids(self, monkeypatch, refine, width):
        # a block solved on the fine grid holds no more than FORWARD_BLOCK
        # fields of the receiver grid, and its traces are bit-equal to
        # those of one solve over every source
        grid = make_grid()
        obs = source_lattice(grid, depth_m=7.5, count=8, margin_m=30.0,
                             depth_span_m=7.5, n_layers=2)
        data, widths, reference = synthesize_recording_widths(monkeypatch, grid, refine, obs)
        assert widths == [width] * (obs.n_sources // width)
        g_ref, dg_ref = reference(obs.positions)
        np.testing.assert_array_equal(data.g, g_ref)
        np.testing.assert_array_equal(data.dg, dg_ref)

    def test_source_blocks_of_one_in_3d(self, monkeypatch):
        # the refined 3-D grid has 6.6 times the nodes: one source a block.
        # At 1 BLAS thread the traces are bit-equal to one solve over every
        # source; at 2, OpenBLAS threads the 8-column solve of that
        # reference on this grid, which moves its last bits, so it is
        # checked to rounding and each block against its source alone
        grid = Grid((80.0, 60.0, 70.0), (9, 7, 8))
        obs = source_lattice(grid, depth_m=10.0, count=3, margin_m=20.0)
        data, widths, reference = synthesize_recording_widths(monkeypatch, grid, 2, obs)
        assert widths == [1] * 9
        g_ref, dg_ref = reference(obs.positions)
        np.testing.assert_allclose(data.g, g_ref, rtol=1e-12, atol=0)
        np.testing.assert_allclose(data.dg, dg_ref, rtol=1e-12, atol=0)
        for i in range(obs.n_sources):
            g_i, dg_i = reference(obs.positions[[i]])
            assert data.g[i].tobytes() == g_i.tobytes()
            assert data.dg[i].tobytes() == dg_i.tobytes()

    def test_receivers_must_align_with_fine_nodes(self):
        grid = make_grid()
        rec = receiver_layer(grid, depth_m=30.0)
        odd = Grid(grid.extent, (61, 31))  # not a node-compatible refinement
        with pytest.raises(GeometryError, match="not a refinement"):
            synthesize(homogeneous(odd), source_lattice(grid, 7.5, 2, 30.0), rec, PHYS)


def synthesize_recording_widths(monkeypatch, grid, refine, obs):
    """synthesize a 1550 m/s medium on grid refined refine times, with
    receivers at 30 m; returns the data, the number of sources in each
    green_many call, and a function giving the traces of one solve over
    a position set."""
    fine = grid.refine(refine)
    field = homogeneous(fine, 1550.0)
    rec = receiver_layer(grid, depth_m=30.0)
    system = assemble(fine, field, PHYS)
    widths = []
    green_many = HelmholtzSystem.green_many

    def recording(system, positions):
        widths.append(len(positions))
        return green_many(system, positions)

    monkeypatch.setattr(HelmholtzSystem, "green_many", recording)
    data = synthesize(field, obs, rec, PHYS)
    monkeypatch.undo()
    return data, widths, lambda positions: traces_many(system.green_many(positions),
                                                       rec.on_grid(fine))


def small_dataset(seed=0, n_src=3, n_rcv=33):
    grid = make_grid()
    rec = receiver_layer(grid, depth_m=30.0, count=n_rcv, margin_m=7.5)
    src = source_lattice(grid, depth_m=7.5, count=n_src, margin_m=30.0)
    rng = np.random.default_rng(seed)
    shape = (n_src, rec.n_receivers)
    g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    dg = 0.1 * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
    prov = Provenance(grid.shape, grid.extent, math.inf, 0)
    return CauchyDataSet(rec, src, g, dg, PHYS.freq_hz, prov)


class TestAddNoise:
    def test_realized_snr_within_half_db(self):
        # 33 x 33 > 1e3 samples keeps the power estimate inside the band
        data = small_dataset(n_src=33, n_rcv=33)
        noisy = add_noise(data, snr_db=15.0, seed=99)
        for clean, dirty in ((data.g, noisy.g), (data.dg, noisy.dg)):
            signal = np.sum(np.abs(clean) ** 2)
            noise = np.sum(np.abs(dirty - clean) ** 2)
            realized = 10 * np.log10(signal / noise)
            assert abs(realized - 15.0) <= 0.5

    def test_same_seed_bit_identical(self):
        data = small_dataset()
        n1 = add_noise(data, 15.0, seed=7)
        n2 = add_noise(data, 15.0, seed=7)
        assert np.array_equal(n1.g, n2.g)
        assert np.array_equal(n1.dg, n2.dg)

    def test_different_seed_differs(self):
        data = small_dataset()
        n1 = add_noise(data, 15.0, seed=7)
        n2 = add_noise(data, 15.0, seed=8)
        assert not np.array_equal(n1.g, n2.g)

    def test_infinite_snr_is_identity(self):
        data = small_dataset()
        out = add_noise(data, math.inf, seed=7)
        assert np.array_equal(out.g, data.g)
        assert np.array_equal(out.dg, data.dg)

    @pytest.mark.parametrize("snr_db", [math.inf, 15.0])
    def test_negative_seed_rejected(self, snr_db):
        # at infinite SNR no generator is seeded, yet the seed is recorded
        with pytest.raises(ValueError, match="noise seed -1 is negative"):
            add_noise(small_dataset(), snr_db, seed=-1)

    def test_noise_factor_decides_what_an_snr_means(self):
        assert noise_factor(math.inf) is None
        assert noise_factor(10.0) == 0.1
        assert noise_factor(-10.0) == 10.0
        for bad in (math.nan, -math.inf):
            with pytest.raises(ValueError):
                noise_factor(bad)

    def test_zero_trace_rejected(self):
        data = small_dataset()
        g = np.array(data.g)
        g[1] = 0.0
        broken = CauchyDataSet(data.receivers, data.obs_sources, g, data.dg,
                               data.freq_hz, data.provenance)
        with pytest.raises(GeometryError, match="source 1 is identically zero"):
            add_noise(broken, 15.0, seed=1)

    def test_noise_is_zero_mean(self):
        # averaging M realizations converges to the clean data at M^-1/2
        data = small_dataset(n_src=1, n_rcv=8)
        m = 10_000
        acc = np.zeros_like(data.g)
        for seed in range(m):
            acc += add_noise(data, 10.0, seed=seed).g
        mean = acc / m
        sigma = math.sqrt(np.mean(np.abs(data.g) ** 2) * 10 ** (-1.0) / 2)
        # per-component standard error of the mean, 3-sigma band
        band = 3 * sigma / math.sqrt(m)
        assert np.max(np.abs(mean.real - data.g.real)) <= band
        assert np.max(np.abs(mean.imag - data.g.imag)) <= band


class TestDataFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        data = small_dataset(seed=5)
        noisy = add_noise(data, 12.5, seed=3)
        path = tmp_path / "data.txt"
        write_data(noisy, path)
        back = read_data(path, noisy.receivers, noisy.obs_sources, noisy.freq_hz)
        assert np.array_equal(back.g, noisy.g)
        assert np.array_equal(back.dg, noisy.dg)
        assert back.freq_hz == noisy.freq_hz
        assert back.provenance == noisy.provenance

    def test_failed_write_keeps_the_old_file(self, tmp_path, disk_full):
        path = tmp_path / "data.txt"
        path.write_text("previous data\n")
        disk_full("data.txt")
        with pytest.raises(OSError, match="disk full"):
            write_data(small_dataset(), path)
        assert path.read_text() == "previous data\n"
        assert [p.name for p in tmp_path.iterdir()] == ["data.txt"]

    def test_frequency_mismatch_rejected(self, tmp_path):
        data = small_dataset()
        path = tmp_path / "data.txt"
        write_data(data, path)
        with pytest.raises(DataFormatError):
            read_data(path, data.receivers, data.obs_sources, expect_freq=99.0)

    def test_truncated_file_names_byte_offset(self, tmp_path):
        data = small_dataset()
        path = tmp_path / "data.txt"
        write_data(data, path)
        full = path.read_bytes()
        path.write_bytes(full[: int(len(full) * 0.6)])
        with pytest.raises(DataFormatError) as err:
            read_data(path, data.receivers, data.obs_sources, data.freq_hz)
        assert err.value.byte_offset is not None
        assert "byte offset" in str(err.value)

    def test_repeated_row_names_byte_offset(self, tmp_path):
        # row (0, 1) replaced by a second (0, 0): the row count still fits,
        # but g[0, 1] would silently read as zero
        data = small_dataset()
        path = tmp_path / "data.txt"
        write_data(data, path)
        lines = path.read_bytes().split(b"\n")
        first = next(i for i, ln in enumerate(lines) if ln.startswith(b"0, 0,"))
        assert lines[first + 1].startswith(b"0, 1,")
        lines[first + 1] = lines[first]
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(DataFormatError,
                           match=r"trace row \(0, 0\) where \(0, 1\) belongs") as err:
            read_data(path, data.receivers, data.obs_sources, data.freq_hz)
        assert err.value.byte_offset == sum(len(ln) + 1 for ln in lines[:first + 1])

    def test_swapped_rows_name_byte_offset(self, tmp_path):
        # rows (0, 0) and (0, 1) swapped: every pair is present once, but
        # only write_data's source-major order is read
        data = small_dataset()
        path = tmp_path / "data.txt"
        write_data(data, path)
        lines = path.read_bytes().split(b"\n")
        first = next(i for i, ln in enumerate(lines) if ln.startswith(b"0, 0,"))
        lines[first], lines[first + 1] = lines[first + 1], lines[first]
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(DataFormatError,
                           match=r"trace row \(0, 1\) where \(0, 0\) belongs") as err:
            read_data(path, data.receivers, data.obs_sources, data.freq_hz)
        assert err.value.byte_offset == sum(len(ln) + 1 for ln in lines[:first])

    def test_header_records_the_acquisition(self, tmp_path):
        data = small_dataset(n_src=2, n_rcv=3)
        path = tmp_path / "data.txt"
        write_data(data, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "cauchy v2"
        rows = [ln.split(" ", 1) for ln in lines[7:12]]
        assert [name for name, _ in rows] == ["source"] * 2 + ["receiver"] * 3
        values = np.array([[float(v) for v in text.split(",")] for _, text in rows])
        assert np.array_equal(values[:2, :2], data.obs_sources.positions)
        assert np.array_equal(values[:2, 2], data.obs_sources.weights)
        assert np.array_equal(values[2:, :2], data.receivers.positions)
        assert np.array_equal(values[2:, 2], data.receivers.weights)

    def test_non_numeric_source_row_names_byte_offset(self, tmp_path):
        data = small_dataset()
        path = tmp_path / "data.txt"
        write_data(data, path)
        lines = path.read_bytes().split(b"\n")
        assert lines[8].startswith(b"source ")
        lines[8] = lines[8].replace(b"source ", b"source ten", 1)
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(DataFormatError, match="malformed 'source' line") as err:
            read_data(path, data.receivers, data.obs_sources, data.freq_hz)
        assert err.value.byte_offset == sum(len(ln) + 1 for ln in lines[:8])

    def test_other_acquisition_rejected(self, tmp_path):
        data = small_dataset()
        path = tmp_path / "data.txt"
        write_data(data, path)
        moved = SourceSet(data.obs_sources.positions + [0.0, 7.5], data.obs_sources.weights)
        with pytest.raises(GeometryError, match="data.txt: source positions"):
            read_data(path, data.receivers, moved, data.freq_hz)
        n = data.n_sources
        fewer = SourceSet(data.obs_sources.positions[1:], data.obs_sources.weights[1:])
        with pytest.raises(GeometryError,
                           match=f"data.txt: {n} sources in file, geometry has {n - 1}$"):
            read_data(path, data.receivers, fewer, data.freq_hz)
        heavier = ReceiverArray(data.receivers.grid, data.receivers.depth_index,
                                data.receivers.lateral_indices, 2 * data.receivers.weights)
        with pytest.raises(GeometryError, match="data.txt: receiver positions"):
            read_data(path, heavier, data.obs_sources, data.freq_hz)

    @pytest.mark.parametrize("shape, extent, reason", [
        ((81, 21), (600.0, 150.0), "different extents"),  # same spacing
        ((61, 31), (300.0, 150.0), "not a refinement"),
    ])
    def test_synthesis_grid_must_refine_the_receiver_grid(self, tmp_path, shape, extent,
                                                         reason):
        data = small_dataset()
        prov = Provenance(shape, extent, math.inf, 0)
        path = tmp_path / "data.txt"
        write_data(CauchyDataSet(data.receivers, data.obs_sources, data.g, data.dg,
                                 data.freq_hz, prov), path)
        with pytest.raises(GeometryError, match=f"data.txt: synthesis grid .*{reason}"):
            read_data(path, data.receivers, data.obs_sources, data.freq_hz)

    @pytest.mark.parametrize("header, bad", [("snr", "nan"), ("snr", "-inf"),
                                             ("freq", "nan"), ("freq", "inf"),
                                             ("freq", "0"), ("seed", "-1")])
    def test_unusable_header_value_names_its_byte_offset(self, tmp_path, header, bad):
        data = small_dataset()
        path = tmp_path / "data.txt"
        write_data(data, path)
        lines = path.read_bytes().split(b"\n")
        row = next(i for i, ln in enumerate(lines) if ln.startswith(header.encode() + b" "))
        lines[row] = f"{header} {bad}".encode()
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(DataFormatError, match=f"malformed '{header}' line") as err:
            read_data(path, data.receivers, data.obs_sources, data.freq_hz)
        assert err.value.byte_offset == sum(len(ln) + 1 for ln in lines[:row])

    def test_negative_snr_round_trips(self, tmp_path):
        noisy = add_noise(small_dataset(), -3.0, seed=2)
        path = tmp_path / "data.txt"
        write_data(noisy, path)
        back = read_data(path, noisy.receivers, noisy.obs_sources, noisy.freq_hz)
        assert back.provenance.snr_db == -3.0
        assert np.array_equal(back.g, noisy.g)

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("cauchy v2\nfreq 10\n")
        data = small_dataset()
        with pytest.raises(DataFormatError):
            read_data(path, data.receivers, data.obs_sources, data.freq_hz)
