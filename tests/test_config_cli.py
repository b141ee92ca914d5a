import dataclasses
import shutil
import warnings

import numpy as np
import pytest

from cauchyfwi import cli, config, errors
from cauchyfwi.acquisition import read_data
from cauchyfwi.cli import cli_main
from cauchyfwi.config import (
    DEFAULT_CONFIG,
    build_clean_data,
    build_grid,
    build_initial_model,
    build_obs_sources,
    build_optimizer,
    build_partition_for,
    build_physics,
    build_problem,
    build_receivers,
    build_sim_sources,
    build_true_field,
    check_acquisition,
    parse_config,
    render_config,
)
from cauchyfwi.errors import CauchyFwiError, ConfigError, GeometryError
from cauchyfwi.geometry import NodalField, read_model
from cauchyfwi.helmholtz import read_field_structured_points, write_field_structured_points
from cauchyfwi.inversion import DISCREPANCY_TAU, Objective, OptimConfig

FAST_CONFIG = """
[grid]
dim = 2
extent_x_m = 240
extent_z_m = 120
nodes_x = 25
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
receiver_depth_m = 40
obs_source_depth_m = 10
obs_source_count = 4
sim_source_depth_m = 20
sim_source_count = 3
source_margin_m = 30

[noise]
snr_db = 15
seed = 7

[synthesis]
refine = 2

[optimizer]
n_iter_min = 1
n_iter_max = 3
n_eps = 1

[phantom]
background_surface_m_per_s = 1600
background_gradient_per_s = 1.0
inclusion_speed_m_per_s = 2200
inclusion_center_x_m = 120
inclusion_center_z_m = 80
inclusion_radius_m = 30
initial_top_speed_m_per_s = 1550
initial_bottom_speed_m_per_s = 1900
"""


@pytest.fixture(scope="module")
def run_outputs(tmp_path_factory):
    """A directory holding run.cfg and the outputs of synth and invert on it."""
    out = tmp_path_factory.mktemp("outputs")
    cfg = out / "run.cfg"
    cfg.write_text(FAST_CONFIG)
    prefix = str(out / "run")
    assert cli_main(["synth", "--config", str(cfg), "--out-prefix", prefix]) == 0
    assert cli_main(["invert", "--config", str(cfg), "--data-prefix", prefix,
                     "--out-prefix", str(out / "result")]) == 0
    return out


class TestConfigParsing:
    def test_default_config_parses(self):
        cfg = parse_config(DEFAULT_CONFIG)
        assert cfg.freq_hz == 12.5
        assert cfg.n_iter_min == 50
        assert build_optimizer(cfg) == OptimConfig(n_iter_max=175)
        section = render_config(cfg).split("[optimizer]\n", 1)[1].split("\n\n", 1)[0]
        # the optimizer section is the stopping rule; the line search's
        # constants are inversion module constants
        stopping_rule = ["n_iter_min", "n_iter_max", "n_eps", "eps_j"]
        assert [f.name for f in dataclasses.fields(OptimConfig)] == stopping_rule
        assert [ln.split(" = ")[0] for ln in section.splitlines()] == stopping_rule
        with pytest.raises(TypeError):
            OptimConfig(armijo_c1=1e-4)

    def test_render_parse_round_trip(self):
        cfg = parse_config(FAST_CONFIG)
        again = parse_config(render_config(cfg))
        assert again.values == cfg.values

    def test_unknown_keys_listed_exhaustively(self):
        text = FAST_CONFIG + "\n[grid]\nbogus_key = 1\n[physics]\nother_bogus = 2\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        message = str(err.value)
        assert "bogus_key" in message
        assert "other_bogus" in message

    def test_rejected_values_listed_exhaustively(self):
        text = FAST_CONFIG
        for old, new in (("c_max_m_per_s = 3400", "c_max_m_per_s = 1250"),
                         ("refine = 2", "refine = 0"), ("seed = 7", "seed = -1"),
                         ("extent_x_m = 240", "extent_x_m = 240\nextent_y_m = -1"),
                         ("nodes_x = 25", "nodes_x = 25\nnodes_y = -1")):
            text = text.replace(old, new)
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert len(err.value.problems) == 5, err.value.problems

    def test_duplicate_key_rejected(self):
        text = FAST_CONFIG + "\n[physics]\nfreq_hz = 30\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert "duplicate" in str(err.value)

    def test_missing_required_keys_listed(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[grid]\ndim = 2\n")
        message = str(err.value)
        assert "grid.extent_x_m" in message
        assert "physics.freq_hz" in message

    def test_wavelength_sampling_enforced(self):
        text = FAST_CONFIG.replace("freq_hz = 25", "freq_hz = 100")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert "wavelength" in str(err.value)

    def test_inclusion_no_narrower_than_a_synthesis_cell(self):
        # the refine grid of FAST_CONFIG is 5 m apart on both axes; a 1e-6 m
        # radius would synthesize a one-node spike
        for radius in ("5", "7.5"):
            cfg = parse_config(FAST_CONFIG.replace("inclusion_radius_m = 30",
                                                   f"inclusion_radius_m = {radius}"))
            assert cfg.inclusion_radius_m == float(radius)
        for radius, refine in (("1e-6", "2"), ("4.999", "2"), ("5", "1")):
            text = FAST_CONFIG.replace("inclusion_radius_m = 30",
                                       f"inclusion_radius_m = {radius}")
            with pytest.raises(ConfigError) as err:
                parse_config(text.replace("refine = 2", f"refine = {refine}"))
            spacing = 10 / int(refine)
            assert err.value.problems == [
                f"phantom.inclusion_radius_m must be at least the synthesis grid spacing "
                f"of {spacing:g} m, got {float(radius):g}"
            ]

    def test_source_receiver_separation_enforced(self):
        cfg = parse_config(FAST_CONFIG.replace("obs_source_depth_m = 10",
                                               "obs_source_depth_m = 25"))
        with pytest.raises(GeometryError, match="above the receiver layer"):
            build_problem(cfg)

    def test_volumetric_sources_checked_at_their_deepest_layer(self):
        # layers at 10 and 15 m; the receivers at 30 m are 2 hz = 15 m below
        cfg = parse_config(DEFAULT_CONFIG.replace("obs_source_depth_span_m = 7.5",
                                                  "obs_source_depth_span_m = 10"))
        assert build_problem(cfg).obs.positions[:, -1].max() == 15.0

    def test_builders_produce_consistent_geometry(self):
        cfg = parse_config(FAST_CONFIG)
        grid = build_grid(cfg)
        assert grid.shape == (25, 13)
        part = build_partition_for(cfg, grid)
        assert part.frozen.any()
        rec = build_receivers(cfg, grid)
        assert rec.depth_m == 40.0
        obs = build_obs_sources(cfg, grid)
        assert obs.n_sources == 4
        sim = build_sim_sources(cfg, grid, decoupled=True)
        assert sim.n_sources == 3
        assert np.all(sim.positions[:, -1] == 20.0)
        coupled = build_sim_sources(cfg, grid, decoupled=False)
        assert np.array_equal(coupled.positions, obs.positions)

    @pytest.mark.parametrize("decoupled", [False, True])
    def test_build_problem_matches_the_builders(self, decoupled):
        cfg = parse_config(FAST_CONFIG)
        problem = build_problem(cfg, decoupled=decoupled)
        grid = build_grid(cfg)
        assert problem.grid == grid
        assert problem.phys == build_physics(cfg)
        partition = build_partition_for(cfg, grid)
        assert np.array_equal(problem.partition.node_map, partition.node_map)
        assert np.array_equal(problem.partition.frozen, partition.frozen)
        receivers, obs = check_acquisition(cfg, grid)
        sim = build_sim_sources(cfg, grid, decoupled=decoupled)
        assert problem.sim.n_sources == (3 if decoupled else 4)
        for built, expected in ((problem.receivers, receivers), (problem.obs, obs),
                                (problem.sim, sim)):
            assert np.array_equal(built.positions, expected.positions)
            assert np.array_equal(built.weights, expected.weights)
        assert np.array_equal(problem.initial.coefficient_vector,
                              build_initial_model(cfg, partition).coefficient_vector)
        assert problem.optim == build_optimizer(cfg)

    def test_build_problem_raises_the_acquisition_error(self):
        cfg = parse_config(FAST_CONFIG.replace("source_margin_m = 30",
                                               "source_margin_m = -200"))
        with pytest.raises(CauchyFwiError) as expected:
            check_acquisition(cfg, build_grid(cfg))
        with pytest.raises(CauchyFwiError) as raised:
            build_problem(cfg)
        assert type(raised.value) is type(expected.value)
        assert str(raised.value) == str(expected.value)


class TestConfigurationSweep:
    # each schema key of the starter configuration, one at a time, at each
    # value of its type
    VALUES = {int: ("-1", "0", "1", "2", "400"), float: ("-1", "0", "1e-6", "1e6"),
              str: ("bogus",)}
    # cases that built without a word, each now a config error
    FORMERLY_SILENT = {
        # the margin of a full receiver layer (receiver_count = 0) is unused
        ("receiver_margin_m", "-1"), ("receiver_margin_m", "1e-6"),
        ("receiver_margin_m", "1e6"), ("n_iter_min", "-1"),
        # an inclusion with weight 0 at every node below the water
        ("inclusion_center_x_m", "1e6"), ("inclusion_center_z_m", "1e6"),
    }

    def outcome(self, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                cfg = parse_config(text)
                build_true_field(cfg, build_problem(cfg).grid)
            except CauchyFwiError as exc:
                return exc.category
        return "built"

    def test_every_value_builds_or_raises_a_package_error(self):
        lines = render_config(parse_config(DEFAULT_CONFIG)).splitlines()
        outcomes = {}
        for (_, key), (typ, _) in config._SCHEMA.items():
            row = next(i for i, ln in enumerate(lines) if ln.startswith(key + " = "))
            for value in self.VALUES[typ]:
                text = "\n".join(lines[:row] + [f"{key} = {value}"] + lines[row + 1:])
                outcomes[key, value] = self.outcome(text)
        assert len(outcomes) == 178
        assert {outcomes[case] for case in self.FORMERLY_SILENT} == {"config"}
        # with receivers placed by count, the margin is used
        text = DEFAULT_CONFIG.replace("receiver_count = 0",
                                      "receiver_count = 9\nreceiver_margin_m = 60")
        assert self.outcome(text) == "built"


class TestCliFlow:
    def write_config(self, tmp_path, text=FAST_CONFIG):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        return str(path)

    def test_init_writes_default(self, tmp_path):
        out = tmp_path / "starter.cfg"
        assert cli_main(["init", "--out", str(out)]) == 0
        assert out.read_text() == DEFAULT_CONFIG
        assert cli_main(["init", "--out", str(out)]) == 1  # refuses overwrite

    def test_synth_then_invert_exit_zero(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        prefix = str(tmp_path / "run")
        assert cli_main(["synth", "--config", cfg, "--out-prefix", prefix]) == 0
        assert (tmp_path / "run.cauchy.txt").exists()
        assert (tmp_path / "run.resolved.cfg").exists()
        assert not list(tmp_path.glob("*.csv"))  # the data file records the geometry

        out_prefix = str(tmp_path / "result")
        code = cli_main([
            "invert", "--config", cfg, "--data-prefix", prefix,
            "--out-prefix", out_prefix,
            "--truth-field", prefix + ".true_speed.txt",
        ])
        assert code == 0
        assert (tmp_path / "result.model.txt").exists()
        assert (tmp_path / "result.log.csv").exists()
        summary = (tmp_path / "result.summary.txt").read_text()
        assert "termination" in summary
        assert "rel_l2_final" in summary
        totals = dict(line.split(" ", 1) for line in summary.splitlines())
        rows = (tmp_path / "result.log.csv").read_text().strip().splitlines()[1:]
        assert int(totals["rhs_solves"]) == sum(int(r.split(",")[4]) for r in rows)
        assert float(totals["wall_time_s"]) > 0
        rejected = {cause: int(totals["rejected_" + cause])
                    for cause in ("bounds", "armijo", "breakdown")}
        assert min(rejected.values()) >= 0

    def test_synth_at_infinite_snr_writes_the_clean_data(self, tmp_path):
        text = FAST_CONFIG.replace("snr_db = 15", "snr_db = inf").replace("seed = 7",
                                                                           "seed = 5")
        prefix = str(tmp_path / "run")
        assert cli_main(["synth", "--config", self.write_config(tmp_path, text),
                         "--out-prefix", prefix]) == 0
        cfg = parse_config(text)
        problem = build_problem(cfg)
        clean = build_clean_data(cfg, problem)
        data = read_data(prefix + ".cauchy.txt", problem.receivers, problem.obs, cfg.freq_hz)
        assert np.array_equal(data.g, clean.g) and np.array_equal(data.dg, clean.dg)
        assert (tmp_path / "run.cauchy.txt").read_text().splitlines()[4:6] == [
            "snr inf", "seed 5"]

    def test_failed_write_leaves_no_partial_or_temp_file(self, tmp_path, monkeypatch, disk_full):
        cfg = self.write_config(tmp_path)
        prefix = str(tmp_path / "run")
        disk_full("run.cauchy.txt")
        assert cli_main(["synth", "--config", cfg, "--out-prefix", prefix]) == 1
        assert not (tmp_path / "run.cauchy.txt").exists()
        assert not list(tmp_path.glob("*.tmp"))

        disk_full("result.log.csv")
        assert cli_main(["synth", "--config", cfg, "--out-prefix", prefix]) == 0
        log = tmp_path / "result.log.csv"
        log.write_text("previous log\n")
        code = cli_main(["invert", "--config", cfg, "--data-prefix", prefix,
                         "--out-prefix", str(tmp_path / "result")])
        assert code == 1
        assert log.read_text() == "previous log\n"
        assert not list(tmp_path.glob("*.tmp"))

        # a lone surrogate cannot be encoded, so the write raises
        starter = tmp_path / "starter.cfg"
        starter.write_text("previous config\n")
        monkeypatch.setattr(cli.config_mod, "DEFAULT_CONFIG", "[grid]\n\udcff\n")
        assert cli_main(["init", "--out", str(starter), "--force"]) == 1
        assert starter.read_text() == "previous config\n"
        assert not list(tmp_path.glob("*.tmp"))

        probe = tmp_path / "probe.csv"
        probe.write_text("previous probe\n")
        disk_full("probe.csv")
        assert cli_main(["probe", "--config", cfg, "--pairs", "2", "--out", str(probe)]) == 1
        assert probe.read_text() == "previous probe\n"
        assert not list(tmp_path.glob("*.tmp"))

    def test_simulation_source_depth_checked_only_by_decoupled_invert(self, tmp_path,
                                                                       capsys):
        cfg = self.write_config(tmp_path, FAST_CONFIG.replace("sim_source_depth_m = 20",
                                                              "sim_source_depth_m = 30"))
        prefix = str(tmp_path / "run")
        assert cli_main(["synth", "--config", cfg, "--out-prefix", prefix]) == 0
        capsys.readouterr()
        code = cli_main(["invert", "--config", cfg, "--data-prefix", prefix,
                         "--out-prefix", str(tmp_path / "result"), "--decouple-sources"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: geometry:"), err
        assert not list(tmp_path.glob("result.*"))

    def test_invert_decoupled_sources_decreases_misfit(self, tmp_path):
        cfg = self.write_config(tmp_path)
        prefix = str(tmp_path / "run")
        assert cli_main(["synth", "--config", cfg, "--out-prefix", prefix]) == 0
        out_prefix = str(tmp_path / "dec")
        code = cli_main([
            "invert", "--config", cfg, "--data-prefix", prefix,
            "--out-prefix", out_prefix, "--decouple-sources",
        ])
        assert code == 0
        # the log holds start-of-iteration misfits, so a run that stops after
        # its first accepted step logs one row; the summary has the written model's
        summary = dict(line.split(" ", 1) for line in
                       (tmp_path / "dec.summary.txt").read_text().splitlines())
        assert float(summary["misfit_last"]) < float(summary["misfit_first"])

    def test_rerun_from_snapshot_bit_identical(self, tmp_path):
        cfg = self.write_config(tmp_path)
        p1 = str(tmp_path / "a")
        p2 = str(tmp_path / "b")
        assert cli_main(["synth", "--config", cfg, "--out-prefix", p1]) == 0
        snapshot = p1 + ".resolved.cfg"
        assert cli_main(["synth", "--config", snapshot, "--out-prefix", p2]) == 0
        assert (tmp_path / "a.cauchy.txt").read_bytes() == \
               (tmp_path / "b.cauchy.txt").read_bytes()

    def test_snapshot_with_line_search_keys_is_refused_by_name(self, tmp_path, capsys,
                                                               run_outputs):
        # a snapshot from before the line-search constants left the schema
        # lists them at their defaults after eps_j
        removed = ("armijo_c1", "backtrack_rho", "initial_step_fraction", "max_backtracks")
        text = (run_outputs / "run.resolved.cfg").read_text()
        eps_line = next(ln for ln in text.splitlines() if ln.startswith("eps_j = "))
        old_keys = "\n".join(f"{key} = {value}" for key, value in
                             zip(removed, ("0.0001", "0.5", "0.01", "30")))
        path = tmp_path / "old.resolved.cfg"
        path.write_text(text.replace(eps_line, eps_line + "\n" + old_keys))
        code = cli_main(["invert", "--config", str(path),
                         "--data-prefix", str(run_outputs / "run"),
                         "--out-prefix", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config:"), err
        for key in removed:
            assert f"unknown key optimizer.{key}" in err, err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["old.resolved.cfg"]

    def test_rerun_decoupled_invert_from_snapshot_bit_identical(self, tmp_path,
                                                                 run_outputs):
        # the snapshot does not record --decouple-sources: the re-run repeats it
        data = str(run_outputs / "run")
        config = self.write_config(tmp_path)
        for prefix in ("a", "b"):
            code = cli_main(["invert", "--config", config, "--data-prefix", data,
                             "--out-prefix", str(tmp_path / prefix), "--decouple-sources",
                             "--dump-pairs", str(tmp_path / f"{prefix}.pairs.csv")])
            assert code == 0
            config = str(tmp_path / "a.resolved.cfg")
        for suffix in ("model.txt", "log.csv", "pairs.csv", "speed.txt", "resolved.cfg"):
            assert (tmp_path / f"a.{suffix}").read_bytes() == \
                   (tmp_path / f"b.{suffix}").read_bytes(), suffix
        summaries = [[line for line in (tmp_path / f"{prefix}.summary.txt").read_text()
                      .splitlines() if not line.startswith("wall_time_s ")]
                     for prefix in ("a", "b")]
        assert summaries[0] == summaries[1]

    @pytest.mark.parametrize("decoupled", [False, True])
    def test_summary_and_pairs_describe_the_written_model(self, tmp_path, run_outputs,
                                                          decoupled):
        cfg_path = str(run_outputs / "run.cfg")
        data_prefix = str(run_outputs / "run")
        pairs = tmp_path / "pairs.csv"
        args = ["invert", "--config", cfg_path, "--data-prefix", data_prefix,
                "--out-prefix", str(tmp_path / "result"), "--dump-pairs", str(pairs)]
        assert cli_main(args + ["--decouple-sources"] * decoupled) == 0

        cfg = parse_config(FAST_CONFIG)
        problem = build_problem(cfg, decoupled=decoupled)
        model = read_model(str(tmp_path / "result.model.txt"), problem.partition,
                           cfg.c_min_m_per_s, cfg.c_max_m_per_s, cfg.water_speed_m_per_s)
        data = read_data(data_prefix + ".cauchy.txt", problem.receivers, problem.obs,
                         expect_freq=cfg.freq_hz)
        objective = Objective(problem.initial, problem.sim, data, problem.phys)
        value = objective.value(model.coefficient_vector)
        summary = dict(line.split(" ", 1)
                       for line in (tmp_path / "result.summary.txt").read_text().splitlines())
        assert float(summary["misfit_last"]) == value
        floor = objective.gap.noise_floor
        assert float(summary["noise_floor_last"]) == floor > 0
        ratio = float(summary["misfit_over_noise_floor"])
        assert ratio == pytest.approx(value / floor, rel=1e-5)
        if summary["termination"] == "discrepancy":
            assert value <= DISCREPANCY_TAU * floor
        assert np.array_equal(np.loadtxt(pairs, delimiter=",", ndmin=2),
                              np.abs(objective.gap.values) ** 2)

    def test_gradcheck_subcommand_passes(self, tmp_path):
        text = FAST_CONFIG.replace("snr_db = 15", "snr_db = inf")
        cfg = self.write_config(tmp_path, text)
        assert cli_main(["gradcheck", "--config", cfg]) == 0

    def test_gradcheck_writes_one_row_per_probed_coefficient(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "gradcheck.csv"
        assert cli_main(["gradcheck", "--config", cfg, "--out", str(out)]) == 0
        n_total = int(capsys.readouterr().out.split(" coefficients")[0].split("/")[-1])
        header, *rows = out.read_text().splitlines()
        assert header == "coefficient, adjoint, finite_difference, rel_error, step, conclusive"
        assert n_total == len(rows) == 18
        assert len({row.split(",")[0] for row in rows}) == n_total

    def test_probe_subcommand(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out = str(tmp_path / "probe.csv")
        code = cli_main(["probe", "--config", cfg, "--pairs", "3",
                         "--seed", "5", "--out", out])
        assert code == 0
        assert len((tmp_path / "probe.csv").read_text().strip().splitlines()) == 4

    def test_export_subcommand(self, tmp_path):
        cfg = self.write_config(tmp_path)
        prefix = str(tmp_path / "run")
        cli_main(["synth", "--config", cfg, "--out-prefix", prefix])
        out_prefix = str(tmp_path / "result")
        cli_main(["invert", "--config", cfg, "--data-prefix", prefix,
                  "--out-prefix", out_prefix,
                  "--dump-pairs", str(tmp_path / "pairs.csv")])
        pairs = np.loadtxt(tmp_path / "pairs.csv", delimiter=",")
        assert pairs.shape == (4, 4)  # coupled run: sim sources = obs sources
        assert (pairs >= 0).all()
        dest = str(tmp_path / "smooth.txt")
        code = cli_main(["export", "--config", cfg,
                         "--model", out_prefix + ".model.txt",
                         "--out", dest, "--sigma", "1.5"])
        assert code == 0
        assert (tmp_path / "smooth.txt").exists()

    def test_export_huge_sigma_averages_the_field(self, tmp_path, run_outputs):
        out = tmp_path / "smooth.txt"
        code = cli_main(["export", "--config", str(run_outputs / "run.cfg"),
                         "--model", str(run_outputs / "result.model.txt"),
                         "--out", str(out), "--sigma", "1e12"])
        assert code == 0
        values = read_field_structured_points(str(out)).values
        assert np.ptp(values) <= 1e-12 * values.mean()

    def test_export_sigma_whose_cut_overflows_is_an_io_error(self, tmp_path, capsys,
                                                              run_outputs):
        # 4 sigma is finite at 1e300 and overflows at 1e308
        args = ["export", "--config", str(run_outputs / "run.cfg"),
                "--model", str(run_outputs / "result.model.txt"), "--out"]
        assert cli_main(args + [str(tmp_path / "wide.txt"), "--sigma", "1e300"]) == 0
        capsys.readouterr()
        out = tmp_path / "smooth.txt"
        assert cli_main(args + [str(out), "--sigma", "1e308"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: io: sigma"), err
        assert not out.exists()

    @pytest.mark.parametrize("sigma", ["-1", "nan", "inf"])
    def test_export_bad_sigma_is_an_io_error(self, tmp_path, capsys, run_outputs, sigma):
        out = tmp_path / "smooth.txt"
        code = cli_main(["export", "--config", str(run_outputs / "run.cfg"),
                         "--model", str(run_outputs / "result.model.txt"),
                         "--out", str(out), "--sigma", sigma])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: io: sigma"), err
        assert not out.exists()
        assert not list(tmp_path.iterdir())

    def test_export_refuses_a_model_whose_speed_is_nan(self, tmp_path, capsys, run_outputs):
        # finite slopes whose products overflow to inf - inf on the last tile
        lines = (run_outputs / "result.model.txt").read_text().splitlines()
        parts = lines[-1].split()
        parts[2:4] = ["1e308", "-1e308"]
        lines[-1] = " ".join(parts)
        model = tmp_path / "nan.model.txt"
        model.write_text("\n".join(lines) + "\n")
        out = tmp_path / "speed.txt"
        code = cli_main(["export", "--config", str(run_outputs / "run.cfg"),
                         "--model", str(model), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: runtime: speed nan m/s"), err
        assert not out.exists()

    def test_truth_field_on_another_grid_fails_before_inverting(self, tmp_path, capsys,
                                                                 run_outputs):
        fine_cfg = self.write_config(tmp_path, FAST_CONFIG.replace("nodes_x = 25",
                                                                   "nodes_x = 49"))
        truth = str(tmp_path / "fine")
        assert cli_main(["synth", "--config", fine_cfg, "--out-prefix", truth]) == 0
        capsys.readouterr()
        code = cli_main(["invert", "--config", str(run_outputs / "run.cfg"),
                         "--data-prefix", str(run_outputs / "run"),
                         "--out-prefix", str(tmp_path / "result"),
                         "--truth-field", truth + ".true_speed.txt"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: geometry:"), err
        assert not list(tmp_path.glob("result.*"))

    @pytest.mark.parametrize("changes", [
        (("obs_source_depth_m = 10", "obs_source_depth_m = 20"),
         ("source_margin_m = 30", "source_margin_m = 60")),
        (("extent_x_m = 240", "extent_x_m = 250"),),
        (("obs_source_count = 4", "obs_source_count = 3"),),
    ])
    def test_data_from_another_geometry_fails_before_inverting(self, tmp_path, capsys,
                                                               run_outputs, changes):
        text = FAST_CONFIG
        for old, new in changes:
            assert old in text
            text = text.replace(old, new)
        cfg = self.write_config(tmp_path, text)
        data = str(run_outputs / "run")
        code = cli_main(["invert", "--config", cfg, "--data-prefix", data,
                         "--out-prefix", str(tmp_path / "result")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: geometry: {data}.cauchy.txt: "), err
        assert not list(tmp_path.glob("result.*"))

    def test_data_file_of_version_1_is_an_io_error(self, tmp_path, capsys, run_outputs):
        data = tmp_path / "run.cauchy.txt"
        data.write_text((run_outputs / "run.cauchy.txt").read_text()
                        .replace("cauchy v2", "cauchy v1", 1))
        code = cli_main(["invert", "--config", str(run_outputs / "run.cfg"),
                         "--data-prefix", str(tmp_path / "run"),
                         "--out-prefix", str(tmp_path / "result")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: io:") and "unsupported version 'v1'" in err, err
        assert not list(tmp_path.glob("result.*"))

    def test_truth_field_round_trips_when_its_extent_rounds(self, tmp_path):
        # 201 / 25 * 25 is 200.99999999999997: the file's spacing gives the
        # extent back one ulp off
        text = (FAST_CONFIG.replace("extent_x_m = 240", "extent_x_m = 201")
                .replace("nodes_x = 25", "nodes_x = 26")
                .replace("inclusion_center_x_m = 120", "inclusion_center_x_m = 100"))
        cfg = self.write_config(tmp_path, text)
        prefix = str(tmp_path / "run")
        assert cli_main(["synth", "--config", cfg, "--out-prefix", prefix]) == 0
        truth = read_field_structured_points(prefix + ".true_speed.txt")
        grid = build_grid(parse_config(text))
        assert truth.grid.shape == grid.shape and truth.grid.extent != grid.extent
        assert cli_main(["invert", "--config", cfg, "--data-prefix", prefix,
                         "--out-prefix", str(tmp_path / "result"),
                         "--truth-field", prefix + ".true_speed.txt"]) == 0
        summary = (tmp_path / "result.summary.txt").read_text()
        assert "rel_l2_final" in summary

    @pytest.mark.parametrize("header, bad", [("snr", "nan"), ("snr", "-inf"),
                                             ("freq", "nan")])
    def test_non_finite_data_header_is_an_io_error(self, tmp_path, capsys, run_outputs,
                                                    header, bad):
        lines = (run_outputs / "run.cauchy.txt").read_text().splitlines(keepends=True)
        row = next(i for i, ln in enumerate(lines) if ln.startswith(header + " "))
        lines[row] = f"{header} {bad}\n"
        (tmp_path / "bad.cauchy.txt").write_text("".join(lines))
        code = cli_main(["invert", "--config", str(run_outputs / "run.cfg"),
                         "--data-prefix", str(tmp_path / "bad"),
                         "--out-prefix", str(tmp_path / "result")])
        assert code == 1
        err = capsys.readouterr().err
        offset = sum(len(ln) for ln in lines[:row])
        assert err.startswith("error: io:") and f"(byte offset {offset})" in err, err
        assert not list(tmp_path.glob("result.*"))

    def test_data_snr_whose_noise_factor_overflows_is_an_io_error(self, tmp_path, capsys,
                                                                   run_outputs):
        lines = (run_outputs / "run.cauchy.txt").read_text().splitlines(keepends=True)
        row = next(i for i, ln in enumerate(lines) if ln.startswith("snr "))
        lines[row] = "snr -4000\n"
        (tmp_path / "bad.cauchy.txt").write_text("".join(lines))
        code = cli_main(["invert", "--config", str(run_outputs / "run.cfg"),
                         "--data-prefix", str(tmp_path / "bad"),
                         "--out-prefix", str(tmp_path / "result")])
        assert code == 1
        err = capsys.readouterr().err
        offset = sum(len(ln) for ln in lines[:row])
        assert err.startswith("error: io:") and f"(byte offset {offset})" in err, err
        assert not list(tmp_path.glob("result.*"))

    def test_snr_whose_noise_factor_overflows_is_a_config_error(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, FAST_CONFIG.replace("snr_db = 15", "snr_db = -4000"))
        assert cli_main(["synth", "--config", cfg, "--out-prefix", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config:") and "noise: SNR of -4000.0 dB" in err, err
        assert not list(tmp_path.glob("x.*"))

    def test_data_whose_gradient_overflows_are_a_runtime_error(self, tmp_path, capsys):
        # noise about 1e150 times the signal: the misfit is finite, the
        # gradient norm overflows
        cfg = self.write_config(tmp_path, FAST_CONFIG.replace("snr_db = 15",
                                                              "snr_db = -3000"))
        prefix = str(tmp_path / "run")
        assert cli_main(["synth", "--config", cfg, "--out-prefix", prefix]) == 0
        capsys.readouterr()
        code = cli_main(["invert", "--config", cfg, "--data-prefix", prefix,
                         "--out-prefix", str(tmp_path / "result")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: runtime: the gradient norm is inf"), err
        assert not list(tmp_path.glob("result.*"))

    def test_zero_truth_field_fails_before_writing(self, tmp_path, capsys, run_outputs):
        truth = read_field_structured_points(str(run_outputs / "run.true_speed.txt"))
        zero = str(tmp_path / "zero.txt")
        write_field_structured_points(NodalField(truth.grid, np.zeros(truth.grid.n_nodes)),
                                      zero)
        code = cli_main(["invert", "--config", str(run_outputs / "run.cfg"),
                         "--data-prefix", str(run_outputs / "run"),
                         "--out-prefix", str(tmp_path / "result"),
                         "--dump-pairs", str(tmp_path / "pairs.csv"),
                         "--truth-field", zero])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: io: {zero}: "), err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["zero.txt"]

    def test_unknown_flag_nonzero_exit(self, capsys):
        assert cli_main(["invert", "--no-such-flag"]) != 0

    def test_bad_config_categorized_error(self, tmp_path, capsys):
        prefix = str(tmp_path / "run")
        assert cli_main(["synth", "--config", self.write_config(tmp_path),
                         "--out-prefix", prefix]) == 0
        capsys.readouterr()
        optimizer = "[optimizer]\nn_iter_min = 1\nn_iter_max = 3\nn_eps = 1\n"
        cases = [("synth", "[grid]\nnot_a_key = 3\n")]
        cases += [("synth", FAST_CONFIG.replace("snr_db = 15", f"snr_db = {snr}"))
                  for snr in ("nan", "-inf")]
        cases += [("synth", FAST_CONFIG.replace("seed = 7", "seed = -1"))]
        cases += [("synth", FAST_CONFIG.replace(old, old.split(" = ")[0] + " = nan"))
                  for old in ("extent_x_m = 240", "receiver_depth_m = 40",
                              "source_margin_m = 30", "tile_x_m = 80",
                              "water_depth_m = 40", "initial_top_speed_m_per_s = 1550")]
        cases += [("invert", FAST_CONFIG.replace(optimizer, optimizer.replace(old, new)))
                  for old, new in (
                      ("n_iter_min = 1", "n_iter_min = 5"),
                      ("n_iter_min = 1\nn_iter_max = 3", "n_iter_min = 0\nn_iter_max = 0"),
                      ("n_eps = 1", "n_eps = 1\neps_j = 0"),
                      ("n_eps = 1", "n_eps = 1\nbacktrack_rho = 1.5"),
                      ("n_eps = 1", "n_eps = 1\ninitial_step_fraction = 0"),
                      ("n_eps = 1", "n_eps = 1\ninitial_step_fraction = inf"),
                      ("n_eps = 1", "n_eps = 1\nmax_backtracks = -1"))]
        path = tmp_path / "bad.cfg"
        for command, text in cases:
            path.write_text(text)
            args = ["--config", str(path), "--out-prefix", str(tmp_path / "x")]
            if command == "invert":
                args += ["--data-prefix", prefix]
            assert cli_main([command] + args) == 1, text
            err = capsys.readouterr().err
            assert err.startswith("error: config:"), err

    @pytest.mark.parametrize("command, old, new, label", [
        ("synth", "extent_x_m = 240", "extent_x_m = -600", "config"),
        ("synth", "nodes_z = 13", "nodes_z = 1", "config"),
        ("synth", "freq_hz = 25", "freq_hz = 0", "config"),
        ("synth", "initial_top_speed_m_per_s",
         "inclusion_profile = cone\ninitial_top_speed_m_per_s", "config"),
        ("gradcheck", "nodes_x = 25\nnodes_z = 13", "nodes_x = 161\nnodes_z = 121", "config"),
        ("synth", "source_margin_m = 30", "source_margin_m = -200", "geometry"),
        ("synth", "inclusion_radius_m = 30\n", "", "config"),
        ("synth", "inclusion_radius_m = 30", "inclusion_radius_m = 1e-6", "config"),
        # the frozen water tiles sit at 1500 m/s, below c_min
        ("synth", "c_min_m_per_s = 1250", "c_min_m_per_s = 1520", "config"),
        ("synth", "initial_top_speed_m_per_s = 1550", "initial_top_speed_m_per_s = 1000",
         "config"),
        # a one-node-layer tile below the water cannot be fitted
        ("synth", "water_depth_m = 40", "water_depth_m = 50", "geometry"),
        # with the y keys a dim = 4 file builds a grid: only the dim rule says config
        ("synth", "dim = 2", "dim = 4\nextent_y_m = 240\nnodes_y = 25", "config"),
        # a 2D grid has no y axis: its y keys keep their defaults
        ("synth", "extent_x_m = 240", "extent_x_m = 240\nextent_y_m = -1", "config"),
        ("synth", "nodes_x = 25", "nodes_x = 25\nnodes_y = -1", "config"),
        ("synth", "refine = 2", "refine = 0", "config"),
        ("synth", "c_max_m_per_s = 3400", "c_max_m_per_s = 1250", "config"),
        ("synth", "water_depth_m = 40", "water_depth_m = 30", "config"),
        # hz = 10 m: sources at 25 m are one node layer above the receivers
        ("synth", "obs_source_depth_m = 10", "obs_source_depth_m = 25", "geometry"),
        # phantoms reaching down to 4 m/s or up to 1e6 m/s, outside [c_min, c_max]
        ("synth", "background_surface_m_per_s = 1600", "background_surface_m_per_s = -1",
         "config"),
        ("synth", "inclusion_speed_m_per_s = 2200", "inclusion_speed_m_per_s = 1e6",
         "config"),
        # 400 sources over 180 m snap to 19 nodes 10 m apart
        ("synth", "obs_source_count = 4", "obs_source_count = 400", "geometry"),
        ("synth", "sim_source_count = 3", "sim_source_count = -2", "config"),
        # -1 alone means "the observation depth"
        ("synth", "sim_source_depth_m = 20", "sim_source_depth_m = -5", "config"),
        ("synth", "sim_source_depth_m = 20", "sim_source_depth_m = 0", "config"),
    ])
    def test_rejected_value_categorized_error(self, tmp_path, capsys, command, old, new, label):
        assert old in FAST_CONFIG
        cfg = self.write_config(tmp_path, FAST_CONFIG.replace(old, new))
        args = ["--config", cfg]
        if command == "synth":
            args += ["--out-prefix", str(tmp_path / "x")]
        assert cli_main([command] + args) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {label}:"), err

    @pytest.mark.parametrize("args", [
        ["probe", "--pairs", "1"],
        ["probe", "--pairs", "0"],
        ["probe", "--pairs", "-1"],
        ["probe", "--seed", "-1"],
    ])
    def test_count_argument_is_a_config_error(self, tmp_path, capsys, args):
        assert cli_main(args + ["--config", self.write_config(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config:"), err

    @pytest.mark.parametrize("flag", ["--probes", "--seed"])
    def test_gradcheck_has_no_subset_flags(self, tmp_path, capsys, flag):
        # gradcheck checks every free coefficient: no flag picks a subset
        assert cli_main(["gradcheck", flag, "3", "--config", self.write_config(tmp_path)]) == 2
        assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err

    def test_memory_error_is_reported_as_memory(self, tmp_path, capsys, monkeypatch):
        # the builder raises without allocating anything
        def out_of_memory(cfg):
            raise MemoryError("cannot allocate the synthesis grid")

        monkeypatch.setattr(cli.config_mod, "build_problem", out_of_memory)
        code = cli_main(["synth", "--config", self.write_config(tmp_path),
                         "--out-prefix", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: memory: cannot allocate the synthesis grid\n", err
        assert not list(tmp_path.glob("out.*"))

    def test_missing_data_categorized_error(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        code = cli_main(["invert", "--config", cfg,
                         "--data-prefix", str(tmp_path / "nope"),
                         "--out-prefix", str(tmp_path / "y")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: io:"), err

    @pytest.mark.parametrize("name, line, field, value", [
        ("result.model.txt", -1, 1, "nan"),
        ("result.model.txt", -1, 1, "abc"),
        ("result.model.txt", 0, 1, "two"),
        ("run.cauchy.txt", 1, 1, "abc"),
        ("run.cauchy.txt", -1, 2, "nan,"),
        ("run.true_speed.txt", 1, 1, "x"),
        ("run.cauchy.txt", 6, 4, "nan"),  # grid extent
        ("run.true_speed.txt", 3, 1, "nan"),  # spacing
        ("run.true_speed.txt", 10, 0, "nan"),  # value
        ("run.cauchy.txt", None, None, None),  # missing
    ])
    def test_malformed_input_is_an_io_error(self, tmp_path, capsys, run_outputs,
                                            name, line, field, value):
        for f in ("run.cfg", "result.model.txt", "run.cauchy.txt", "run.true_speed.txt"):
            shutil.copy(run_outputs / f, tmp_path / f)
        path = tmp_path / name
        if line is None:
            path.unlink()
        else:
            lines = path.read_text().splitlines()
            parts = lines[line].split()
            parts[field] = value
            lines[line] = " ".join(parts)
            path.write_text("\n".join(lines) + "\n")
        cfg = str(tmp_path / "run.cfg")
        if name == "result.model.txt":
            args = ["export", "--config", cfg, "--model", str(path),
                    "--out", str(tmp_path / "again.txt")]
        else:
            args = ["invert", "--config", cfg, "--data-prefix", str(tmp_path / "run"),
                    "--out-prefix", str(tmp_path / "again"),
                    "--truth-field", str(tmp_path / "run.true_speed.txt")]
        assert cli_main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: io:"), err
        assert not list(tmp_path.glob("again.*"))

    def test_each_error_names_its_category(self):
        categories = {name: cls.category for name, cls in vars(errors).items()
                      if isinstance(cls, type) and issubclass(cls, errors.CauchyFwiError)}
        assert categories == {
            "ConfigError": "config",
            "DataFormatError": "io",
            "GeometryError": "geometry",
            "SolverBreakdownError": "solver",
            "CauchyFwiError": "runtime",
            "BoundsViolationError": "runtime",
        }
