import dataclasses
import shutil

import numpy as np
import pytest

from cauchyfwi import cli, errors
from cauchyfwi.cli import cli_main
from cauchyfwi.config import (
    DEFAULT_CONFIG,
    build_grid,
    build_obs_sources,
    build_optimizer,
    build_partition_for,
    build_receivers,
    build_sim_sources,
    default_config,
    parse_config,
    render_config,
)
from cauchyfwi.errors import ConfigError
from cauchyfwi.inversion import OptimConfig

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
        cfg = default_config()
        assert cfg.freq_hz == 12.5
        assert cfg.n_iter_min == 50
        assert build_optimizer(cfg) == OptimConfig(n_iter_max=175)
        section = render_config(cfg).split("[optimizer]\n", 1)[1].split("\n\n", 1)[0]
        assert [ln.split(" = ")[0] for ln in section.splitlines()] == [
            f.name for f in dataclasses.fields(OptimConfig)]

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

    def test_source_receiver_separation_enforced(self):
        text = FAST_CONFIG.replace("obs_source_depth_m = 10",
                                   "obs_source_depth_m = 25")
        with pytest.raises(ConfigError):
            parse_config(text)

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
        assert (tmp_path / "run.receivers.csv").exists()
        assert (tmp_path / "run.resolved.cfg").exists()

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
        assert cli_main(["probe", "--config", cfg, "--pairs", "1", "--out", str(probe)]) == 1
        assert probe.read_text() == "previous probe\n"
        assert not list(tmp_path.glob("*.tmp"))

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
        rows = (tmp_path / "dec.log.csv").read_text().strip().splitlines()[1:]
        js = [float(r.split(",")[1]) for r in rows]
        assert js[-1] < js[0]

    def test_rerun_from_snapshot_bit_identical(self, tmp_path):
        cfg = self.write_config(tmp_path)
        p1 = str(tmp_path / "a")
        p2 = str(tmp_path / "b")
        assert cli_main(["synth", "--config", cfg, "--out-prefix", p1]) == 0
        snapshot = p1 + ".resolved.cfg"
        assert cli_main(["synth", "--config", snapshot, "--out-prefix", p2]) == 0
        assert (tmp_path / "a.cauchy.txt").read_bytes() == \
               (tmp_path / "b.cauchy.txt").read_bytes()

    def test_gradcheck_subcommand_passes(self, tmp_path):
        text = FAST_CONFIG.replace("snr_db = 15", "snr_db = inf")
        cfg = self.write_config(tmp_path, text)
        assert cli_main(["gradcheck", "--config", cfg, "--probes", "6"]) == 0

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
        cases += [("invert", FAST_CONFIG.replace(optimizer, optimizer.replace(old, new)))
                  for old, new in (
                      ("n_iter_min = 1", "n_iter_min = 5"),
                      ("n_eps = 1", "n_eps = 1\neps_j = 0"),
                      ("n_eps = 1", "n_eps = 1\nbacktrack_rho = 1.5"),
                      ("n_eps = 1", "n_eps = 1\ninitial_step_fraction = 0"),
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
            "ModelFormatError": "io",
            "ExportError": "io",
            "GeometryError": "geometry",
            "AlignmentError": "geometry",
            "InvalidSourceError": "geometry",
            "InvalidPartitionError": "geometry",
            "UndefinedSnrError": "geometry",
            "SolverBreakdownError": "solver",
            "AssemblyError": "solver",
            "CauchyFwiError": "runtime",
            "BoundsViolationError": "runtime",
            "RankDeficiencyError": "runtime",
        }
