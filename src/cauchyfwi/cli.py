"""Command-line front end: synth, invert, gradcheck, probe, export, init.

synth and invert write a resolved-configuration snapshot next to their
outputs; re-running from the snapshot reproduces the outputs bit-exactly for
a fixed seed, at 1 and at 2 OpenBLAS threads alike.  Every subcommand writes
each output file to a temporary file beside it and renames that over the
target, so an interrupted run leaves no half-written file.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys

import numpy as np

from . import config as config_mod
from .acquisition import (
    add_noise,
    read_data,
    synthesize,
    write_data,
    write_geometry_csv,
)
from .analysis import (
    export_field,
    gradcheck,
    probe_stability,
    write_gradcheck_csv,
    write_stability_csv,
)
from .errors import (
    AlignmentError,
    AssemblyError,
    BoundsViolationError,
    CauchyFwiError,
    ConfigError,
    DataFormatError,
    ExportError,
    GeometryError,
    InvalidPartitionError,
    InvalidSourceError,
    ModelFormatError,
    SolverBreakdownError,
    UndefinedSnrError,
)
from .geometry import evaluate_model, read_model, write_model, write_partition
from .helmholtz import (
    assemble,
    read_field_structured_points,
    write_field_structured_points,
)
from .inversion import relative_l2_error, run_inversion, write_iteration_log
from .misfit_adjoint import misfit_only


def _load_config(path):
    with open(path) as f:
        return config_mod.parse_config(f.read())


@contextlib.contextmanager
def _replacing(path):
    """Yield a temporary path beside path and rename it to path once the
    block returns; if the block raises, delete it and leave path as it was."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _write_text(path, text):
    with _replacing(path) as tmp, open(tmp, "w") as f:
        f.write(text)


def _snapshot_config(cfg, prefix):
    _write_text(prefix + ".resolved.cfg", config_mod.render_config(cfg))


def cmd_init(args):
    if os.path.exists(args.out) and not args.force:
        raise ConfigError(f"{args.out} exists; pass --force to overwrite")
    _write_text(args.out, config_mod.DEFAULT_CONFIG)
    print(f"wrote starter configuration to {args.out}")
    return 0


def cmd_synth(args):
    cfg = _load_config(args.config)
    refine = 1 if args.inverse_crime else cfg.refine
    grid = config_mod.build_grid(cfg)
    fine = config_mod.build_grid(cfg, refine=refine)
    phys = config_mod.build_physics(cfg)
    receivers, obs = config_mod.check_acquisition(cfg, grid)
    truth_fine = config_mod.build_true_field(cfg, fine)
    data = synthesize(truth_fine, obs, receivers, phys)
    if not (math.isinf(cfg.snr_db) and cfg.snr_db > 0):
        data = add_noise(data, cfg.snr_db, cfg.seed)

    prefix = args.out_prefix
    with _replacing(prefix + ".cauchy.txt") as tmp:
        write_data(data, tmp)
    with _replacing(prefix + ".receivers.csv") as tmp:
        write_geometry_csv(tmp, receivers.positions, receivers.weights)
    with _replacing(prefix + ".sources.csv") as tmp:
        write_geometry_csv(tmp, obs.positions, obs.weights)
    truth_inv = config_mod.build_true_field(cfg, grid)
    with _replacing(prefix + ".true_speed.txt") as tmp:
        write_field_structured_points(truth_inv, tmp)
    _snapshot_config(cfg, prefix)
    print(f"synthesized {data.n_sources} sources x {data.n_receivers} receivers "
          f"at {cfg.freq_hz} Hz (snr {data.provenance.snr_db} dB) -> {prefix}.cauchy.txt")
    return 0


def cmd_invert(args):
    cfg = _load_config(args.config)
    grid = config_mod.build_grid(cfg)
    phys = config_mod.build_physics(cfg)
    partition = config_mod.build_partition_for(cfg, grid)
    receivers, obs = config_mod.check_acquisition(cfg, grid)
    data = read_data(args.data_prefix + ".cauchy.txt", receivers, obs,
                     expect_freq=cfg.freq_hz)
    sim = config_mod.build_sim_sources(cfg, grid, decoupled=args.decouple_sources)
    initial = config_mod.build_initial_model(cfg, partition)
    optim = config_mod.build_optimizer(cfg)

    result = run_inversion(data, sim, initial, optim, phys)

    prefix = args.out_prefix
    with _replacing(prefix + ".model.txt") as tmp:
        write_model(result.model, tmp)
    with _replacing(prefix + ".partition.txt") as tmp:
        write_partition(partition, tmp)
    with _replacing(prefix + ".log.csv") as tmp:
        write_iteration_log(result.records, tmp)
    final_field = evaluate_model(result.model)
    with _replacing(prefix + ".speed.txt") as tmp:
        export_field(final_field, tmp, fmt="structured-points")
    if args.dump_pairs:
        system = assemble(grid, final_field, phys)
        _, gap, _ = misfit_only(system, sim, data)
        with _replacing(args.dump_pairs) as tmp:
            np.savetxt(tmp, np.abs(gap.values) ** 2, delimiter=", ")

    records = result.records
    summary = [
        f"iterations {len(records)}",
        f"termination {result.reason}",
        f"misfit_first {records[0].misfit:.17g}",
        f"misfit_last {records[-1].misfit:.17g}",
        f"wall_time_s {sum(r.wall_time_s for r in records):.6g}",
        f"rhs_solves {sum(r.n_solves for r in records)}",
    ]
    summary += [f"rejected_{cause} {sum(getattr(r.rejected, cause) for r in records)}"
                for cause in ("bounds", "armijo", "breakdown")]
    if args.truth_field:
        truth = read_field_structured_points(args.truth_field)
        e_init = relative_l2_error(truth, evaluate_model(initial))
        e_final = relative_l2_error(truth, final_field)
        summary.append(f"rel_l2_initial {e_init:.6g}")
        summary.append(f"rel_l2_final {e_final:.6g}")
    _write_text(prefix + ".summary.txt", "\n".join(summary) + "\n")
    _snapshot_config(cfg, prefix)
    print("\n".join(summary))
    print(f"model -> {prefix}.model.txt")
    return 0


def cmd_gradcheck(args):
    cfg = _load_config(args.config)
    report = gradcheck(cfg, n_probes=args.probes, seed=args.seed)
    if args.out:
        with _replacing(args.out) as tmp:
            write_gradcheck_csv(report, tmp)
    n_total = len(report.checks)
    n_bad = sum(1 for c in report.checks
                if not c.conclusive or c.rel_error > report.tolerance)
    verdict = "PASS" if report.passed else "FAIL"
    print(f"gradcheck {verdict}: {n_total - n_bad}/{n_total} coefficients within "
          f"{report.tolerance:g} (worst {report.worst():.3g})")
    return 0 if report.passed else 1


def cmd_probe(args):
    cfg = _load_config(args.config)
    grid = config_mod.build_grid(cfg)
    phys = config_mod.build_physics(cfg)
    partition = config_mod.build_partition_for(cfg, grid)
    receivers, obs = config_mod.check_acquisition(cfg, grid)
    sim = config_mod.build_sim_sources(cfg, grid)
    report = probe_stability(partition, cfg.c_min_m_per_s, cfg.c_max_m_per_s,
                             phys, receivers, obs, sim,
                             n_pairs=args.pairs, seed=args.seed,
                             water_speed=cfg.water_speed_m_per_s)
    if args.out:
        with _replacing(args.out) as tmp:
            write_stability_csv(report, tmp)
    print(f"stability probe over {args.pairs} pairs: ratio in "
          f"[{report.ratio_min:.6g}, {report.ratio_max:.6g}] m/s per sqrt(J), "
          f"{report.n_flagged} flagged")
    return 0


def cmd_export(args):
    cfg = _load_config(args.config)
    grid = config_mod.build_grid(cfg)
    partition = config_mod.build_partition_for(cfg, grid)
    model = read_model(args.model, partition, cfg.c_min_m_per_s,
                       cfg.c_max_m_per_s, cfg.water_speed_m_per_s)
    field = evaluate_model(model)
    with _replacing(args.out) as tmp:
        export_field(field, tmp, fmt=args.format, sigma=args.sigma)
    print(f"exported {args.out} ({args.format}, sigma {args.sigma})")
    return 0


_ERROR_CATEGORIES = (
    (ConfigError, "config"),
    ((DataFormatError, ModelFormatError, ExportError), "io"),
    ((GeometryError, AlignmentError, InvalidSourceError, InvalidPartitionError,
      UndefinedSnrError), "geometry"),
    ((SolverBreakdownError, AssemblyError), "solver"),
    ((BoundsViolationError, CauchyFwiError), "runtime"),
)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cauchyfwi",
        description="Frequency-domain waveform inversion of dual-sensor Cauchy data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", help="write a starter configuration")
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_init)

    p = sub.add_parser("synth", help="synthesize Cauchy data from the phantom")
    p.add_argument("--config", required=True)
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--inverse-crime", action="store_true",
                   help="synthesize on the inversion grid itself")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("invert", help="reconstruct the wave speed from data")
    p.add_argument("--config", required=True)
    p.add_argument("--data-prefix", required=True)
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--decouple-sources", action="store_true",
                   help="simulation sources differ from the observation set")
    p.add_argument("--dump-pairs", default="",
                   help="write the final per-pair gap power matrix as CSV")
    p.add_argument("--truth-field", default="",
                   help="structured-points truth for relative error reporting")
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--config", required=True)
    p.add_argument("--probes", type=int, default=0,
                   help="number of random coefficients to probe (0 = all)")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", default="")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("probe", help="empirical Lipschitz stability probe")
    p.add_argument("--config", required=True)
    p.add_argument("--pairs", type=int, default=50)
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--out", default="")
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("export", help="evaluate and export a model file")
    p.add_argument("--config", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", default="structured-points",
                   choices=("structured-points", "csv"))
    p.add_argument("--sigma", type=float, default=0.0,
                   help="gaussian smoothing radius in node units")
    p.set_defaults(func=cmd_export)

    return parser


def cli_main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except Exception as exc:  # categorized reporting, nonzero exit
        for types, label in _ERROR_CATEGORIES:
            if isinstance(exc, types):
                print(f"error: {label}: {exc}", file=sys.stderr)
                return 1
        print(f"error: internal: {exc}", file=sys.stderr)
        return 1


def main():
    raise SystemExit(cli_main())
