"""Command-line front end: synth, invert, gradcheck, probe, export, init.

synth, invert and probe build their problem with one config.build_problem
call, and gradcheck through analysis.gradcheck, which makes the same call;
export builds only the grid and partition that reading a model file needs.
synth and gradcheck take their clean data from config.build_clean_data;
gradcheck checks every free coefficient (about a second on the default
configuration at 1 BLAS thread, about a minute on a 3D grid near its node
cap).
synth and invert write a resolved-configuration snapshot next to their
outputs; re-running from the snapshot with the same flags reproduces the
outputs bit-exactly for a fixed seed (README.md, "Reproducibility and BLAS
threads", says across which thread counts).
Outputs are written by the package writers, which replace their files
atomically.  A failure exits with status 1 and prints
``error: <category>: <message>``: the category of a package error, ``io``
for any OSError, ``memory`` for a MemoryError, ``internal`` for anything
else.
"""

from __future__ import annotations

import argparse
import io
import math
import sys

import numpy as np

from . import config as config_mod
from .acquisition import add_noise, read_data, write_data
from .analysis import (
    export_field,
    gradcheck,
    probe_stability,
    write_gradcheck_csv,
    write_stability_csv,
)
from .errors import CauchyFwiError, DataFormatError, GeometryError
from .geometry import NodalField, evaluate_model, read_model, write_model, write_partition
from .helmholtz import read_field_structured_points, write_field_structured_points
from .inversion import relative_l2_error, run_inversion, write_iteration_log
from .textio import read_text, write_text_atomic


def _load_config(path):
    return config_mod.parse_config(read_text(path))


def cmd_init(args):
    config_mod.write_starter_config(args.out, force=args.force)
    print(f"wrote starter configuration to {args.out}")
    return 0


def cmd_synth(args):
    cfg = _load_config(args.config)
    problem = config_mod.build_problem(cfg)
    data = add_noise(config_mod.build_clean_data(cfg, problem), cfg.snr_db, cfg.seed)

    prefix = args.out_prefix
    write_data(data, prefix + ".cauchy.txt")
    truth_inv = config_mod.build_true_field(cfg, problem.grid)
    write_field_structured_points(truth_inv, prefix + ".true_speed.txt")
    write_text_atomic(prefix + ".resolved.cfg", config_mod.render_config(cfg))
    print(f"synthesized {data.n_sources} sources x {data.n_receivers} receivers "
          f"at {cfg.freq_hz} Hz (snr {data.provenance.snr_db} dB) -> {prefix}.cauchy.txt")
    return 0


def cmd_invert(args):
    cfg = _load_config(args.config)
    problem = config_mod.build_problem(cfg, decoupled=args.decouple_sources)
    grid, initial = problem.grid, problem.initial
    data = read_data(args.data_prefix + ".cauchy.txt", problem.receivers, problem.obs,
                     expect_freq=cfg.freq_hz)
    truth = read_field_structured_points(args.truth_field) if args.truth_field else None
    # the file stores the spacing, so its extents come back only to rounding
    if truth is not None and (truth.grid.shape != grid.shape or not np.allclose(
            truth.grid.extent, grid.extent, rtol=1e-12, atol=0.0)):
        raise GeometryError(
            f"{args.truth_field}: truth field has {truth.grid.shape} nodes over "
            f"{truth.grid.extent} m, the inversion grid {grid.shape} over {grid.extent} m"
        )
    if truth is not None and not truth.values.any():
        raise DataFormatError(f"{args.truth_field}: truth field is zero everywhere")

    result = run_inversion(data, problem.sim, initial, problem.optim, problem.phys)

    # everything that can fail is computed before the first file is written
    final_field = evaluate_model(result.model)
    if args.dump_pairs:
        pairs = io.StringIO()
        np.savetxt(pairs, np.abs(result.gap.values) ** 2, delimiter=", ")
    records = result.records
    floor = result.gap.noise_floor
    summary = [
        f"iterations {len(records)}",
        f"termination {result.reason}",
        f"misfit_first {records[0].misfit:.17g}",
        f"misfit_last {result.misfit:.17g}",
        f"noise_floor_last {floor:.17g}",
        f"misfit_over_noise_floor {result.misfit / floor if floor > 0 else math.inf:.6g}",
        f"wall_time_s {sum(r.wall_time_s for r in records):.6g}",
        f"rhs_solves {sum(r.n_solves for r in records)}",
    ]
    summary += [f"rejected_{cause} {sum(getattr(r.rejected, cause) for r in records)}"
                for cause in ("bounds", "armijo", "breakdown")]
    if truth is not None:
        truth = NodalField(grid, truth.values)  # its nodes, on the inversion grid
        e_init = relative_l2_error(truth, evaluate_model(initial))
        e_final = relative_l2_error(truth, final_field)
        summary.append(f"rel_l2_initial {e_init:.6g}")
        summary.append(f"rel_l2_final {e_final:.6g}")

    prefix = args.out_prefix
    write_model(result.model, prefix + ".model.txt")
    write_partition(problem.partition, prefix + ".partition.txt")
    write_iteration_log(records, prefix + ".log.csv")
    write_field_structured_points(final_field, prefix + ".speed.txt")
    if args.dump_pairs:
        write_text_atomic(args.dump_pairs, pairs.getvalue())
    write_text_atomic(prefix + ".summary.txt", "\n".join(summary) + "\n")
    write_text_atomic(prefix + ".resolved.cfg", config_mod.render_config(cfg))
    print("\n".join(summary))
    print(f"model -> {prefix}.model.txt")
    return 0


def cmd_gradcheck(args):
    cfg = _load_config(args.config)
    report = gradcheck(cfg)
    if args.out:
        write_gradcheck_csv(report, args.out)
    n_good = sum(c.within(report.tolerance) for c in report.checks)
    verdict = "PASS" if report.passed else "FAIL"
    print(f"gradcheck {verdict}: {n_good}/{len(report.checks)} coefficients within "
          f"{report.tolerance:g} (worst {report.worst():.3g})")
    return 0 if report.passed else 1


def cmd_probe(args):
    cfg = _load_config(args.config)
    problem = config_mod.build_problem(cfg)
    report = probe_stability(problem.initial, problem.phys, problem.receivers,
                             problem.obs, problem.sim, n_pairs=args.pairs, seed=args.seed)
    if args.out:
        write_stability_csv(report, args.out)
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
    export_field(field, args.out, fmt=args.format, sigma=args.sigma)
    print(f"exported {args.out} ({args.format}, sigma {args.sigma})")
    return 0


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
    except CauchyFwiError as exc:
        print(f"error: {exc.category}: {exc}", file=sys.stderr)
    except OSError as exc:  # a file the system cannot open, read or write
        print(f"error: io: {exc}", file=sys.stderr)
    except MemoryError as exc:  # a run too large for this machine's memory
        print(f"error: memory: {exc}", file=sys.stderr)
    except Exception as exc:  # a defect: reported, not raised as a traceback
        print(f"error: internal: {exc}", file=sys.stderr)
    return 1


def main():
    raise SystemExit(cli_main())
