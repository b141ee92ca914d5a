"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criteria 1-8 exercise the full stack at desk scale with pinned tolerances;
criterion 9 re-executes every pipeline a second time and demands bit-exact
agreement.  Run with `pytest tests/test_acceptance.py -v -s` to see the
per-criterion lines.
"""

import functools
import hashlib
import time

import numpy as np
import pytest
from scipy.special import hankel1

from cauchyfwi import config as C
from cauchyfwi.acquisition import add_noise, receiver_layer, source_lattice, synthesize
from cauchyfwi.analysis import gradcheck, probe_stability
from cauchyfwi.config import DEFAULT_CONFIG, parse_config
from cauchyfwi.geometry import (
    Grid,
    NodalField,
    PiecewiseLinearModel,
    build_partition,
    evaluate_model,
    fit_coefficients,
)
from cauchyfwi.helmholtz import PhysicsConfig, assemble
from cauchyfwi.inversion import (
    OptimConfig,
    discrepancy,
    relative_l2_error,
    run_inversion,
    stagnation,
)
from cauchyfwi.misfit_adjoint import misfit_only, reciprocity_gap, simulate_traces
from conftest import GRADCHECK_CONFIG


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _report(n, ok, text):
    print(f"\n[criterion {n}] {'PASS' if ok else 'FAIL'}: {text}")


# ---------------------------------------------------------------------------
# criterion 1: adjoint gradient vs central finite differences, on
# conftest.GRADCHECK_CONFIG


@functools.lru_cache(maxsize=None)
def run_gradient_check(tag):
    t0 = time.perf_counter()
    cfg = parse_config(GRADCHECK_CONFIG)
    report = gradcheck(cfg)
    rows = np.array([[c.index, c.adjoint, c.finite_difference, c.rel_error]
                     for c in report.checks])
    return {
        "report": report,
        "elapsed": time.perf_counter() - t0,
        "digest": _digest(rows),
    }


def test_criterion_1_adjoint_gradient_matches_finite_differences():
    out = run_gradient_check("first")
    report = out["report"]
    cfg = parse_config(GRADCHECK_CONFIG)
    grid = C.build_grid(cfg)
    partition = C.build_partition_for(cfg, grid)
    assert grid.dim == 2 and grid.shape[0] <= 101 and grid.shape[1] <= 51
    assert partition.n_subdomains <= 12
    ok = report.passed and out["elapsed"] <= 120.0
    _report(1, ok, f"{len(report.checks)} coefficients, worst relative error "
                   f"{report.worst():.3g} <= 1e-4, {out['elapsed']:.1f}s")
    assert report.passed
    assert out["elapsed"] <= 120.0


# ---------------------------------------------------------------------------
# criterion 2: zero residual at the true model (inverse-crime mode)

@functools.lru_cache(maxsize=None)
def run_zero_residual(tag):
    t0 = time.perf_counter()
    cfg = parse_config(GRADCHECK_CONFIG)
    problem = C.build_problem(cfg)
    grid, phys, partition = problem.grid, problem.phys, problem.partition
    truth = fit_coefficients(C.build_true_field(cfg, grid), partition,
                             cfg.c_min_m_per_s, cfg.c_max_m_per_s,
                             water_speed=cfg.water_speed_m_per_s)
    truth_field = evaluate_model(truth)
    data = synthesize(truth_field, problem.obs, problem.receivers, phys)

    perturbed = truth.coeffs.copy()
    j = int(np.nonzero(~partition.frozen)[0][0])
    perturbed[j, 0] *= 1.10
    init = truth.with_coefficient_vector(perturbed.ravel())

    j_true, _, _ = misfit_only(assemble(grid, truth_field, phys), problem.sim, data)
    j_init, _, _ = misfit_only(assemble(grid, evaluate_model(init), phys), problem.sim, data)
    return {
        "j_true": j_true,
        "j_init": j_init,
        "elapsed": time.perf_counter() - t0,
        "digest": _digest(np.array([j_true, j_init])),
    }


def test_criterion_2_zero_residual_at_truth():
    out = run_zero_residual("first")
    ratio = out["j_true"] / out["j_init"]
    ok = ratio <= 1e-6 and out["elapsed"] <= 60.0
    _report(2, ok, f"J(true) = {out['j_true']:.3e}, J(perturbed) = "
                   f"{out['j_init']:.3e}, ratio {ratio:.3e} <= 1e-6, "
                   f"{out['elapsed']:.1f}s")
    assert ratio <= 1e-6
    assert out["elapsed"] <= 60.0


# ---------------------------------------------------------------------------
# criterion 3: same-model antisymmetry of the gap and solver reciprocity

@functools.lru_cache(maxsize=None)
def run_symmetry(tag):
    t0 = time.perf_counter()
    cfg = parse_config(GRADCHECK_CONFIG)
    problem = C.build_problem(cfg)
    grid, phys, receivers = problem.grid, problem.phys, problem.receivers
    obs = source_lattice(grid, depth_m=5.0, count=4, margin_m=30.0)
    truth_field = C.build_true_field(cfg, grid)
    data = synthesize(truth_field, obs, receivers, phys)
    system = assemble(grid, truth_field, phys)
    _, vals, dnu = simulate_traces(system, obs, receivers)
    gap = reciprocity_gap(vals, dnu, data, obs.weights)
    s = gap.values
    w = receivers.weights
    term_scale = float(np.max((np.abs(vals) * w) @ np.abs(data.dg).T
                              + (np.abs(dnu) * w) @ np.abs(data.g).T))
    antisym = float(np.max(np.abs(s + s.T)))

    node_a, node_b = grid.nearest_nodes([(60.0, 50.0), (145.0, 75.0)])
    g_ab = system.green_many([(60.0, 50.0)])[node_b, 0]
    g_ba = system.green_many([(145.0, 75.0)])[node_a, 0]
    return {
        "antisym": antisym,
        "term_scale": term_scale,
        "g_ab": g_ab,
        "g_ba": g_ba,
        "elapsed": time.perf_counter() - t0,
        "digest": _digest(s, np.array([g_ab, g_ba])),
    }


def test_criterion_3_antisymmetry_and_reciprocity():
    out = run_symmetry("first")
    rec_err = abs(out["g_ab"] - out["g_ba"]) / abs(out["g_ab"])
    anti_ok = out["antisym"] <= 1e-10 * out["term_scale"]
    rec_ok = rec_err <= 1e-10
    _report(3, anti_ok and rec_ok,
            f"max|S + S^T| = {out['antisym']:.3e} <= 1e-10 x quadrature scale "
            f"{out['term_scale']:.3e}; reciprocity error {rec_err:.3e} <= 1e-10, "
            f"{out['elapsed']:.1f}s")
    assert anti_ok
    assert rec_ok


# ---------------------------------------------------------------------------
# criterion 4: analytic free-space accuracy and grid-convergence order

@functools.lru_cache(maxsize=None)
def run_solver_accuracy(tag):
    t0 = time.perf_counter()
    phys = PhysicsConfig(freq_hz=25.0, water_speed=1500.0)
    center = (180.0, 180.0)

    def solve(n):
        grid = Grid((360.0, 360.0), (n, n))
        speed = NodalField(grid, np.full(grid.n_nodes, 1500.0))
        system = assemble(grid, speed, phys, free_surface=False)
        return grid, system.green_many([center])[:, 0]

    g1, u1 = solve(49)
    g2, f2 = solve(97)
    g3, f3 = solve(193)
    u2 = f2.reshape(g2.shape)[::2, ::2].ravel()
    u3 = f3.reshape(g3.shape)[::4, ::4].ravel()

    h1 = g1.spacing[0]
    pos = g1.node_positions()
    r = np.linalg.norm(pos - np.array(center), axis=1)
    ring = (r >= 2 * h1) & (r <= 90.0)  # up to a quarter of the domain
    order = float(np.log2(np.linalg.norm((u1 - u2)[ring])
                          / np.linalg.norm((u2 - u3)[ring])))

    kappa = phys.k / 1500.0
    exact = np.abs(0.25j * hankel1(0, kappa * r[ring]))
    rel = np.abs(np.abs(u2[ring]) - exact) / exact
    return {
        "order": order,
        "max_rel": float(rel.max()),
        "median_rel": float(np.median(rel)),
        "elapsed": time.perf_counter() - t0,
        "digest": _digest(u1, u2, u3),
    }


def test_criterion_4_analytic_accuracy_and_convergence_order():
    out = run_solver_accuracy("first")
    ok = out["max_rel"] <= 0.10 and out["order"] >= 1.8 and out["elapsed"] <= 120.0
    _report(4, ok, f"|G| within {out['max_rel']:.1%} (median {out['median_rel']:.1%}) "
                   f"of the free-space magnitude at mid-range radii; observed "
                   f"order {out['order']:.2f} >= 1.8 under h -> h/2, "
                   f"{out['elapsed']:.1f}s")
    assert out["max_rel"] <= 0.10
    assert out["order"] >= 1.8
    assert out["elapsed"] <= 120.0


# ---------------------------------------------------------------------------
# criteria 5 and 6: end-to-end reconstruction, coupled and decoupled, on a
# fixed set of noise seeds; criteria 7 and 9 use the configuration's seed

DEFAULT_SEED = parse_config(DEFAULT_CONFIG).seed  # 1234
OTHER_SEEDS = (1, 2, 3, 4, 5, 7)


@functools.lru_cache(maxsize=None)
def clean_problem(tag, decoupled):
    """The default configuration's problem and its noise-free data, built
    once per run kind and tag and noised per seed."""
    cfg = parse_config(DEFAULT_CONFIG)
    problem = C.build_problem(cfg, decoupled=decoupled)
    return cfg, problem, C.build_clean_data(cfg, problem)


@functools.lru_cache(maxsize=None)
def run_reconstruction(tag, decoupled, seed):
    t0 = time.perf_counter()
    cfg, problem, clean = clean_problem(tag, decoupled)
    data = add_noise(clean, cfg.snr_db, seed)
    initial = problem.initial
    result = run_inversion(data, problem.sim, initial, problem.optim, problem.phys)

    truth_inv = C.build_true_field(cfg, problem.grid)
    e_init = relative_l2_error(truth_inv, evaluate_model(initial))
    e_final = relative_l2_error(truth_inv, evaluate_model(result.model))
    history = np.array(result.misfit_history)
    return {
        "e_init": e_init,
        "e_final": e_final,
        "history": history,
        "records": result.records,
        "reason": result.reason,
        "n_iter": len(result.records),
        "initial": initial,
        "model": result.model,
        "n_sim": problem.sim.n_sources,
        "n_obs": problem.obs.n_sources,
        "elapsed": time.perf_counter() - t0,
        "digest": _digest(history, result.model.coefficient_vector),
    }


def check_criterion_5(seed):
    out = run_reconstruction("first", False, seed)
    improvement = 1 - out["e_final"] / out["e_init"]
    ok = improvement >= 0.50 and out["n_iter"] <= 175 and out["elapsed"] <= 900.0
    _report(5, ok, f"seed {seed}: relative L2 error {out['e_init']:.4f} -> "
                   f"{out['e_final']:.4f} ({improvement:+.1%} >= +50%) in "
                   f"{out['n_iter']} iterations ({out['reason']}), 15 dB noise, "
                   f"h/2 synthesis, {out['elapsed']:.0f}s")
    assert improvement >= 0.50
    assert out["n_iter"] <= 175
    assert out["elapsed"] <= 900.0


def check_criterion_6(seed):
    out = run_reconstruction("first", True, seed)
    improvement = 1 - out["e_final"] / out["e_init"]
    js = out["history"]
    monotone = bool(np.all(js[1:] <= js[:-1] * (1 + 1e-12)))
    # simulation set differs from the observations in count and depth:
    # 20 versus 32 sources reproduces the 60:96 field-to-computation ratio
    shape_ok = out["n_sim"] != out["n_obs"]
    ok = improvement >= 0.40 and monotone and shape_ok and out["elapsed"] <= 900.0
    _report(6, ok, f"seed {seed}: {out['n_sim']} simulation vs {out['n_obs']} "
                   f"observation sources: misfit monotone={monotone}, error "
                   f"improvement {improvement:+.1%} >= +40%, {out['elapsed']:.0f}s")
    assert shape_ok
    assert monotone
    assert improvement >= 0.40
    assert out["elapsed"] <= 900.0


def test_criterion_5_crime_free_reconstruction():
    check_criterion_5(DEFAULT_SEED)


@pytest.mark.parametrize("seed", OTHER_SEEDS)
def test_criterion_5_on_other_noise_seeds(seed):
    check_criterion_5(seed)


def test_criterion_6_decoupled_sources():
    check_criterion_6(DEFAULT_SEED)


@pytest.mark.parametrize("seed", OTHER_SEEDS)
def test_criterion_6_on_other_noise_seeds(seed):
    check_criterion_6(seed)


# ---------------------------------------------------------------------------
# criterion 7: driver mechanics (stagnation window, monotonicity, freezing)

def test_criterion_7_algorithm_mechanics():
    cfg = OptimConfig()  # floor 50, window 10, threshold 1 %

    flat = [2.0] * 60
    stop_flat, e_flat = stagnation(flat, cfg)
    under = [5.0] * 49 + [1.0] * 10 + [0.9901]
    stop_under, e_under = stagnation(under, cfg)
    over = [5.0] * 49 + [1.0] * 10 + [0.9899]
    stop_over, e_over = stagnation(over, cfg)
    early = [1.0] * 49
    stop_early, _ = stagnation(early, cfg)
    window_ok = (stop_flat and stop_under and not stop_over and not stop_early
                 and e_under < 0.01 < e_over)

    coupled = run_reconstruction("first", False, DEFAULT_SEED)
    decoupled = run_reconstruction("first", True, DEFAULT_SEED)
    mono_ok = True
    for out in (coupled, decoupled):
        js = out["history"]
        mono_ok &= bool(np.all(js[1:] <= js[:-1] * (1 + 1e-12)))

    # both runs end by a rule, and the recorded stop must match a
    # recomputation from the records alone: the first iteration whose
    # accepted misfit reaches DISCREPANCY_TAU times its noise floor, or
    # whose misfit history stagnates, whichever comes first (the
    # discrepancy principle is tested first within an iteration)
    replay_ok = True
    for out in (coupled, decoupled):
        records = out["records"]
        js = [r.misfit for r in records]
        replayed = None
        for j, r in enumerate(records, start=1):
            if discrepancy(r.accepted_misfit, r.accepted_noise_floor):
                replayed = (j, "discrepancy")
            elif stagnation(js[:j], cfg)[0]:
                replayed = (j, "stagnation")
            if replayed:
                break
        replay_ok &= replayed == (out["n_iter"], out["reason"])

    frozen = coupled["initial"].partition.frozen
    frozen_ok = bool(
        np.array_equal(coupled["model"].coeffs[frozen],
                       coupled["initial"].coeffs[frozen])
        and np.array_equal(decoupled["model"].coeffs[frozen],
                           decoupled["initial"].coeffs[frozen])
    )

    ok = window_ok and mono_ok and replay_ok and frozen_ok
    _report(7, ok, f"stagnation fires exactly below 1% over 10 iterations after "
                   f"iteration 50 (e = {e_under:.4f} stops, {e_over:.4f} continues); "
                   f"stops replayed from the records ({coupled['reason']} at "
                   f"{coupled['n_iter']}, {decoupled['reason']} at "
                   f"{decoupled['n_iter']}); misfit sequences non-increasing; frozen "
                   f"water coefficients bit-identical")
    assert window_ok
    assert mono_ok
    assert replay_ok
    assert frozen_ok


# ---------------------------------------------------------------------------
# criterion 8: empirical stability probe on an N = 4 partition

@functools.lru_cache(maxsize=None)
def run_probe(tag):
    t0 = time.perf_counter()
    grid = Grid((200.0, 100.0), (41, 21))  # h = 5
    partition = build_partition(grid, (100.0, 100.0), water_depth=20.0)
    assert partition.n_subdomains == 4
    phys = PhysicsConfig(freq_hz=25.0, water_speed=1500.0)
    receivers = receiver_layer(grid, depth_m=20.0)
    obs = source_lattice(grid, depth_m=5.0, count=3, margin_m=30.0)
    sim = source_lattice(grid, depth_m=5.0, count=3, margin_m=30.0)
    # the probe reads only the partition, bounds and water speed of the model
    model = PiecewiseLinearModel(partition, np.zeros((partition.n_subdomains, 3)),
                                 1400.0, 3400.0, water_speed=1500.0)
    report = probe_stability(model, phys, receivers, obs, sim, n_pairs=50,
                             seed=20260808)
    return {
        "report": report,
        "elapsed": time.perf_counter() - t0,
        "digest": _digest(report.table()),
    }


def test_criterion_8_stability_probe():
    out = run_probe("first")
    report = out["report"]
    finite = all(np.isfinite(p.ratio) for p in report.pairs
                 if not p.excluded and not p.flagged)
    no_silent_zero = all(p.flagged or p.excluded or p.misfit > 0
                         for p in report.pairs)
    ok = (len(report.pairs) >= 50 and finite and no_silent_zero
          and np.isfinite(report.ratio_max) and out["elapsed"] <= 300.0)
    _report(8, ok, f"{len(report.pairs)} pairs on N = 4: distance/sqrt(misfit) in "
                   f"[{report.ratio_min:.3g}, {report.ratio_max:.3g}] (m/s), "
                   f"{report.n_flagged} flagged, {out['elapsed']:.0f}s")
    assert len(report.pairs) >= 50
    assert finite
    assert no_silent_zero
    assert np.isfinite(report.ratio_max)
    assert out["elapsed"] <= 300.0


# ---------------------------------------------------------------------------
# criterion 9: bit-exact reproducibility of criteria 1-8

def test_criterion_9_bit_exact_reproducibility():
    pairs = [
        ("1", run_gradient_check("first")["digest"],
              run_gradient_check("second")["digest"]),
        ("2", run_zero_residual("first")["digest"],
              run_zero_residual("second")["digest"]),
        ("3", run_symmetry("first")["digest"],
              run_symmetry("second")["digest"]),
        ("4", run_solver_accuracy("first")["digest"],
              run_solver_accuracy("second")["digest"]),
        ("5", run_reconstruction("first", False, DEFAULT_SEED)["digest"],
              run_reconstruction("second", False, DEFAULT_SEED)["digest"]),
        ("6", run_reconstruction("first", True, DEFAULT_SEED)["digest"],
              run_reconstruction("second", True, DEFAULT_SEED)["digest"]),
        ("8", run_probe("first")["digest"], run_probe("second")["digest"]),
    ]
    mismatches = [name for name, a, b in pairs if a != b]
    ok = not mismatches
    _report(9, ok, "criteria pipelines re-executed and digests compared: "
                   + ("all bit-exact" if ok else f"mismatch in {mismatches}"))
    assert not mismatches
