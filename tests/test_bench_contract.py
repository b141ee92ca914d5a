"""The benchmark calls the package by name; those names must exist.

bench/spans.py replaces module attributes such as inversion.misfit_only and
the HelmholtzSystem factorization and solve with timing wrappers, and
raises when one of them is missing or differs between the modules it is
looked up on.  bench/workloads.py builds each workload's inputs through the
config builders and assembles its starting system.  A refactor that renames
or stops importing one of those names, or changes a builder's signature,
fails here, not only in a benchmark run.
"""

import importlib.util
import pathlib
import sys


from cauchyfwi.acquisition import receiver_layer, source_lattice, synthesize
from cauchyfwi.geometry import (
    Grid,
    NodalField,
    build_partition,
    evaluate_model,
    fit_coefficients,
)
from cauchyfwi.helmholtz import HelmholtzSystem, PhysicsConfig
from cauchyfwi.inversion import Objective

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def wrapped_attributes(spans):
    """(owner, name, current value) of every attribute the tracer replaces."""
    found = [(module, name, getattr(module, name))
             for name, modules in spans.WRAPPED for module in modules]
    found += [(HelmholtzSystem, name, HelmholtzSystem.__dict__[name])
              for name in ("factorization", "solve")]
    return found


def test_install_replaces_and_uninstall_restores_every_attribute():
    spans = load_bench("spans")
    before = wrapped_attributes(spans)
    tracer = spans.Tracer()
    tracer.install()
    try:
        during = wrapped_attributes(spans)
    finally:
        tracer.uninstall()
    after = wrapped_attributes(spans)
    assert all(d[2] is not b[2] for b, d in zip(before, during))
    assert all(a[2] is b[2] for b, a in zip(before, after))


def test_objective_work_runs_inside_the_wrapped_functions():
    spans = load_bench("spans")
    phys = PhysicsConfig(freq_hz=25.0, water_speed=1500.0)
    grid = Grid((160.0, 120.0), (17, 13))
    partition = build_partition(grid, (80.0, 60.0), water_depth=40.0)
    sources = source_lattice(grid, depth_m=10.0, count=3, margin_m=20.0)
    depth = grid.node_positions()[:, -1]
    truth, initial = (
        fit_coefficients(NodalField(grid, 1500.0 + slope * depth), partition,
                         1250.0, 3400.0, water_speed=1500.0)
        for slope in (2.0, 1.5))
    data = synthesize(evaluate_model(truth), sources, receiver_layer(grid, depth_m=30.0),
                      phys)
    objective = Objective(initial, sources, data, phys)
    vec = initial.coefficient_vector
    tracer = spans.Tracer()
    tracer.install()
    try:
        objective.value_and_gradient(vec)
        objective.value(vec)
    finally:
        tracer.uninstall()
    names = {s.name for s in tracer.spans}
    assert {"assemble", "evaluate_model", "factorize", "solve", "misfit_only",
            "misfit_and_gradient", "simulate_traces", "reciprocity_gap",
            "solve_adjoint_fields", "nodal_gradient", "traces_many",
            "coefficient_gradient"} <= names
    assert tracer.columns_solved == objective.solves
    assert tracer.solve_count_mismatches == 0


def test_every_workload_sets_up_and_assembles_its_starting_system():
    workloads = load_bench("workloads").WORKLOADS
    assert set(workloads) == {"invert_coupled", "invert_decoupled", "gradcheck_small"}
    for workload in workloads.values():
        inputs = workload.setup(1234)
        system = workload.starting_system(inputs)
        assert isinstance(system, HelmholtzSystem)
        assert system.solve_count == 0
