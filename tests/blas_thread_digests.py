"""Print the OpenBLAS thread count in effect, then digests of the parts of
the pipeline where BLAS could split work across threads.

    OPENBLAS_NUM_THREADS=2 python tests/blas_thread_digests.py

The output after the first line must not depend on the thread count.
"""

import ctypes
import hashlib

import numpy as np
import scipy.sparse.linalg  # noqa: F401  loads scipy's OpenBLAS

from cauchyfwi import config as C
from cauchyfwi.acquisition import add_noise
from cauchyfwi.config import DEFAULT_CONFIG, parse_config
from cauchyfwi.geometry import evaluate_model
from cauchyfwi.helmholtz import assemble
from cauchyfwi.inversion import Objective, OptimConfig, run_inversion
from cauchyfwi.misfit_adjoint import nodal_gradient

THREAD_GETTERS = [f"{prefix}_get_num_threads{suffix}"
                  for prefix in ("scipy_openblas", "openblas") for suffix in ("64_", "")]


def openblas_threads():
    """Sorted thread counts in effect over every OpenBLAS in the process."""
    with open("/proc/self/maps") as f:
        paths = sorted({line.split()[-1] for line in f
                        if "openblas" in line.rsplit("/", 1)[-1].lower()})
    counts = set()
    for path in paths:
        lib = ctypes.CDLL(path)
        name = next(n for n in THREAD_GETTERS if hasattr(lib, n))
        getter = getattr(lib, name)
        getter.argtypes = []
        getter.restype = ctypes.c_int
        counts.add(getter())
    return sorted(counts)


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def main():
    cfg = parse_config(DEFAULT_CONFIG)
    problem = C.build_problem(cfg)
    grid, phys, sim, initial = problem.grid, problem.phys, problem.sim, problem.initial
    start = evaluate_model(initial)
    print("openblas_threads", *openblas_threads())

    # random blocks of the forward and adjoint field shape, as solve returns them
    rng = np.random.default_rng(6)
    shape = (grid.n_nodes, sim.n_sources)
    fwd, adj = (np.asfortranarray(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
                for _ in range(2))
    weights = rng.uniform(0.5, 1.5, sim.n_sources)
    print("nodal_gradient", digest(nodal_gradient(fwd, adj, start, phys, weights).values))

    fields = assemble(grid, start, phys).green_many(sim.positions)
    print("green_many", digest(fields))

    # the h/2 synthesis, solved in blocks of its own width
    clean = C.build_clean_data(cfg, problem)
    print("build_clean_data", digest(clean.g, clean.dg))

    data = add_noise(clean, cfg.snr_db, cfg.seed)
    objective = Objective(initial, sim, data, phys)
    vec = initial.coefficient_vector
    step = np.zeros_like(initial.coeffs)
    step[~initial.partition.frozen, 0] = rng.uniform(-20.0, 20.0, (~initial.partition.frozen).sum())
    for name, v in (("start", vec), ("perturbed", vec + step.ravel())):
        value, grad = objective.value_and_gradient(v)
        floor = objective.gap.noise_floor
        print("objective", name, value.hex(), floor.hex(), digest(grad))

    # eight iterations: from the second on, each L-BFGS direction is built
    # from every pair stored so far, up to seven
    optim = OptimConfig(n_iter_min=1, n_iter_max=8, n_eps=1)
    result = run_inversion(data, sim, initial, optim, phys)
    print("run_inversion", len(result.records),
          digest(result.misfit_history, result.model.coefficient_vector))


if __name__ == "__main__":
    main()
