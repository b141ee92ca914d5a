"""Benchmark of the cauchyfwi inversion pipeline.

    python3 bench/run.py --workload invert_coupled --seed 1234 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the package from its
`src/` directory.  One caller drives the public API in a closed loop: each
operation starts after the previous one returns, for at least --seconds.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  The lines before it list
every metric by name with its unit.  See bench/README.md.
"""

import os
import sys

# The BLAS thread count changes the inversion's trajectory, not just its
# speed, so it is pinned before numpy is first imported and verified below.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
DEFAULT_SEED = 1234  # the noise seed of the default configuration
WORKLOAD_NAMES = ("invert_coupled", "invert_decoupled", "gradcheck_small")
SETUP_MIN_REPS = 5
SETUP_MIN_S = 1.0
SETUP_MAX_REPS = 1000

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "rel_l2_final": "ratio",
                    "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot run here; it exits non-zero without a result."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package():
    if not os.path.isdir(os.path.join(SRC, "cauchyfwi")):
        raise BenchError(f"no package source under {SRC}")
    sys.path.insert(0, SRC)
    import cauchyfwi

    if os.path.dirname(os.path.abspath(cauchyfwi.__file__)) != os.path.join(SRC, "cauchyfwi"):
        raise BenchError(f"cauchyfwi was imported from {cauchyfwi.__file__}, not {SRC}")


OPENBLAS_SYMBOLS = [(f"{prefix}_get_num_threads{suffix}", f"{prefix}_get_config{suffix}")
                    for prefix in ("scipy_openblas", "openblas") for suffix in ("64_", "")]


def loaded_openblas():
    """(path, threads in effect, version) of every OpenBLAS in the process."""
    import numpy  # noqa: F401  loads numpy's OpenBLAS
    import scipy.linalg  # noqa: F401  loads scipy's OpenBLAS
    import scipy.sparse.linalg  # noqa: F401

    with open("/proc/self/maps") as f:
        paths = sorted({line.split()[-1] for line in f
                        if "openblas" in line.rsplit("/", 1)[-1].lower()})
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        names = next(((t, c) for t, c in OPENBLAS_SYMBOLS
                      if hasattr(lib, t) and hasattr(lib, c)), None)
        if names is None:
            raise BenchError(f"cannot read the thread count of {path}")
        get_threads, get_config = getattr(lib, names[0]), getattr(lib, names[1])
        get_threads.restype = ctypes.c_int
        get_config.restype = ctypes.c_char_p
        found.append((path, get_threads(), get_config().decode().split()[1]))
    return found


def machine_facts():
    import numpy
    import scipy

    libs = loaded_openblas()
    if not libs:
        raise BenchError("no OpenBLAS found in the process; cannot verify the thread count")
    threads = sorted({t for _, t, _ in libs})
    if threads != [BLAS_THREADS]:
        raise BenchError(f"BLAS thread count in effect is {threads}, pinned {BLAS_THREADS}")
    return {
        "cores": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": sorted({v for _, _, v in libs}),
    }


def time_setup(workload, seed):
    """Median set-up time over repeated set-ups, and the last inputs."""
    times = []
    start = time.perf_counter()
    while (len(times) < SETUP_MIN_REPS or time.perf_counter() - start < SETUP_MIN_S) \
            and len(times) < SETUP_MAX_REPS:
        t0 = time.perf_counter()
        inputs = workload.setup(seed)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), inputs


class OpLog:
    """Outcomes of a loop of operations; wall time is per time unit."""

    def __init__(self):
        self.unit_walls = []     # one per op: wall / (iterations or 1)
        self.samples = []        # per-iteration (invert) or per-sweep times
        self.outcomes = []
        self.failed = 0
        self.records = []

    def add(self, wall, outcome, reference_digest):
        if outcome.digest != reference_digest:
            outcome.failures.append("digest")
        self.outcomes.append(outcome)
        self.unit_walls.append(wall / outcome.units)
        if outcome.records:
            self.samples.extend(r.wall_time_s for r in outcome.records)
            self.records.extend(outcome.records)
        else:
            self.samples.append(wall)
        if outcome.failures:
            self.failed += 1
            print(f"# operation failed its checks: {', '.join(outcome.failures)}",
                  file=sys.stderr)

    def add_error(self):
        self.failed += 1
        self.outcomes.append(None)
        traceback.print_exc(file=sys.stderr)


def run_op(workload, inputs, log, reference, tracer=None):
    """One checked operation; returns the reference digest and its root span."""
    root = callback = None
    if tracer is not None:
        last = [tracer.columns_solved]

        def callback(record):
            # the columns solved since the previous iteration's record
            cols = tracer.columns_solved - last[0]
            last[0] = tracer.columns_solved
            if cols != record.n_solves:
                tracer.n_solves_mismatches += 1

    try:
        t0 = time.perf_counter()
        if tracer is None:
            result = workload.run(inputs, callback)
        else:
            root = len(tracer.spans)
            result = tracer.call("op", workload.run, inputs, callback)
        wall = time.perf_counter() - t0
        outcome = workload.check(inputs, result)
    except Exception:
        log.add_error()
        return reference, None
    if reference is None:
        reference = outcome.digest
    log.add(wall, outcome, reference)
    return reference, root


def end_to_end(log, setup_s):
    ok = [o for o in log.outcomes if o is not None]
    if not ok:
        raise BenchError("every operation raised; no metric to report")
    return {
        "wall_s": statistics.median(log.unit_walls),
        "setup_s": setup_s,
        "rel_l2_final": statistics.median([o.rel_l2 for o in ok]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None):
    args = parse_args(argv)
    try:
        import_package()
        facts = machine_facts()
    except (BenchError, ImportError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    import workloads

    workload = workloads.WORKLOADS[args.workload]
    setup_s, inputs = time_setup(workload, args.seed)
    lines = [f"# workload {args.workload} seed {args.seed} cores {facts['cores']} "
             f"blas_threads {facts['blas_threads']} numpy {facts['numpy']} "
             f"scipy {facts['scipy']} openblas {','.join(facts['openblas'])}"]
    untraced = OpLog()
    digest = None
    start = time.perf_counter()
    if not args.trace:
        while not untraced.outcomes or time.perf_counter() - start < args.seconds:
            digest, _ = run_op(workload, inputs, untraced, digest)
    else:
        import spans

        fill_nnz, fill_bytes = workloads.lu_fill(workload.starting_system(inputs))
        tracer = spans.Tracer()
        traced = OpLog()
        roots = []
        # untraced and traced operations alternate, so that drift in the
        # host's speed falls on both sides of the overhead ratio alike
        while not traced.outcomes or time.perf_counter() - start < args.seconds:
            if len(untraced.outcomes) <= len(traced.outcomes):
                digest, _ = run_op(workload, inputs, untraced, digest)
                continue
            tracer.install()
            try:
                if not traced.outcomes:
                    tracer.call("setup", workload.setup, args.seed)
                digest, root = run_op(workload, inputs, traced, digest, tracer)
            finally:
                tracer.uninstall()
            if root is not None:
                roots.append(root)

    try:
        e2e = end_to_end(untraced, setup_s)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    pct, tail = workloads.tail_percentile(untraced.samples)
    lines.append(f"# digest {digest} operations {len(untraced.outcomes)} "
                 f"failed {untraced.failed}")
    lines.extend(f"{k} {v!r} {END_TO_END_UNITS[k]}" for k, v in e2e.items())
    lines.append(f"# per-{'iteration' if untraced.records else 'sweep'} time: "
                 f"p{pct} {tail!r} s over {len(untraced.samples)} samples")
    attempted = len(untraced.outcomes)
    failed = untraced.failed

    if not args.trace:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    else:
        if not roots:
            print("bench: every traced operation raised", file=sys.stderr)
            return 1
        attempted += len(traced.outcomes)
        failed += traced.failed
        iterations = sum(o.units for o in traced.outcomes if o is not None and o.records)
        extra = {
            "helmholtz.lu_fill_nnz": (fill_nnz, "count"),
            "helmholtz.lu_bytes_computed": (fill_bytes, "bytes"),
            "inversion.iter_ms_p50": (
                1000.0 * statistics.median([r.wall_time_s for r in untraced.records])
                if untraced.records else 0.0, "ms"),
            "trace.overhead_frac": (
                statistics.median(traced.unit_walls) / e2e["wall_s"] - 1.0, "ratio"),
            "bench.wall_samples": (len(untraced.samples), "count"),
            "bench.wall_tail_s": (tail, "s"),
            "bench.n_solves_mismatches": (tracer.n_solves_mismatches, "count"),
            "bench.solve_count_mismatches": (tracer.solve_count_mismatches, "count"),
        }
        layer = spans.per_layer(tracer, roots, iterations, extra)
        lines.extend(f"{k} {v!r} {u}" for k, (v, u) in layer.items())
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"))

    for line in lines:
        print(line)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
