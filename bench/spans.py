"""In-memory spans around the package's public functions, from outside it.

Each public function is wrapped where its caller looks it up: `inversion`,
`analysis` and `acquisition` bind `assemble`, `evaluate_model`, ... at
import time, so the wrapper is installed on each of those module attributes
and on the defining module.  `HelmholtzSystem.factorization` and
`HelmholtzSystem.solve` are wrapped on the class.  The package's source is
not touched, and `Tracer.uninstall` restores every attribute it replaced.

A span records a name, start, end, its parent span and the operation root
it belongs to.  Self time is span time minus the time of its direct
children.
"""

from __future__ import annotations

import functools
import json
import time
import weakref

import numpy as np

from cauchyfwi import acquisition, analysis, geometry, helmholtz, inversion, misfit_adjoint
from cauchyfwi.errors import BoundsViolationError

# (span name, modules whose attribute of that name is wrapped)
WRAPPED = [
    ("assemble", (helmholtz, inversion, analysis, acquisition)),
    ("evaluate_model", (geometry, inversion, analysis)),
    ("coefficient_gradient", (geometry, inversion, analysis)),
    ("misfit_only", (misfit_adjoint, inversion, analysis)),
    ("misfit_and_gradient", (misfit_adjoint, inversion, analysis)),
    ("simulate_traces", (misfit_adjoint,)),
    ("reciprocity_gap", (misfit_adjoint,)),
    ("solve_adjoint_fields", (misfit_adjoint,)),
    ("nodal_gradient", (misfit_adjoint,)),
    ("traces_many", (helmholtz,)),
    ("line_search", (inversion,)),
    ("synthesize", (acquisition,)),
    ("add_noise", (acquisition,)),
    ("gradcheck", (analysis,)),
]


class Span:
    __slots__ = ("id", "name", "parent", "root", "start", "end", "child_s",
                 "error", "columns", "ok")

    def __init__(self, sid, name, parent, root):
        self.id = sid
        self.name = name
        self.parent = parent
        self.root = root
        self.start = time.perf_counter()
        self.end = None
        self.child_s = 0.0
        self.error = None
        self.columns = 0
        self.ok = None

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.child_s

    def as_dict(self):
        return {
            "id": self.id, "name": self.name,
            "parent": self.parent.id if self.parent is not None else None,
            "root": self.root, "start": self.start, "end": self.end,
            "error": self.error, "columns": self.columns, "ok": self.ok,
        }


class Tracer:
    """Span recorder plus the per-call counters the cross-checks need."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._restore = []
        self.columns_solved = 0
        self.solve_count_mismatches = 0
        self.n_solves_mismatches = 0
        self._columns_by_system = weakref.WeakKeyDictionary()

    # -- span bookkeeping ---------------------------------------------------

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        root = parent.root if parent is not None else sid
        span = Span(sid, name, parent, root)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        if span.parent is not None:
            span.parent.child_s += span.duration

    def call(self, name, fn, *args, **kwargs):
        span = self.open(name)
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            self.close(span)

    # -- installing wrappers ------------------------------------------------

    def _replace(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        for name, modules in WRAPPED:
            original = getattr(modules[0], name)
            wrapper = self._wrap(name, original)
            for module in modules:
                if getattr(module, name) is not original:
                    raise RuntimeError(f"{module.__name__}.{name} is not the "
                                       f"{modules[0].__name__} function")
                self._replace(module, name, wrapper)

        cls = helmholtz.HelmholtzSystem
        factor_prop = cls.__dict__["factorization"]
        solve = cls.__dict__["solve"]
        tracer = self

        def factorization(system):
            # only the first access per system factorizes
            if system._factor is not None:
                return factor_prop.fget(system)
            return tracer.call("factorize", factor_prop.fget, system)

        def traced_solve(system, rhs):
            span = tracer.open("solve")
            try:
                x = solve(system, rhs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                tracer.close(span)
            cols = 1 if np.ndim(rhs) == 1 else np.shape(rhs)[1]
            span.columns = cols
            tracer.columns_solved += cols
            seen = tracer._columns_by_system.get(system, 0) + cols
            tracer._columns_by_system[system] = seen
            if seen != system.solve_count:
                tracer.solve_count_mismatches += 1
            return x

        self._replace(cls, "factorization", property(factorization))
        self._replace(cls, "solve", functools.wraps(solve)(traced_solve))

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                tracer.close(span)
            if name == "line_search":
                span.ok = bool(result.ok)
            return result

        return wrapper

    def write(self, path):
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span.as_dict()) + "\n")


def per_layer(tracer, op_roots, n_iterations, extra):
    """Per-layer metrics per operation from the spans under op_roots.

    n_iterations is the driver iterations summed over the traced
    operations; extra holds metrics measured outside the spans.
    """
    n_ops = len(op_roots)
    roots = set(op_roots)
    spans = [s for s in tracer.spans if s.root in roots and s.id not in roots]

    def named(name):
        return [s for s in spans if s.name == name]

    def count(name):
        return len(named(name)) / n_ops

    def self_s(name):
        return sum(s.self_s for s in named(name)) / n_ops

    def median_s(pool):
        return float(np.median([s.duration for s in pool])) if pool else 0.0

    def per_iter(total):
        return total / n_iterations if n_iterations else 0.0

    factorize = named("factorize")
    columns = sum(s.columns for s in named("solve"))
    adjoint_solve_s = sum(s.duration for s in named("solve")
                          if s.parent is not None and s.parent.name == "solve_adjoint_fields")
    searches = named("line_search")
    trials = [s for s in named("evaluate_model")
              if s.parent is not None and s.parent.name == "line_search"]
    bound_rejected = sum(s.error == BoundsViolationError.__name__ for s in trials)
    accepted = sum(bool(s.ok) for s in searches)
    sweeps = named("gradcheck")

    metrics = {
        "helmholtz.factorizations": (len(factorize) / n_ops, "count"),
        "helmholtz.factorize_self_s": (self_s("factorize"), "s"),
        "helmholtz.factorize_ms_p50": (1000.0 * median_s(factorize), "ms"),
        "helmholtz.rhs_solves": (columns / n_ops, "count"),
        "helmholtz.solve_self_s": (self_s("solve"), "s"),
        "helmholtz.solve_ms_per_rhs": (
            1000.0 * sum(s.self_s for s in named("solve")) / columns if columns else 0.0,
            "ms"),
        "helmholtz.assemble_calls": (count("assemble"), "count"),
        "helmholtz.assemble_self_s": (self_s("assemble"), "s"),
        "helmholtz.traces_self_s": (self_s("traces_many"), "s"),
        "misfit_adjoint.misfit_only_calls": (count("misfit_only"), "count"),
        "misfit_adjoint.misfit_and_gradient_calls": (count("misfit_and_gradient"), "count"),
        "misfit_adjoint.simulate_traces_self_s": (self_s("simulate_traces"), "s"),
        "misfit_adjoint.gap_self_s": (self_s("reciprocity_gap"), "s"),
        "misfit_adjoint.adjoint_rhs_self_s": (
            (sum(s.duration for s in named("solve_adjoint_fields")) - adjoint_solve_s) / n_ops,
            "s"),
        "misfit_adjoint.nodal_gradient_self_s": (self_s("nodal_gradient"), "s"),
        "geometry.evaluate_model_calls": (count("evaluate_model"), "count"),
        "geometry.evaluate_model_self_s": (self_s("evaluate_model"), "s"),
        "geometry.bound_rejections": (
            sum(s.error == BoundsViolationError.__name__ for s in named("evaluate_model")) / n_ops,
            "count"),
        "geometry.coefficient_gradient_self_s": (self_s("coefficient_gradient"), "s"),
        "inversion.iterations": (n_iterations / n_ops, "count"),
        "inversion.line_search_self_s": (self_s("line_search"), "s"),
        "inversion.trials": (len(trials) / n_ops, "count"),
        "inversion.trials_bound_rejected": (bound_rejected / n_ops, "count"),
        "inversion.trials_armijo_rejected": (
            (len(trials) - bound_rejected - accepted) / n_ops, "count"),
        "inversion.trial_accept_ratio": (accepted / len(trials) if trials else 0.0, "ratio"),
        "inversion.factorizations_per_iter": (per_iter(len(factorize)), "count"),
        "inversion.rhs_solves_per_iter": (per_iter(columns), "count"),
        # set-up spans sit outside the op roots, so these read every span
        "acquisition.synthesize_s": (
            median_s([s for s in tracer.spans if s.name == "synthesize"]), "s"),
        "acquisition.add_noise_s": (
            median_s([s for s in tracer.spans if s.name == "add_noise"]), "s"),
        "analysis.gradcheck_sweep_s": (median_s(sweeps), "s"),
        "analysis.misfit_evals_per_sweep": (
            (count("misfit_only") + count("misfit_and_gradient")) if sweeps else 0.0, "count"),
    }
    metrics.update(extra)
    return metrics
