"""Call tracer for the benchmark's traced run.

Wraps public functions of the ``nirb`` modules from outside the program and
records one span per call: layer name, start, end, thread, parent span and
the counters a layer-specific hook reads from the arguments and result.
Spans stay in memory until the run ends.

A target is replaced in every ``nirb`` module that holds it, because
``from nirb.x import f`` binds ``f`` separately in each importing module.
A target missing from the program is skipped and listed as absent, so a
refactor that renames or deletes an internal does not break the benchmark.
``SparseSym.matvec`` is deliberately not traced: it runs hundreds of
thousands of times per workload and a wrapper would dominate its cost.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time
from dataclasses import dataclass


def _cg_counts(args, result):
    A = args["A"]
    iters = int(result[1])
    # flops: one matvec and a dozen vector operations per iteration, plus
    # the initial and final true-residual matvecs
    flop = (iters + 2) * 2.0 * A.nnz + iters * 12.0 * A.n
    return {"iters": iters, "flop": flop}


def _iters(args, result):
    return {"iters": int(result[1])}


def _eig_size(args, result):
    return {"n": int(args["G"].shape[0])}


def _grid_steps(args, result):
    return {"steps": int(args["grid"].steps)}


@dataclass(frozen=True)
class Target:
    """One traced function: span name, defining module and attribute, and an
    optional hook ``count(bound_arguments, result) -> dict``."""

    name: str
    module: str
    attr: str
    count: object = None


TARGETS = (
    Target("linalg.cg", "nirb.linalg", "cg_solve", _cg_counts),
    Target("linalg.bicgstab", "nirb.linalg", "bicgstab_solve", _iters),
    Target("linalg.sym_eig", "nirb.linalg", "sym_eig", _eig_size),
    Target("linalg.solve_regularized_normal", "nirb.linalg",
           "solve_regularized_normal"),
    Target("fem.assemble", "nirb.fem", "assemble"),
    Target("fem.load_vector", "nirb.fem", "load_vector"),
    Target("fem.load_from_midpoint_values", "nirb.fem",
           "load_from_midpoint_values"),
    Target("fem.norms", "nirb.fem", "norms"),
    Target("integrators.heat_march", "nirb.integrators",
           "heat_backward_euler", _grid_steps),
    Target("integrators.heat_march", "nirb.integrators",
           "heat_crank_nicolson", _grid_steps),
    Target("integrators.newton", "nirb.integrators",
           "brusselator_step_newton"),
    Target("integrators.rk2", "nirb.integrators", "brusselator_step_rk2"),
    Target("pipeline.heat_initial_fine", "nirb.pipeline", "heat_initial_fine"),
    Target("pipeline.solve_fine", "nirb.pipeline", "solve_fine"),
    Target("pipeline.solve_coarse", "nirb.pipeline", "solve_coarse"),
    Target("pipeline.evaluate_errors", "nirb.pipeline", "evaluate_errors"),
    Target("reduced_basis.build", "nirb.reduced_basis", "pod_greedy"),
    Target("reduced_basis.build", "nirb.reduced_basis", "greedy"),
    Target("reduced_basis.build", "nirb.reduced_basis", "hierarchical_pod"),
    Target("reduced_basis.h1_reorthogonalize", "nirb.reduced_basis",
           "h1_reorthogonalize"),
    Target("rectification.fit", "nirb.rectification", "build_rectification"),
    Target("rectification.lift_project", "nirb.rectification",
           "coarse_to_fine_coefficients"),
    Target("rectification.apply", "nirb.rectification", "apply_rectification"),
    Target("time_interp.quadratic_time_interp", "nirb.time_interp",
           "quadratic_time_interp"),
    Target("mesh.interpolate_field", "nirb.mesh", "interpolate_field"),
    Target("io.save_artifacts", "nirb.io", "save_artifacts"),
    Target("io.load_artifacts", "nirb.io", "load_artifacts"),
    Target("io.save_trajectory", "nirb.io", "save_trajectory"),
)


@dataclass
class Span:
    name: str
    phase: str
    parent: int      # index of the enclosing span in the same thread, or -1
    thread: int
    start: float
    end: float = 0.0
    counts: dict = None


class Tracer:
    """Installs wrappers around ``TARGETS`` and collects their spans.

    ``phase`` is set by the client between stages; every span records the
    phase that was current when it started, including spans opened in
    worker threads."""

    def __init__(self):
        self.spans = []
        self.phase = "-"
        self.absent = []
        self.hook_errors = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []

    def install(self, targets=TARGETS):
        self.absent = []
        for target in targets:
            try:
                module = importlib.import_module(target.module)
            except ImportError:
                module = None
            orig = getattr(module, target.attr, None)
            if not callable(orig):
                self.absent.append(f"{target.module}.{target.attr}")
                continue
            wrapper = self._wrap(target, orig)
            for mod in list(sys.modules.values()):
                name = getattr(mod, "__name__", "")
                if name != "nirb" and not name.startswith("nirb."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        return self

    def uninstall(self):
        for mod, key, orig in reversed(self._patches):
            setattr(mod, key, orig)
        self._patches.clear()

    def _wrap(self, target, orig):
        signature = inspect.signature(orig) if target.count else None
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            span = Span(target.name, tracer.phase,
                        stack[-1] if stack else -1, threading.get_ident(),
                        time.perf_counter())
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(index)
            try:
                result = orig(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if signature is not None:
                # a refactored signature or result must not stop the run;
                # the miss is counted and reported
                try:
                    bound = signature.bind(*args, **kwargs).arguments
                    span.counts = target.count(bound, result)
                except Exception:
                    tracer.hook_errors[target.name] = \
                        tracer.hook_errors.get(target.name, 0) + 1
            return result

        return wrapper

    def self_times(self):
        """Span duration minus the time covered by its direct children."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def dump(self, path):
        """Write every span once, as one JSON array of rows."""
        rows = [[s.name, s.phase, s.parent, s.thread, s.start, s.end,
                 s.counts or {}] for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "phase", "parent", "thread",
                                   "start", "end", "counts"],
                       "absent": self.absent, "spans": rows}, fh)


def _aggregate(tracer, keep):
    """Per span name: calls, inclusive seconds of outermost spans, self
    seconds, summed counters (maximum for ``n``), over phases in ``keep``."""
    own = tracer.self_times()
    spans = tracer.spans
    agg = {}
    for i, s in enumerate(spans):
        if s.phase not in keep:
            continue
        a = agg.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        a["calls"] += 1
        a["self_s"] += own[i]
        if s.parent < 0 or spans[s.parent].name != s.name:
            a["s"] += s.end - s.start
        for key, value in (s.counts or {}).items():
            a[key] = max(a.get(key, 0), value) if key == "n" \
                else a.get(key, 0) + value
        if s.parent >= 0:
            pa = agg.setdefault("child:" + spans[s.parent].name + ">" + s.name,
                                {"calls": 0, "s": 0.0})
            pa["calls"] += 1
            pa["s"] += s.end - s.start
    return agg


def layer_metrics(tracer, phases):
    """The benchmark's per-layer metrics over the spans of ``phases``.

    Newton iterations are the BiCGStab solves a Newton step makes; a
    presolve is a heat march run inside ``heat_initial_fine``."""
    a = _aggregate(tracer, set(phases))

    def get(name, key):
        return a.get(name, {}).get(key, 0)

    cg_calls, cg_iters = get("linalg.cg", "calls"), get("linalg.cg", "iters")
    presolve = "child:pipeline.heat_initial_fine>integrators.heat_march"
    return {
        "linalg.cg.calls": cg_calls,
        "linalg.cg.iters": cg_iters,
        "linalg.cg.iters_per_call": cg_iters / cg_calls if cg_calls else 0.0,
        "linalg.cg.self_s": get("linalg.cg", "self_s"),
        "linalg.cg.gflop": get("linalg.cg", "flop") / 1e9,
        "linalg.bicgstab.calls": get("linalg.bicgstab", "calls"),
        "linalg.bicgstab.iters": get("linalg.bicgstab", "iters"),
        "linalg.bicgstab.self_s": get("linalg.bicgstab", "self_s"),
        "integrators.newton.steps": get("integrators.newton", "calls"),
        "integrators.newton.iters":
            get("child:integrators.newton>linalg.bicgstab", "calls"),
        "integrators.newton.self_s": get("integrators.newton", "self_s"),
        "linalg.sym_eig.calls": get("linalg.sym_eig", "calls"),
        "linalg.sym_eig.max_n": get("linalg.sym_eig", "n"),
        "linalg.sym_eig.self_s": get("linalg.sym_eig", "self_s"),
        "linalg.solve_regularized_normal.self_s":
            get("linalg.solve_regularized_normal", "self_s"),
        "fem.assemble.self_s": get("fem.assemble", "self_s"),
        "fem.load.self_s": get("fem.load_vector", "self_s")
            + get("fem.load_from_midpoint_values", "self_s"),
        "fem.norms.self_s": get("fem.norms", "self_s"),
        "fem.load_vector.calls": get("fem.load_vector", "calls"),
        "integrators.heat_march.steps": get("integrators.heat_march", "steps"),
        "integrators.heat_march.self_s":
            get("integrators.heat_march", "self_s"),
        "integrators.rk2.steps": get("integrators.rk2", "calls"),
        "integrators.rk2.self_s": get("integrators.rk2", "self_s"),
        "pipeline.presolve.calls": get(presolve, "calls"),
        "pipeline.presolve.s": get(presolve, "s"),
        "pipeline.solve_fine.calls": get("pipeline.solve_fine", "calls"),
        "pipeline.solve_fine.s": get("pipeline.solve_fine", "s"),
        "pipeline.solve_coarse.calls": get("pipeline.solve_coarse", "calls"),
        "pipeline.solve_coarse.s": get("pipeline.solve_coarse", "s"),
        "pipeline.evaluate_errors.calls":
            get("pipeline.evaluate_errors", "calls"),
        "pipeline.evaluate_errors.s": get("pipeline.evaluate_errors", "s"),
        "reduced_basis.build.s": get("reduced_basis.build", "s"),
        "reduced_basis.h1_reorthogonalize.s":
            get("reduced_basis.h1_reorthogonalize", "s"),
        "rectification.fit.calls": get("rectification.fit", "calls"),
        "rectification.fit.s": get("rectification.fit", "s"),
        "rectification.lift_project.calls":
            get("rectification.lift_project", "calls"),
        "rectification.lift_project.s": get("rectification.lift_project", "s"),
        "rectification.apply.calls": get("rectification.apply", "calls"),
        "rectification.apply.s": get("rectification.apply", "s"),
        "time_interp.quadratic_time_interp.s":
            get("time_interp.quadratic_time_interp", "s"),
        "mesh.interpolate_field.calls": get("mesh.interpolate_field", "calls"),
        "mesh.interpolate_field.s": get("mesh.interpolate_field", "s"),
        "io.save_artifacts.s": get("io.save_artifacts", "s"),
        "io.load_artifacts.s": get("io.load_artifacts", "s"),
        "io.save_trajectory.s": get("io.save_trajectory", "s"),
        "trace.absent": len(tracer.absent),
    }
