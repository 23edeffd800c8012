"""One closed-loop client session against the ``nirb`` public API.

The session plays a single client that waits for each reply before sending
the next request: offline build (persisted), load of the artifacts back from
disk, sequential rectified online queries, reference checks against fine
solves, and a leave-one-out pass.  It measures every stage and checks every
output; a failed operation or check is counted, not raised.

Times are reported at reference host speed (see ``hostspeed``): a query is
scaled by the slowdown measured around it in this thread, and, in
``sampled_metrics``, a fine solve or a whole stage by the slowdown the
per-core samplers saw during it.  The raw wall times go to the details.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import resource
import statistics
import time

import numpy as np

import nirb
import nirb.pipeline
from hostspeed import timed

# Exceptions the program raises for a failed solve or a rejected input.
OPERATION_ERRORS = (ArithmeticError, RuntimeError, ValueError)

# p90 needs at least ten samples beyond it
MIN_QUERIES = 100

PHASES = ("offline", "load", "online", "checks", "loo")


@dataclasses.dataclass
class Session:
    """What one session measured, how many operations it attempted and
    which of them failed, and details reported beside the metrics."""

    metrics: dict = dataclasses.field(default_factory=dict)
    details: dict = dataclasses.field(default_factory=dict)
    attempted: int = 0
    failures: list = dataclasses.field(default_factory=list)
    stages: dict = dataclasses.field(default_factory=dict)
    fine: list = dataclasses.field(default_factory=list)

    def count(self, ok, what, n=1):
        self.attempted += n
        if not ok:
            self.failures.append(what)


def percentile(values, q):
    """Percentile of the samples; NaN when every operation failed."""
    if not values:
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=float), q))


def _finite_with_shape(result, shape):
    values = result.trajectory.values
    return values.shape == shape and bool(np.isfinite(values).all())


def _dir_bytes(path):
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


def run_session(workload, seed, seconds, workdir, tracer=None, queries=None,
                quiet=contextlib.nullcontext):
    """Run one client session.

    The query loop sends requests until ``seconds`` have passed and at
    least ``MIN_QUERIES`` were sent, or exactly ``queries`` requests when
    given (the traced run uses fixed work so its counters repeat); it runs
    inside the ``quiet()`` context."""
    out = Session()
    m, d = out.metrics, out.details
    config = dataclasses.replace(
        nirb.StudyConfig.from_text(workload.config_text()),
        output_dir=os.path.join(workdir, "study"))
    loo_config = dataclasses.replace(
        nirb.StudyConfig.from_text(workload.loo_config_text()),
        output_dir=os.path.join(workdir, "loo"))
    rng = np.random.default_rng(seed)
    stages = out.stages

    def set_phase(name):
        if tracer is not None:
            tracer.phase = name

    def stage(name, fn, *args, **kwargs):
        set_phase(name)
        result, stages[name] = timed(fn, *args, **kwargs)
        return result

    in_memory = stage("offline", nirb.offline, config, persist=True)
    out.count(True, "training solves", n=2 * len(config.training_parameters()))
    d["reduced_basis.N"] = in_memory.basis.N
    d["io.artifact_bytes"] = _dir_bytes(config.output_dir)

    def load():
        artifacts = nirb.pipeline.load_artifacts(config)
        return artifacts, artifacts.context()

    artifacts, ctx = stage("load", load)
    shape = (config.fine_steps + 1,
             artifacts.basis.n_fields * artifacts.fine_mesh.n_nodes)
    probe = workload.checks[0]
    same = np.array_equal(nirb.online(in_memory, probe).coefficients,
                          nirb.online(artifacts, probe).coefficients)
    out.count(same, f"loaded artifacts give other coefficients at {probe}")
    del in_memory

    set_phase("online")
    latency, coarse_ms, reconstruct_ms = [], [], []
    sent = 0
    with quiet():
        deadline = time.perf_counter() + seconds
        while (sent < queries if queries is not None
               else sent < MIN_QUERIES or time.perf_counter() < deadline):
            sent += 1
            param = workload.draw(rng)
            try:
                result, timing = timed(nirb.online, artifacts, param)
            except OPERATION_ERRORS as exc:
                out.count(False, f"query at {param}: {exc}")
                continue
            out.count(_finite_with_shape(result, shape),
                      f"query at {param}: non-finite or misshapen trajectory")
            latency.append(timing)
            coarse_ms.append(1e3 * result.seconds_coarse / timing.factor)
            reconstruct_ms.append(
                1e3 * result.seconds_reconstruct / timing.factor)
    d["queries"] = len(latency)
    m["online_ms_p50"] = 1e3 * percentile([t.scaled for t in latency], 50)
    m["online_ms_p90"] = 1e3 * percentile([t.scaled for t in latency], 90)
    d["online_wall_ms_p50"] = 1e3 * percentile([t.wall for t in latency], 50)
    d["pipeline.online.coarse_ms_p50"] = percentile(coarse_ms, 50)
    d["pipeline.online.reconstruct_ms_p50"] = percentile(reconstruct_ms, 50)

    def checks():
        timings, errors = [], {"plain": [], "rectified": []}
        for param in workload.checks:
            try:
                reference, timing = timed(nirb.solve_fine, config, ctx.fine,
                                          param)
                timings.append(timing)
                coarse = nirb.solve_coarse(config, ctx.coarse, param,
                                           fine=ctx.fine)
                ok = bool(np.isfinite(reference.values).all())
                for mode in errors:
                    result = nirb.online(artifacts, param, mode=mode,
                                         coarse_traj=coarse)
                    err = nirb.evaluate_errors(result.trajectory, reference,
                                               ctx.fine.forms).rel_energy
                    ok = ok and _finite_with_shape(result, shape) \
                        and bool(np.isfinite(err))
                    errors[mode].append(err)
            except OPERATION_ERRORS as exc:
                out.count(False, f"check at {param}: {exc}")
                continue
            out.count(ok, f"check at {param}: non-finite output or error")
        return timings, errors

    out.fine, errors = stage("checks", checks)
    m["err_rect_max"] = percentile(errors["rectified"], 100)
    m["err_plain_max"] = percentile(errors["plain"], 100)

    report = stage("loo", nirb.leave_one_out, loo_config)
    n_train = len(loo_config.training_parameters())
    out.count(len(report.rows) == n_train,
              f"leave-one-out gave {len(report.rows)} rows for {n_train} "
              f"training values")
    for row in report.rows:
        out.count(bool(np.isfinite(row.rectified)),
                  f"leave-one-out row {row.parameter}: non-finite error")
    m["loo_err_max"] = report.max_rectified
    set_phase("-")

    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    m["peak_rss_mb"] = rss_kib / 1024
    m["ok_frac"] = 1.0 - len(out.failures) / out.attempted
    d["failed_frac"] = len(out.failures) / out.attempted
    return out


def sampled_metrics(session, samplers):
    """Add the metrics scaled by the slowdown the per-core ``samplers`` saw:
    the stages, and the fine solves on the CPU they ran on.  The
    time-bounded query loop is not a stage, so its CPU time is left out of
    ``cpu_s``."""
    m, d, stages = session.metrics, session.details, session.stages
    m["fine_ms_p50"] = percentile(
        [1e3 * t.wall / samplers.thread_factor(t) for t in session.fine], 50)
    d["speedup_fine_over_online"] = m["fine_ms_p50"] / m["online_ms_p50"]
    d["fine_wall_ms_p50"] = percentile([1e3 * t.wall for t in session.fine],
                                       50)
    slow = {name: samplers.factor(t) for name, t in stages.items()}
    m["offline_s"] = stages["offline"].wall / slow["offline"]
    m["loo_s"] = stages["loo"].wall / slow["loo"]
    m["cpu_s"] = sum(t.cpu / slow[name] for name, t in stages.items())
    for name, t in stages.items():
        d[f"{name}_wall_s"] = t.wall
        d[f"{name}_slowdown"] = slow[name]


def trace_overhead(workload, tracer, repeats=2):
    """Traced over untraced time of one fine solve at the first check
    parameter, each the median of ``repeats`` runs taken alternately after
    one warm-up run; leaves the tracer installed."""
    config = nirb.StudyConfig.from_text(workload.config_text())
    fine, _ = nirb.discretize(config)
    param = workload.checks[0]

    def once():
        return timed(nirb.solve_fine, config, fine, param)[1].scaled

    once()
    tracer.phase = "probe"
    untraced, traced = [], []
    for _ in range(repeats):
        untraced.append(once())
        tracer.install()
        traced.append(once())
        tracer.uninstall()
    tracer.install()
    tracer.phase = "-"
    return statistics.median(traced) / statistics.median(untraced)
