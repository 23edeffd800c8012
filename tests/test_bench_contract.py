"""The names the benchmark harness reaches in ``nirb``.

The benchmark's tracer skips a missing target and counts it as absent
instead of failing, so a deletion or rename inside ``nirb`` would only show
as a changed ``trace.absent``; these tests make it fail here instead."""

import importlib
import importlib.util
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from nirb import pipeline
from nirb.config import RETIRED_KEYS, StudyConfig, load_config

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
TRACER = BENCHMARKS / "tracer.py"


def _load_tracer():
    # dataclasses resolve their module through sys.modules while the
    # module body runs, so register it before executing it
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer_module = _load_tracer()

# targets the tracer still names but the program no longer has: no heat
# solve iterates, every heat run starts from rest without a separate
# start-up function, no workload selects the snapshot greedy, the basis
# is not rotated to H1-orthogonal modes, and time interpolation is the
# artifacts' weights times the values, with no module of its own
RETIRED = ["nirb.linalg.cg_solve", "nirb.pipeline.heat_initial_fine",
           "nirb.reduced_basis.pod_greedy", "nirb.reduced_basis.greedy",
           "nirb.reduced_basis.h1_reorthogonalize",
           "nirb.time_interp.quadratic_time_interp"]

# the mode budget each pinned benchmark config asks of the basis builder
PINNED_BASES = {"heat.cfg": 3, "heat-loo.cfg": 3, "rd.cfg": 10}


@pytest.mark.parametrize("target", tracer_module.TARGETS,
                         ids=lambda t: f"{t.module}.{t.attr}")
def test_trace_target_resolves(target):
    # a deleted module counts as absent, as the tracer counts it
    try:
        module = importlib.import_module(target.module)
    except ImportError:
        module = None
    found = callable(getattr(module, target.attr, None))
    assert found == (f"{target.module}.{target.attr}" not in RETIRED)


def one_cpu(monkeypatch):
    """Run the fine sweep in this process, where the tracer sees every
    span: on one CPU it forks no worker and runs the same loop."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


def test_trace_hooks_read_the_traced_arguments(small_heat_text, monkeypatch):
    # the hooks read arguments by name (A, G, grid); a renamed argument
    # would only show as a hook error in a traced benchmark run
    one_cpu(monkeypatch)
    config = StudyConfig.from_text(small_heat_text)
    tracer = tracer_module.Tracer().install()
    try:
        artifacts = pipeline.offline(config, persist=False)
        pipeline.online(artifacts, 1.0)
        pipeline.solve_fine(config, artifacts.fine, 1.0)
    finally:
        tracer.uninstall()
    assert tracer.hook_errors == {}
    assert tracer.absent == RETIRED
    counts = {}
    for span in tracer.spans:
        counts.setdefault(span.name, []).append(span.counts)
    assert all(c["n"] > 0 for c in counts["linalg.sym_eig"])
    # five coarse and five fine runs, counted in window steps
    steps = sorted(c["steps"] for c in counts["integrators.heat_march"])
    assert steps == [config.coarse_steps] * 5 + [config.fine_steps] * 5


def test_artifacts_expose_the_discretizations(small_heat_text, tmp_path):
    config = StudyConfig.from_text(small_heat_text + f"output_dir = {tmp_path}\n")
    built = pipeline.offline(config, persist=True)
    for artifacts in (built, pipeline.load_artifacts(config)):
        ctx = artifacts.context()
        assert ctx.fine.mesh is artifacts.fine_mesh
        assert ctx.fine.mesh.n_nodes > ctx.coarse.mesh.n_nodes
        assert ctx.fine.grid.steps == config.fine_steps
        assert ctx.coarse.grid.steps == config.coarse_steps


def test_solve_coarse_accepts_the_fine_keyword(small_heat_text):
    # benchmarks/client.py still calls solve_coarse with fine=ctx.fine; the
    # keyword is ignored and must stay until the harness stops passing it
    config = StudyConfig.from_text(small_heat_text)
    fine, coarse = pipeline.discretize(config)
    want = pipeline.solve_coarse(config, coarse, 4.5)
    got = pipeline.solve_coarse(config, coarse, 4.5, fine=fine)
    assert np.array_equal(got.values, want.values)


def test_trace_hooks_on_the_reaction_diffusion_offline(monkeypatch):
    # the rd workload's spans: every Newton step of every fine training run
    # is one span, and every linear solve inside it counts its iterations;
    # every explicit step of every coarse run is one span, and each run is
    # reached through the pipeline's two solve functions
    one_cpu(monkeypatch)
    config = StudyConfig.from_text("problem = brusselator\n"
                                   "t0 = 0.0\n"
                                   "T = 0.5\n"
                                   "train_a = 2.0,3.0\n"
                                   "train_b = 1.0,2.0\n"
                                   "train_alpha = 0.002\n"
                                   "fine_nx = 6\n"
                                   "coarse_nx = 3\n"
                                   "fine_steps = 4\n"
                                   "coarse_steps = 2\n"
                                   "rb_algorithm = pod\n"
                                   "n_max = 3\n")
    tracer = tracer_module.Tracer().install()
    try:
        pipeline.offline(config, persist=False)
    finally:
        tracer.uninstall()
    assert tracer.hook_errors == {}
    assert tracer.absent == RETIRED
    counts = {}
    for span in tracer.spans:
        counts.setdefault(span.name, []).append(span.counts)
    assert counts["linalg.bicgstab"]
    assert all(c["iters"] > 0 for c in counts["linalg.bicgstab"])
    runs = len(config.training_parameters())
    assert runs == 4
    assert len(counts["integrators.newton"]) == runs * config.fine_steps
    assert len(counts.get("integrators.rk2", ())) \
        == runs * config.coarse_steps
    assert len(counts["pipeline.solve_fine"]) == runs
    assert len(counts["pipeline.solve_coarse"]) == runs


@pytest.mark.parametrize("name", sorted(
    path.name for path in (BENCHMARKS / "configs").glob("*.cfg")))
def test_pinned_config_loads_with_its_basis(name, caplog):
    # the pinned configs still set the retired keys: they load, keep their
    # mode budget, warn once, and write text without them
    with caplog.at_level("WARNING", logger="nirb.config"):
        config = load_config(BENCHMARKS / "configs" / name)
    assert config.n_max == PINNED_BASES[name]
    assert len(caplog.records) == 1
    assert all(key in caplog.records[0].getMessage() for key in RETIRED_KEYS)
    caplog.clear()
    text = config.to_text()
    assert not any(line.split(" = ")[0] in RETIRED_KEYS
                   for line in text.splitlines())
    with caplog.at_level("WARNING", logger="nirb.config"):
        assert StudyConfig.from_text(text) == config
    assert not caplog.records


def test_retired_keys_warn_once_per_parse_and_set_nothing(caplog):
    text = ("greedy_tol = 0.5\nh1_reorthonormalize = false\n"
            "rb_algorithm = pod_greedy\npod_tol = 1e-6\n")
    with caplog.at_level("WARNING", logger="nirb.config"):
        for _ in range(2):
            assert StudyConfig.from_text(text) == StudyConfig()
    assert [r.getMessage() for r in caplog.records] \
        == ["ignoring retired configuration keys: greedy_tol, "
            "h1_reorthonormalize, rb_algorithm, pod_tol"] * 2


def test_every_retired_key_is_still_set_by_a_pinned_config():
    # the retired keys are parsed only because the pinned configs carry
    # them: once no pinned config sets a key, the key should go
    keys = set()
    for path in (BENCHMARKS / "configs").glob("*.cfg"):
        for line in path.read_text(encoding="utf-8").splitlines():
            keys.add(line.split("#", 1)[0].partition("=")[0].strip())
    assert set(RETIRED_KEYS) <= keys
