"""The names the benchmark harness reaches in ``nirb``.

The benchmark's tracer skips a missing target and counts it as absent
instead of failing, so a deletion or rename inside ``nirb`` would only show
as a changed ``trace.absent``; these tests make it fail here instead."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from nirb import pipeline
from nirb.config import StudyConfig

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def _load_tracer():
    # dataclasses resolve their module through sys.modules while the
    # module body runs, so register it before executing it
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer_module = _load_tracer()

# targets the tracer still names but the program no longer has: the heat
# solves need no CG since the Ritz start uses the band factor
RETIRED = ["nirb.linalg.cg_solve"]


@pytest.mark.parametrize("target", tracer_module.TARGETS,
                         ids=lambda t: f"{t.module}.{t.attr}")
def test_trace_target_resolves(target):
    module = importlib.import_module(target.module)
    found = callable(getattr(module, target.attr, None))
    assert found == (f"{target.module}.{target.attr}" not in RETIRED)


def test_trace_hooks_read_the_traced_arguments(small_heat_text):
    # the hooks read arguments by name (A, G, grid); a renamed argument
    # would only show as a hook error in a traced benchmark run
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


def test_trace_hooks_on_the_reaction_diffusion_offline():
    # the rd workload's spans: every Newton step of every fine training run
    # is one span, and every linear solve inside it counts its iterations
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
