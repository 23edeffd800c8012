"""Fast self-check of the benchmark harness.

    python3 benchmarks/selfcheck.py

Runs the traced client session of every workload twice with the same seed
on 8x8 fine and 4x4 coarse meshes.  Each session must pass its output
checks, every trace target must exist, the counters that show each
workload's layers must be nonzero, and the exact counters (Krylov
iterations, presolves, eigensolves) must repeat exactly between the runs.
Exits non-zero on the first violation.
"""

from __future__ import annotations

import dataclasses
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from client import PHASES, run_session  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMALL = "fine_nx = 8\ncoarse_nx = 4\n"
QUERIES = 20
SEED = 7
EXACT = ("linalg.cg.calls", "linalg.cg.iters", "linalg.bicgstab.calls",
         "linalg.bicgstab.iters", "integrators.newton.iters",
         "pipeline.presolve.calls", "linalg.sym_eig.calls",
         "linalg.sym_eig.max_n", "fem.load_vector.calls")
# counters that must be nonzero, per workload: the layers it exists to load
EXPECTED = {
    "heat": ("linalg.cg.iters", "pipeline.presolve.calls"),
    "rd": ("linalg.bicgstab.iters", "integrators.newton.iters",
           "linalg.sym_eig.calls"),
    "heat-loo": ("linalg.cg.iters", "linalg.sym_eig.calls",
                 "rectification.fit.calls"),
}


def traced_counts(workload):
    tracer = Tracer()
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=ROOT / ".bench_tmp")
    try:
        tracer.install()
        session = run_session(workload, SEED, 0, workdir, tracer=tracer,
                              queries=QUERIES)
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    if session.failures:
        raise AssertionError(f"{workload.name}: {session.failures}")
    if tracer.absent or tracer.hook_errors:
        raise AssertionError(f"{workload.name}: absent {tracer.absent}, "
                             f"hook errors {tracer.hook_errors}")
    return layer_metrics(tracer, PHASES)


def main():
    for name, workload in WORKLOADS.items():
        small = dataclasses.replace(workload, extra_config=SMALL)
        first, second = traced_counts(small), traced_counts(small)
        zero = [k for k in EXPECTED[name] if not first[k]]
        if zero:
            raise AssertionError(f"{name}: counters are zero: {zero}")
        differ = {k: (first[k], second[k]) for k in EXACT
                  if first[k] != second[k]}
        if differ:
            raise AssertionError(f"{name}: counters differ between runs "
                                 f"with seed {SEED}: {differ}")
        print(f"{name}: ok " + ", ".join(f"{k}={first[k]}" for k in EXACT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
