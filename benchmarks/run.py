"""Benchmark of the two-grid reduced-basis pipeline.

    python3 benchmarks/run.py --workload heat --seed 1 --seconds 5 --trace 0

Runs one pinned workload (``heat``, ``rd`` or ``heat-loo``; ``all`` runs the
three in turn, each in a fresh process) as a single closed-loop client and
checks its outputs.  With ``--trace 0`` it reports the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it wraps the public functions of the
``nirb`` modules and reports the per-layer metrics instead.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  A full record (environment, config hash,
details, failures) goes to ``.bench_out/`` and traced spans beside it.

The program is imported from ``src/`` of the checkout this file sits in; no
thread or BLAS variable is set, so the program runs at its defaults.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
THREAD_VARS = ("NIRB_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
SETUP_REPEATS = 5
SETUP_CHILD = """
import sys, time
t = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import nirb
config = nirb.StudyConfig.from_text(sys.stdin.read())
nirb.discretize(config)
wall = time.perf_counter() - t
sys.path.insert(0, sys.argv[2])
import hostspeed
print(wall, hostspeed.slowdown(runs=5))
"""


def git_commit(root):
    """Commit of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_slowdown(samples=21):
    """Median slowdown of the host against the reference speed."""
    import hostspeed

    return statistics.median(hostspeed.slowdown() for _ in range(samples))


def environment():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version",
                                         "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(ROOT),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "loadavg": os.getloadavg(),
    }


def setup_seconds(config_text):
    """Import, config parse and ``discretize`` in a fresh interpreter:
    medians over ``SETUP_REPEATS`` of the seconds at reference speed and
    of the wall seconds."""
    scaled, wall = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(ROOT / "src"), str(HERE)],
            input=config_text, capture_output=True, text=True, check=True,
            timeout=120)
        seconds, factor = map(float, done.stdout.split()[-2:])
        scaled.append(seconds / factor)
        wall.append(seconds)
    return statistics.median(scaled), statistics.median(wall)


def metric_specs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["end_to_end"], spec["per_layer"]


def run_one(args):
    from client import (MIN_QUERIES, PHASES, run_session, sampled_metrics,
                        trace_overhead)
    from hostspeed import CoreSamplers
    from tracer import Tracer, layer_metrics
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    end_to_end, per_layer = metric_specs()
    record = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "config_sha256": workload.config_hash(), "env": environment(),
              "slowdown_start": host_slowdown()}
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=ROOT / ".bench_tmp")
    tracer = Tracer() if args.trace else None
    try:
        if tracer is not None:
            overhead = trace_overhead(workload, tracer)
            session = run_session(workload, args.seed, args.seconds, workdir,
                                  tracer=tracer, queries=MIN_QUERIES)
        else:
            setup, setup_wall = setup_seconds(workload.config_text())
            with CoreSamplers() as samplers:
                session = run_session(workload, args.seed, args.seconds,
                                      workdir, quiet=samplers.paused)
            sampled_metrics(session, samplers)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is not None:
        values = layer_metrics(tracer, ("-",) + PHASES)
        offline = layer_metrics(tracer, ("offline",))
        for key in ("linalg.cg.calls", "linalg.cg.iters",
                    "pipeline.presolve.calls", "linalg.bicgstab.iters",
                    "linalg.sym_eig.calls"):
            values["offline." + key] = offline[key]
        for key in ("pipeline.online.coarse_ms_p50",
                    "pipeline.online.reconstruct_ms_p50",
                    "reduced_basis.N", "io.artifact_bytes"):
            values[key] = session.details[key]
        values["trace.overhead"] = overhead
        specs = per_layer
        record["absent_targets"] = tracer.absent
        record["hook_errors"] = tracer.hook_errors
        record["phases"] = {
            p: {k: v for k, v in layer_metrics(tracer, (p,)).items()
                if not k.endswith("_s") and not k.endswith(".s")}
            for p in PHASES}
    else:
        values = dict(session.metrics, setup_s=setup)
        session.details["setup_wall_s"] = setup_wall
        specs = end_to_end

    names = [s["name"] for s in specs]
    if sorted(values) != sorted(names):
        raise RuntimeError(f"measured metrics {sorted(values)} do not match "
                           f"BENCHMARK.json {sorted(names)}")
    finite = all(math.isfinite(values[n]) for n in names)
    metrics = {s["name"]: {"value": values[s["name"]]
                           if math.isfinite(values[s["name"]]) else None,
                           "unit": s["unit"]} for s in specs}
    failed = len(session.failures)
    result = {"correct": failed == 0 and finite,
              "attempted": session.attempted, "failed": failed,
              "metrics": metrics}
    record.update(details=session.details, failures=session.failures,
                  slowdown_end=host_slowdown(), result=result)

    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (out / f"{stem}.json").write_text(json.dumps(record, indent=1,
                                                 default=str))
    if tracer is not None:
        tracer.dump(out / f"{stem}.spans.json")

    print_report(record, specs, values)
    return 0 if result["correct"] else 1


def print_report(record, specs, values):
    """Human-readable lines, then the result as the last line."""
    print(f"workload {record['workload']}  seed {record['seed']}  seconds "
          f"{record['seconds']}  trace {record['trace']}")
    print(f"config sha256 {record['config_sha256']}")
    print("env " + json.dumps(record["env"], default=str))
    print(f"host slowdown {record['slowdown_start']:.3f} -> "
          f"{record['slowdown_end']:.3f}")
    for s in specs:
        print(f"  {s['name']:<40} {values[s['name']]:>14.6g} {s['unit']}")
    for key, value in record["details"].items():
        print(f"  ({key} {value:.6g})")
    if "phases" in record:
        print("absent targets: "
              + (", ".join(record["absent_targets"]) or "none"))
        for phase, counts in record["phases"].items():
            shown = {k: v for k, v in counts.items() if v}
            print(f"  phase {phase}: " + json.dumps(shown))
    for failure in record["failures"]:
        print("FAILED " + failure)
    print(json.dumps(record["result"]))


def run_all(args):
    """Each workload in a fresh process; prints every end-to-end metric side
    by side and, last, one JSON object keyed by workload."""
    from workloads import WORKLOADS

    results, code = {}, 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        code = code or done.returncode
        lines = done.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if lines else None
    names = list(results)
    print(f"{'metric':<40}" + "".join(f"{n:>14}" for n in names))
    keys = sorted({k for r in results.values() if r for k in r["metrics"]})
    for key in keys:
        cells = []
        for n in names:
            v = (results[n] or {}).get("metrics", {}).get(key, {})
            cells.append(f"{v.get('value', float('nan')):>14.6g}")
        print(f"{key:<40}" + "".join(cells))
    print(json.dumps(results))
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("heat", "rd", "heat-loo", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nirb" / "__init__.py").is_file():
        print(f"program source not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
