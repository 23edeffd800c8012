"""Command-line front end: offline/online stages, error tables, leave-one-out
studies, and mesh-ladder convergence runs, all driven by one config file."""

from __future__ import annotations

import argparse
import os
import sys

from nirb import io, models, pipeline
from nirb.config import load_config


class CliError(Exception):
    """Failure with a stable slug for the machine-readable error line."""

    def __init__(self, slug, message):
        super().__init__(message)
        self.slug = slug


def _fail(slug, message):
    print(f"nirb: error [{slug}] {message}", file=sys.stderr)
    return 1


def _read_config(path):
    try:
        return load_config(path)
    except OSError as exc:
        raise CliError("bad-config", f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:
        raise CliError("bad-config", f"bad config {path}: {exc}") from exc


def _parse_param(config, text):
    """The query parameter of ``--mu``: a float for one value, a tuple for
    several; ``pipeline.check_bounds`` judges its form."""
    if text is None:
        return config.test_parameter()
    parts = [p.strip() for p in text.split(",") if p.strip()]
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise CliError("bad-parameter", f"cannot parse parameter {text!r}") from exc
    return values[0] if len(values) == 1 else tuple(values)


def _load(path):
    """The study config of the artifacts that the config file at ``path``
    locates, the artifacts, and the file's output directory: the file only
    locates the artifacts, and every study value is read from the config
    saved with them."""
    located = _read_config(path)
    artifacts = pipeline.load_artifacts(located)
    return artifacts.config, artifacts, _outdir(located)


def _outdir(config):
    os.makedirs(config.output_dir, exist_ok=True)
    return config.output_dir


def _spectrum_line(spectrum, n):
    """The kept and the first dropped singular value of the basis's POD,
    relative to the largest."""
    kept = f"sigma_{n}/sigma_1 = {spectrum[n - 1] / spectrum[0]:.3e}"
    if len(spectrum) == n:
        return f"spectrum: {kept}, nothing dropped"
    return (f"spectrum: {kept}, first dropped sigma_{n + 1}/sigma_1 = "
            f"{spectrum[n] / spectrum[0]:.3e}")


def cmd_offline(args):
    config = _read_config(args.config)
    artifacts = pipeline.offline(config, persist=True)
    path = os.path.join(config.output_dir, pipeline.ARTIFACT_FILE)
    n = artifacts.basis.N
    print(f"offline complete: {n} modes from "
          f"{len(config.training_parameters())} training parameters")
    print(_spectrum_line(artifacts.basis.provenance["spectrum"], n))
    print(f"artifacts written to {path}")
    return 0


def cmd_online(args):
    config, artifacts, outdir = _load(args.config)
    param = _parse_param(config, args.mu)
    mode = "plain" if args.plain else "rectified"
    try:
        result = pipeline.online(artifacts, param, mode=mode)
    except ValueError as exc:
        raise CliError("bad-parameter", str(exc)) from exc

    problem = models.problem_of(config)
    tag = problem.tag(result.parameter)
    traj_path = os.path.join(outdir, f"online_{mode}_{tag}.traj")
    io.save_trajectory(traj_path, result.trajectory)
    print(f"online {mode} at {problem.label(result.parameter)}: "
          f"coarse solve {result.seconds_coarse:.3f}s, "
          f"reconstruction {result.seconds_reconstruct:.3f}s")
    print(f"trajectory written to {traj_path}")

    reference = pipeline.analytic_reference(config, result.parameter)
    if reference is not None:
        report = pipeline.evaluate_errors(result.trajectory, reference,
                                          artifacts.fine.forms)
        rows = [["t", "err_l2", f"err_{report.energy_norm}"]]
        times = result.trajectory.grid.times()
        for k, t in enumerate(times):
            rows.append([t, report.l2_curve[k], report.energy_curve[k]])
        csv_path = os.path.join(outdir, f"online_{mode}_{tag}_errors.csv")
        io.write_csv(csv_path, rows)
        print(f"relative errors vs closed form: L2 {report.rel_l2:.6e}, "
              f"{report.energy_norm} {report.rel_energy:.6e}")
        print(f"error table written to {csv_path}")
    else:
        print("no closed-form reference at this parameter; "
              "use the errors command for a fine-solve comparison")
    return 0


def cmd_errors(args):
    config, artifacts, outdir = _load(args.config)
    param = _parse_param(config, args.mu)
    try:
        key = pipeline.check_bounds(config, param)
    except ValueError as exc:
        raise CliError("bad-parameter", str(exc)) from exc
    reports = pipeline.two_grid_errors(artifacts, key)

    energy = reports["coarse"].energy_norm
    rows = [["t"] + [f"err_{m}_{n}" for m in reports for n in ("l2", energy)]]
    for k, t in enumerate(artifacts.fine.grid.times()):
        rows.append([t] + [curve[k] for r in reports.values()
                           for curve in (r.l2_curve, r.energy_curve)])
    tag = models.problem_of(config).tag(key)
    csv_path = os.path.join(outdir, f"errors_{tag}.csv")
    io.write_csv(csv_path, rows)
    for m, r in reports.items():
        print(f"{m}: relative L2 {r.rel_l2:.6e}, "
              f"{energy} {r.rel_energy:.6e}")
    print(f"error curves written to {csv_path}")
    return 0


def cmd_loo(args):
    config = _read_config(args.config)
    report = pipeline.leave_one_out(config)
    outdir = _outdir(config)
    csv_path = os.path.join(outdir, "loo.csv")
    io.write_csv(csv_path, report.csv_rows())
    print(f"leave-one-out over {len(report.rows)} parameters "
          f"({report.energy_norm} norm):")
    print(f"  max rectified error  {report.max_rectified:.6e}")
    print(f"  max projection error {report.max_projection:.6e}")
    print(f"  max coarse error     {report.max_coarse:.6e}")
    print("  stage seconds: " + ", ".join(
        f"{stage} {s:.3f}" for stage, s in report.seconds.items()))
    print(f"table written to {csv_path}")
    return 0


def cmd_study(args):
    config = _read_config(args.config)
    report = pipeline.convergence_study(config, args.coupling)
    outdir = _outdir(config)
    csv_path = os.path.join(outdir, f"study_{args.coupling}.csv")
    io.write_csv(csv_path, report.csv_rows())
    print(f"convergence study, coupling {args.coupling}, "
          f"levels {list(config.study_levels)}:")
    for m in pipeline.METHODS:
        print(f"  {m}: {report.energy_norm} slope "
              f"{report.slopes[m, 'energy']:.3f}, "
              f"L2 slope {report.slopes[m, 'l2']:.3f}")
    print(f"table written to {csv_path}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nirb",
        description="Two-grid reduced-basis solver for parabolic problems.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("offline", help="compute snapshots, basis, and "
                                       "rectification maps")
    p.add_argument("config")
    p.set_defaults(handler=cmd_offline)

    p = sub.add_parser("online", help="cheap solve at one parameter using "
                                      "stored artifacts")
    p.add_argument("config")
    forms = "; ".join(f"{name}: {problem.form}"
                      for name, problem in models.PROBLEMS.items())
    p.add_argument("--mu", help=f"parameter value, comma-separated ({forms})")
    p.add_argument("--plain", action="store_true",
                   help="skip the rectification maps")
    p.set_defaults(handler=cmd_online)

    p = sub.add_parser("errors", help="error curves of every method against "
                                      "the fine solve")
    p.add_argument("config")
    p.add_argument("--mu")
    p.set_defaults(handler=cmd_errors)

    p = sub.add_parser("loo", help="leave-one-out error table over the "
                                   "training set")
    p.add_argument("config")
    p.set_defaults(handler=cmd_loo)

    p = sub.add_parser("study", help="mesh-ladder convergence study")
    p.add_argument("config")
    p.add_argument("--coupling", choices=("2h", "sqrt"), default="2h")
    p.set_defaults(handler=cmd_study)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except CliError as exc:
        return _fail(exc.slug, exc)
    except io.ArtifactError as exc:
        return _fail(exc.slug, exc)
    except RuntimeError as exc:
        return _fail("solver-failure", exc)
    except ValueError as exc:
        return _fail("invalid-input", exc)


if __name__ == "__main__":
    sys.exit(main())
