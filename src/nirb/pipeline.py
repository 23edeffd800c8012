"""Two-grid reduced-order pipeline: offline snapshot/basis/rectification
construction, the cheap online stage, error evaluation, leave-one-out tables,
and mesh-ladder convergence studies."""

from __future__ import annotations

import logging
import math
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from nirb import io, models
from nirb.fem import assemble, difference_norms, norms
from nirb.integrators import (FieldTrajectory, TimeGrid, brusselator_trajectory,
                              heat_backward_euler, heat_crank_nicolson)
from nirb.mesh import build_structured
from nirb.rectification import (apply_rectification, build_rectification,
                                coarse_to_fine_coefficients, lift_coarse,
                                lift_projection)
from nirb.reduced_basis import (coefficients, greedy, h1_reorthogonalize,
                                hierarchical_pod, pod_greedy, reconstruct)
from nirb.time_interp import quadratic_weights

log = logging.getLogger(__name__)

ARTIFACT_FILE = "artifacts.nirb"


@dataclass
class Discretization:
    """One mesh with its assembled forms and time grid."""

    mesh: object
    forms: object
    grid: TimeGrid


def discretize(config):
    """Build the fine and coarse discretizations of a study: the only code
    that builds meshes, grids and forms and picks the boundary condition."""
    bc = "dirichlet_zero" if config.problem == "heat" else "neumann_natural"
    out = []
    for which in ("fine", "coarse"):
        nx, ny = config.mesh_counts(which)
        mesh = build_structured(nx, ny, domain=tuple(config.domain))
        steps = config.fine_steps if which == "fine" else config.coarse_steps
        grid = TimeGrid(config.t0, config.T, steps)
        out.append(Discretization(mesh=mesh, forms=assemble(mesh, bc), grid=grid))
    return out[0], out[1]


def solve_fine(config, disc, param):
    """High-fidelity trajectory at one parameter (heat: implicit Euler from
    rest at t = 0, the march's lead-in covering [0, t0] with the window's
    step; reaction-diffusion: Newton implicit Euler)."""
    if config.problem == "heat":
        return heat_backward_euler(disc.forms, float(param),
                                   models.manufactured_f,
                                   np.zeros(disc.mesh.n_nodes), disc.grid,
                                   cg_tol=config.cg_tol, t_start=0.0)
    prob = models.BrusselatorProblem(*param)
    return brusselator_trajectory(disc.forms, tuple(param),
                                  prob.initial_state(disc.mesh), disc.grid,
                                  scheme="newton", newton_tol=config.newton_tol)


def solve_coarse(config, disc, param, fine=None):
    """Cheap trajectory at one parameter on the coarse discretization alone
    (heat: Crank-Nicolson from rest at t = 0 like the fine run, led in to t0
    by half steps, marched as diagonal recurrences in the eigenvectors of
    the coarse pencil, which the first heat run on ``disc`` computes and
    later runs reuse, and returned as an ``integrators.ModalTrajectory``
    whose nodal values are formed only when read; reaction-diffusion:
    explicit midpoint on the lumped system).  Training and online runs
    start the same way at every parameter, so the rectification is fitted
    on the same kind of coarse run it is applied to.

    ``fine`` is ignored; it is accepted for callers that still pass it."""
    if config.problem == "heat":
        return heat_crank_nicolson(disc.forms, float(param),
                                   models.manufactured_f,
                                   np.zeros(disc.mesh.n_nodes), disc.grid,
                                   cg_tol=config.cg_tol, t_start=0.0)
    prob = models.BrusselatorProblem(*param)
    return brusselator_trajectory(disc.forms, tuple(param),
                                  prob.initial_state(disc.mesh), disc.grid,
                                  scheme="rk2")


def _training_runs(config, params):
    """Discretizations and training trajectories: returns (fine, coarse,
    fine_trajs, coarse_trajs), the runs as dicts in parameter order.

    The cheap coarse sweep runs first, so a coarse failure shows before any
    fine solve."""
    fine, coarse = discretize(config)
    runs = {}
    for name, solve, disc in (("coarse", solve_coarse, coarse),
                              ("fine", solve_fine, fine)):
        runs[name] = out = {}
        for p in params:
            try:
                out[p] = solve(config, disc, p)
            except (RuntimeError, ValueError) as exc:
                raise RuntimeError(
                    f"{name} solve failed at parameter {p}: {exc}") from exc
    return fine, coarse, runs["fine"], runs["coarse"]


def build_basis(config, trajectories, forms):
    """Run the configured selection loop and optional H1 rotation."""
    if config.rb_algorithm == "pod_greedy":
        basis = pod_greedy(trajectories, forms, config.n_max,
                           pod_tol=config.pod_tol)
    elif config.rb_algorithm == "pod":
        basis = hierarchical_pod(trajectories, forms, config.n_max)
    else:
        basis = greedy(trajectories, forms, config.greedy_tol, config.n_max)
    if basis.N == 0:
        raise RuntimeError("basis construction produced no modes")
    if config.h1_reorthonormalize:
        basis = h1_reorthogonalize(basis, forms)
    return basis


@dataclass
class OfflineArtifacts:
    """Everything the online stage needs: the study config, the reduced
    basis, the rectification maps, the fine and coarse discretizations, the
    lift-projection operator ``lift`` (Phi of
    ``rectification.lift_projection``, shape (n_fields * n_coarse, N)) and
    the time weights ``time_weights`` (W of
    ``time_interp.quadratic_weights`` from the coarse grid to the fine one,
    shape (fine steps + 1, coarse steps + 1)).

    The discretizations are what ``discretize(config)`` builds.  Only the
    config, the basis and the maps are persisted; loading rebuilds the
    discretizations from the config and derives ``lift`` and
    ``time_weights`` again, as ``fit`` does."""

    config: object
    basis: object
    tensor: object
    fine: Discretization
    coarse: Discretization
    lift: np.ndarray
    time_weights: np.ndarray

    @property
    def fine_mesh(self):
        return self.fine.mesh

    def context(self):
        """The discretizations, as an object with ``.fine`` and ``.coarse``."""
        return self

    def validate(self):
        want = (self.fine.grid.steps + 1, self.basis.N, self.basis.N)
        got = (np.shape(self.tensor.matrices), np.shape(self.tensor.deltas))
        if got != (want, want[:1]):
            raise ValueError(f"rectification maps and deltas of shapes {got}, "
                             f"expected one map per fine time knot: {want} "
                             f"and {want[:1]}")
        want = (self.basis.n_fields * self.coarse.mesh.n_nodes, self.basis.N)
        if np.shape(self.lift) != want:
            raise ValueError(f"lift-projection operator of shape "
                             f"{np.shape(self.lift)}, expected {want} for "
                             f"the coarse mesh")
        want = (self.fine.grid.steps + 1, self.coarse.grid.steps + 1)
        if np.shape(self.time_weights) != want:
            raise ValueError(f"time weights of shape "
                             f"{np.shape(self.time_weights)}, expected {want} "
                             f"for the fine and coarse grids")
        return self


def fit(config, fine_trajs, coarse_trajs, fine, coarse):
    """The validated artifacts fitted on matched training runs: the basis,
    its lift-projection operator for the coarse mesh and the time weights
    from the coarse grid to the fine one, built here once, and the
    rectification maps fitted with them."""
    basis = build_basis(config, fine_trajs, fine.forms)
    log.info("basis built: N=%d from %d training parameters", basis.N,
             len(fine_trajs))
    lift = lift_projection(basis, fine.forms, coarse.mesh)
    weights = quadratic_weights(coarse.grid, fine.grid)
    tensor = build_rectification(fine_trajs, coarse_trajs, basis, fine.forms,
                                 lift, weights, config.delta_mode,
                                 config.delta_value)
    return OfflineArtifacts(config=config, basis=basis, tensor=tensor,
                            fine=fine, coarse=coarse, lift=lift,
                            time_weights=weights).validate()


def offline(config, persist=True):
    """Offline stage: fine snapshots, coarse snapshots, basis, rectification.

    With persist=True the artifact file lands in config.output_dir."""
    config.validate()
    params = config.training_parameters()
    if not params:
        raise ValueError("empty training set")
    fine, coarse, fine_trajs, coarse_trajs = _training_runs(config, params)
    artifacts = fit(config, fine_trajs, coarse_trajs, fine, coarse)
    if persist:
        os.makedirs(config.output_dir, exist_ok=True)
        io.save_artifacts(os.path.join(config.output_dir, ARTIFACT_FILE),
                          artifacts)
    return artifacts


def load_artifacts(config):
    """Load the persisted artifacts of a study from its output directory."""
    return io.load_artifacts(os.path.join(config.output_dir, ARTIFACT_FILE))


@dataclass
class OnlineResult:
    """Online trajectory with its coefficients and the wall-clock split:
    ``seconds_coarse`` covers the bounds check and the coarse solve (for
    heat the modal march and its step check, with no nodal coarse state
    formed), or only the mesh and grid checks of a precomputed coarse run;
    ``seconds_reconstruct`` covers the rest: the coefficients read off the
    coarse run (for heat one product of the lift-projection operator with
    V), the time interpolation, the rectification and the fine
    reconstruction."""

    parameter: object
    mode: str
    trajectory: FieldTrajectory
    coefficients: np.ndarray
    seconds_coarse: float
    seconds_reconstruct: float


def param_key(config, param):
    if config.problem == "heat":
        return float(param)
    a, b, alpha = param
    return (float(a), float(b), float(alpha))


def check_bounds(config, param):
    """The key of a query parameter; one outside the configured bounds
    raises ``ValueError`` under ``strict_bounds`` and is logged otherwise."""
    key = param_key(config, param)
    if not config.parameter_in_bounds(key):
        message = f"parameter {key} is outside the configured bounds"
        if config.strict_bounds:
            raise ValueError(message)
        log.warning(message)
    return key


def _mesh_label(m):
    return f"{m.nx}x{m.ny} mesh on {tuple(float(v) for v in m.domain)}"


def online(artifacts, param, mode="rectified", coarse_traj=None):
    """Online stage at one parameter: coarse solve, one product with the
    artifacts' lift-projection operator (the space lift and the projection
    onto the modes in one, read off the modal states of a heat run without
    its nodal values), time interpolation of the N coefficients, optional
    rectification, reconstruction.  Nothing but the reconstruction touches
    the fine mesh.

    A precomputed coarse trajectory short-circuits the solve (its wall-clock
    share then covers only its mesh and grid checks) and the bounds check,
    which belongs to the caller that ran that coarse solve; so a command
    that checks its parameter once and reuses the coarse run warns once.
    Its mesh and time grid must be the artifacts' coarse ones."""
    if mode not in ("plain", "rectified"):
        raise ValueError(f"unknown online mode {mode!r}")
    config = artifacts.config

    fine = artifacts.fine
    t_start = time.perf_counter()
    if coarse_traj is None:
        key = check_bounds(config, param)
        coarse_traj = solve_coarse(config, artifacts.coarse, key)
    else:
        key = param_key(config, param)
        got, want = (_mesh_label(m) for m in (coarse_traj.mesh,
                                              artifacts.coarse.mesh))
        if got != want:
            raise ValueError(f"coarse trajectory on the {got}, expected the "
                             f"coarse {want}")
        if coarse_traj.grid != artifacts.coarse.grid:
            raise ValueError(f"coarse trajectory on {coarse_traj.grid}, "
                             f"expected the coarse grid "
                             f"{artifacts.coarse.grid}")
    seconds_coarse = time.perf_counter() - t_start

    t_start = time.perf_counter()
    coeffs = coarse_to_fine_coefficients(coarse_traj, artifacts.lift,
                                         artifacts.time_weights)
    if mode == "rectified":
        coeffs = apply_rectification(artifacts.tensor, coeffs)
    values = reconstruct(artifacts.basis, coeffs)
    trajectory = FieldTrajectory(mesh=fine.mesh, grid=fine.grid, values=values,
                                 parameter=key)
    seconds_reconstruct = time.perf_counter() - t_start
    log.info("online %s at %s: coarse solve %.3fs, reconstruction %.3fs",
             mode, key, seconds_coarse, seconds_reconstruct)
    return OnlineResult(parameter=key, mode=mode, trajectory=trajectory,
                        coefficients=coeffs, seconds_coarse=seconds_coarse,
                        seconds_reconstruct=seconds_reconstruct)


@dataclass
class ErrorReport:
    """Relative sup-in-time errors plus the per-knot absolute curves.

    The energy norm is the H1 seminorm for Dirichlet problems and the full
    H1 norm for Neumann ones; multi-component fields combine their species
    in quadrature."""

    parameter: object
    energy_norm: str
    rel_l2: float
    rel_energy: float
    l2_curve: np.ndarray
    energy_curve: np.ndarray


@dataclass(frozen=True)
class AnalyticReference:
    """Closed-form reference u(t, x, y) with its gradient grad(t, x, y).

    Error norms integrate the continuous difference by the midpoint rule;
    sampling the reference at the nodes would measure the superconvergent
    distance to the interpolant instead of the O(h) energy error."""

    u: object
    grad: object


def energy_norm(forms):
    """Name of the energy norm of a form set: 'h10' (the H1 seminorm) under
    Dirichlet conditions, 'h1' (the full H1 norm) under Neumann ones."""
    return "h10" if forms.bc == "dirichlet_zero" else "h1"


def _norm_curves(forms, values, energy):
    """Per-knot (L2, energy) curves of stacked fields, species combined in
    quadrature."""
    values = np.asarray(values, dtype=float)
    l2, h1 = norms(forms, values.reshape(values.shape[:-1]
                                         + (-1, forms.n_dofs)))
    en = np.sqrt(l2 ** 2 + h1 ** 2) if energy == "h1" else h1
    return np.sqrt((l2 ** 2).sum(-1)), np.sqrt((en ** 2).sum(-1))


def _rel(err_sup, ref_sup):
    if ref_sup > 0.0:
        return err_sup / ref_sup
    return 0.0 if err_sup == 0.0 else math.inf


def _check_comparable(candidate, reference):
    got, want = (_mesh_label(c.mesh) for c in (candidate, reference))
    if got != want:
        raise ValueError(f"candidate on the {got}, reference on the {want}")
    if (reference.grid.steps != candidate.grid.steps
            or abs(reference.grid.t0 - candidate.grid.t0) > 1e-12
            or abs(reference.grid.T - candidate.grid.T) > 1e-12):
        raise ValueError("candidate and reference time grids differ")
    if reference.n_fields != candidate.n_fields:
        raise ValueError("candidate and reference field counts differ")


def _analytic_curves(forms, candidates, reference, energy):
    """Per-knot (error L2, error energy, reference L2, reference energy)
    curves of single-field candidates on one grid against a closed form,
    keyed like ``candidates``: one ``difference_norms`` call for all of
    them, so the closed form is evaluated once per knot."""
    runs = list(candidates.values())
    if any(c.n_fields != 1 for c in runs):
        raise ValueError("analytic references support single fields only")
    for c in runs[1:]:
        _check_comparable(c, runs[0])
    err_l2, err_h1, ref_l2, ref_h1 = difference_norms(
        forms, np.stack([c.values for c in runs]), reference.u,
        reference.grad, runs[0].grid.times())
    if energy == "h1":
        err_h1 = np.sqrt(err_l2 ** 2 + err_h1 ** 2)
        ref_h1 = np.sqrt(ref_l2 ** 2 + ref_h1 ** 2)
    return {name: (err_l2[i], err_h1[i], ref_l2, ref_h1)
            for i, name in enumerate(candidates)}


def compare(candidates, reference, forms):
    """Relative sup-in-time errors of named candidate trajectories against
    one reference: {name: ErrorReport}.

    The reference is another trajectory on the candidates' mesh and grid,
    whose norm curves are taken once for all candidates, or an
    ``AnalyticReference`` (single-component candidates on one grid only),
    evaluated once per knot for all candidates.  Relative errors divide the
    sup-in-time error by the sup-in-time reference norm, so a uniformly
    scaled candidate c = (1+s) u reports s exactly in every norm."""
    energy = energy_norm(forms)
    if isinstance(reference, AnalyticReference):
        ref_param = "analytic"
        curves = _analytic_curves(forms, candidates, reference, energy)
    else:
        ref_param = reference.parameter
        for c in candidates.values():
            _check_comparable(c, reference)
        ref = _norm_curves(forms, reference.values, energy)
        curves = {name: _norm_curves(forms, c.values - reference.values,
                                     energy) + ref
                  for name, c in candidates.items()}
    reports = {}
    for name, (err_l2, err_en, ref_l2, ref_en) in curves.items():
        parameter = candidates[name].parameter
        reports[name] = ErrorReport(
            parameter=ref_param if parameter is None else parameter,
            energy_norm=energy,
            rel_l2=_rel(err_l2.max(), ref_l2.max()),
            rel_energy=_rel(err_en.max(), ref_en.max()),
            l2_curve=err_l2, energy_curve=err_en)
    return reports


def evaluate_errors(candidate, reference, forms):
    """The ``ErrorReport`` of one candidate: ``compare`` with a single
    candidate."""
    return compare({"candidate": candidate}, reference, forms)["candidate"]


def analytic_reference(config, key):
    """The closed-form solution as an error reference where it applies (the
    heat problem at mu = 1), otherwise None."""
    if config.problem == "heat" and float(key) == 1.0:
        return AnalyticReference(models.manufactured_u, models.manufactured_grad)
    return None


def two_grid_runs(artifacts, key):
    """The three fine-grid runs made from one coarse solve at the parameter
    key ``key``: the lifted coarse run ('coarse'), and the plain ('nirb')
    and rectified ('rect') online runs."""
    fine = artifacts.fine
    coarse_traj = solve_coarse(artifacts.config, artifacts.coarse, key)
    runs = {"coarse": lift_coarse(coarse_traj, fine.mesh, fine.grid)}
    for mode, name in (("plain", "nirb"), ("rectified", "rect")):
        runs[name] = online(artifacts, key, mode=mode,
                            coarse_traj=coarse_traj).trajectory
    return runs


def two_grid_errors(artifacts, key):
    """Errors of the ``two_grid_runs`` at ``key`` against the fine solve
    there: {name: ErrorReport}."""
    fine = artifacts.fine
    reference = solve_fine(artifacts.config, fine, key)
    return compare(two_grid_runs(artifacts, key), reference, fine.forms)


@dataclass
class LooRow:
    parameter: object
    rectified: float
    projection: float
    coarse: float


@dataclass
class LooReport:
    """Leave-one-out table: held-out rectified error, in-sample projection
    error of the full-set basis, and lifted-coarse error, all relative
    sup-in-time energy-norm values, with column maxima."""

    energy_norm: str
    rows: list
    max_rectified: float
    max_projection: float
    max_coarse: float

    def csv_rows(self):
        head = ["parameter", "err_rectified", "err_projection", "err_coarse"]
        out = [head]
        for r in self.rows:
            out.append([param_label(r.parameter), r.rectified, r.projection,
                        r.coarse])
        out.append(["max", self.max_rectified, self.max_projection,
                    self.max_coarse])
        return out


def param_label(param):
    if isinstance(param, tuple):
        return "(" + ", ".join(f"{v:g}" for v in param) + ")"
    return f"{param:g}"


def leave_one_out(config):
    """Hold out each training parameter in turn, rebuild the offline stage
    on the rest, and measure the rectified online error at the held-out
    point against its fine solve."""
    config.validate()
    params = config.training_parameters()
    if len(params) < 2:
        raise ValueError("leave-one-out needs at least two training parameters")
    fine, coarse, fine_trajs, coarse_trajs = _training_runs(config, params)
    basis_full = build_basis(config, fine_trajs, fine.forms)

    rows = []
    for p in params:
        rest = [q for q in params if q != p]
        fold = fit(config, {q: fine_trajs[q] for q in rest},
                   {q: coarse_trajs[q] for q in rest}, fine, coarse)
        held_out, coarse_traj = fine_trajs[p], coarse_trajs[p]
        projected = reconstruct(basis_full, coefficients(
            basis_full, fine.forms, held_out.values))
        candidates = {
            "rectified": online(fold, p, coarse_traj=coarse_traj).trajectory,
            "projection": replace(held_out, values=projected),
            "coarse": lift_coarse(coarse_traj, fine.mesh, fine.grid)}
        reports = compare(candidates, held_out, fine.forms)
        rows.append(LooRow(parameter=p, **{
            name: report.rel_energy for name, report in reports.items()}))

    return LooReport(energy_norm=energy_norm(fine.forms), rows=rows,
                     max_rectified=max(r.rectified for r in rows),
                     max_projection=max(r.projection for r in rows),
                     max_coarse=max(r.coarse for r in rows))


@dataclass
class StudyLevel:
    """Errors of the four methods at one rung of the mesh ladder."""

    n: int
    h: float
    H: float
    dt_fine: float
    dt_coarse: float
    errors: dict  # (method, norm) -> relative error


METHODS = ("fine", "coarse", "nirb", "rect")


@dataclass
class StudyReport:
    """Ladder of per-level errors with least-squares log-log slopes in h."""

    coupling: str
    parameter: object
    energy_norm: str
    levels: list
    slopes: dict

    def csv_rows(self):
        head = ["level", "h", "H", "dtF", "dtG"]
        head += [f"err_{m}_h1" for m in METHODS]
        head += [f"err_{m}_l2" for m in METHODS]
        out = [head]
        for lv in self.levels:
            row = [lv.n, lv.h, lv.H, lv.dt_fine, lv.dt_coarse]
            row += [lv.errors[m, "energy"] for m in METHODS]
            row += [lv.errors[m, "l2"] for m in METHODS]
            out.append(row)
        slope_row = ["slope", "", "", "", ""]
        slope_row += [self.slopes[m, "energy"] for m in METHODS]
        slope_row += [self.slopes[m, "l2"] for m in METHODS]
        out.append(slope_row)
        return out


def loglog_slope(h, err):
    """Least-squares slope of log(err) against log(h) over all usable levels."""
    x, y = [], []
    for hi, ei in zip(h, err):
        if math.isfinite(ei) and ei > 0.0:
            x.append(math.log(hi))
            y.append(math.log(ei))
    n = len(x)
    if n < 2:
        return math.nan
    sx, sy = sum(x), sum(y)
    sxx = sum(v * v for v in x)
    sxy = sum(u * v for u, v in zip(x, y))
    denom = n * sxx - sx * sx
    return (n * sxy - sx * sy) / denom


def level_config(config, n, coupling):
    """Derive one ladder rung: fine counts n, coarse counts per coupling.

    '2h' halves the mesh count and the step count; 'sqrt' couples the coarse
    width and step to the square root of the fine ones, so halving h in
    space costs only a factor sqrt(2) on the coarse side."""
    span = config.T - config.t0
    fine_steps = max(1, round(span * n))
    if coupling == "2h":
        if n % 2:
            raise ValueError(f"the 2h coupling needs even mesh counts, got {n}")
        coarse_nx = n // 2
        coarse_steps = max(2, fine_steps // 2)
    elif coupling == "sqrt":
        coarse_nx = max(2, round(math.sqrt(n)))
        coarse_steps = max(2, round(span * math.sqrt(n)))
    else:
        raise ValueError(f"unknown coupling {coupling!r}")
    return replace(config, fine_nx=n, fine_ny=0, coarse_nx=coarse_nx,
                   coarse_ny=0, fine_steps=fine_steps,
                   coarse_steps=coarse_steps)


def convergence_study(config, coupling=None):
    """Run the mesh ladder and collect fine, coarse, plain, and rectified
    errors per level, plus their log-log slopes in h.

    Every rung's config and the test parameter's bounds are checked before
    the first solve, so a bad ladder fails before minutes of offline work."""
    config.validate()
    coupling = coupling or config.study_coupling
    if len(config.study_levels) < 1:
        raise ValueError("empty mesh ladder")
    if len(set(config.study_levels)) != len(config.study_levels):
        raise ValueError(f"repeated levels in the mesh ladder "
                         f"{list(config.study_levels)}")
    test_param = check_bounds(config, config.test_parameter())
    rungs = [(n, level_config(config, n, coupling)) for n in config.study_levels]
    levels = []

    for n, cfg in rungs:
        artifacts = offline(cfg, persist=False)
        fine, coarse = artifacts.fine, artifacts.coarse
        energy = energy_norm(fine.forms)
        fine_traj = solve_fine(cfg, fine, test_param)
        analytic = analytic_reference(cfg, test_param)
        runs = two_grid_runs(artifacts, test_param)
        if analytic is not None:
            runs["fine"] = fine_traj
        reports = compare(runs, fine_traj if analytic is None else analytic,
                          fine.forms)
        errors = {("fine", "l2"): 0.0, ("fine", "energy"): 0.0}
        for name, rep in reports.items():
            errors[name, "l2"], errors[name, "energy"] = rep.rel_l2, rep.rel_energy

        levels.append(StudyLevel(n=n, h=fine.mesh.h, H=coarse.mesh.h,
                                 dt_fine=fine.grid.dt,
                                 dt_coarse=coarse.grid.dt, errors=errors))
        log.info("level %d done: rect %s error %.3e", n, energy,
                 errors["rect", "energy"])

    hs = [lv.h for lv in levels]
    slopes = {}
    for m in METHODS:
        for nm in ("l2", "energy"):
            slopes[m, nm] = loglog_slope(hs, [lv.errors[m, nm] for lv in levels])
    return StudyReport(coupling=coupling, parameter=test_param,
                       energy_norm=energy, levels=levels, slopes=slopes)
