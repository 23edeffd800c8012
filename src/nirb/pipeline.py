"""Two-grid reduced-order pipeline: offline snapshot/basis/rectification
construction, the cheap online stage, error evaluation, leave-one-out tables,
and mesh-ladder convergence studies.

Nothing here tells the problems apart: the boundary condition, the fine and
coarse runs, the field count, the key form and bounds and the closed-form
reference are the study's problem object's (``models.problem_of``).  Every
lift of a coarse run reads its time weights from the artifacts
(``OfflineArtifacts.time_weights``), and ``online`` and ``compare`` accept a
given run by one rule (``_check_run``)."""

from __future__ import annotations

import contextlib
import functools
import logging
import math
import mmap
import os
import signal
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from nirb import io, models
from nirb.fem import assemble, difference_norms, norms
from nirb.integrators import FieldTrajectory, TimeGrid
from nirb.mesh import build_structured
from nirb.models import AnalyticReference
from nirb.rectification import (apply_rectification, build_rectification,
                                coarse_to_fine_coefficients, lift_coarse,
                                lift_projection, quadratic_weights)
from nirb.reduced_basis import (coefficients, h1_rows, hierarchical_pod,
                                mass_inner, mass_weighted_modes, reconstruct)

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
    that builds meshes, grids and forms, under the boundary condition of
    the study's problem."""
    bc = models.problem_of(config).bc
    out = []
    for n, steps in ((config.fine_nx, config.fine_steps),
                     (config.coarse_nx, config.coarse_steps)):
        mesh = build_structured(n, n, domain=tuple(config.domain))
        out.append(Discretization(mesh=mesh, forms=assemble(mesh, bc),
                                  grid=TimeGrid(config.t0, config.T, steps)))
    return out[0], out[1]


def solve_fine(config, disc, param):
    """High-fidelity trajectory at one parameter: the fine run of the
    study's problem object (``models``)."""
    return models.problem_of(config).solve_fine(disc, param)


def solve_coarse(config, disc, param, fine=None):
    """Cheap trajectory at one parameter on the coarse discretization alone:
    the coarse run of the study's problem object (``models``).  ``fine`` is
    ignored; it is accepted for callers that still pass it."""
    return models.problem_of(config).solve_coarse(disc, param)


@contextlib.contextmanager
def _timed(seconds, stage):
    """Add the wall time of the block to ``seconds[stage]``."""
    start = time.perf_counter()
    try:
        yield
    finally:
        seconds[stage] = seconds.get(stage, 0.0) + time.perf_counter() - start


def _stage_line(seconds, workers):
    """The stage wall times and the worker count of each sweep, from
    ``workers``, {sweep name: count}."""
    return (", ".join(f"{stage} {s:.3f}s" for stage, s in seconds.items())
            + "; " + ", ".join(f"{name} workers: {count}"
                               for name, count in workers.items()))


def _solved(name, solve, config, disc, p):
    """``solve(config, disc, p)``, a failure raised as the ``RuntimeError``
    naming the sweep and the parameter."""
    try:
        return solve(config, disc, p)
    except (RuntimeError, ValueError) as exc:
        raise RuntimeError(
            f"{name} solve failed at parameter {p}: {exc}") from exc


def _workers(n):
    """Worker count of a sweep of ``n`` items: the CPUs this process may
    run on, at most one per item, and 1 where ``os.fork`` or the affinity
    query is missing."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n))


def _take(do, queue):
    """``do(i)`` for the 4-byte indices i read from the pipe ``queue``,
    until it ends; the first failure ends the loop."""
    while index := os.read(queue, 4):
        do(int.from_bytes(index, sys.byteorder))


def _feed(queue, first, end):
    """Write the indices first, first + 1, ... before ``end`` into the
    non-blocking pipe ``queue`` until it is full, four bytes a write, which
    a pipe takes whole or not at all; returns the first index not
    written."""
    for i in range(first, end):
        try:
            os.write(queue, i.to_bytes(4, sys.byteorder))
        except BlockingIOError:
            return i
    return end


@contextlib.contextmanager
def _sweep(record, n, work):
    """Items 0, ..., n - 1 done on ``_workers(n)`` workers, the one function
    that calls ``os.fork``.  ``work(records, i)`` writes item i into its
    record of ``records``, an array of n records of the structured dtype
    ``record``, whose "done" status byte is set here once ``work``
    returns.  Entering forks the workers; the body does the caller's own
    work and then calls the yielded ``join``, which returns ``records``
    with every item done.

    ``records`` lies in one anonymous shared ``mmap``, so what a forked
    worker writes is read here without a copy.  The W - 1 forked children
    take indices from one queue, a pipe of 4-byte indices in ascending
    order, which is fed after the fork, so no item count can block the
    caller; ``join`` makes the caller a worker too.  When the pipe cannot
    hold every index the caller takes items from the end of those not yet
    fed, feeding more after each, and closes the write end once every
    index is fed or taken.  A worker stops at its first failing item.
    After every child is reaped the items are walked in order and any
    unmarked one is done here, so the first failing item in order raises
    its error as it would on one worker, and a child that crashed or was
    killed costs a redo of the item it held.  A child always ends in
    ``os._exit``, never returning into the caller or flushing its buffers.
    An exception that leaves the body or ``join`` (a failure of the
    caller's own work in the body, a failing item in the walk, an
    interrupt) kills and reaps the children left, and both pipe ends are
    closed on every path.  With one worker no pipe is opened and no
    process is forked: ``join`` is the walk.

    From Python 3.12 ``os.fork`` warns when the process runs other threads,
    OpenBLAS's pool among them; under warnings-as-errors that fails."""
    workers = _workers(n)
    records = np.frombuffer(mmap.mmap(-1, record.itemsize * n), dtype=record)
    queue, children = [], []    # the queue's open ends: read, write

    def do(i):
        work(records, i)
        records["done"][i] = 1

    def walk():
        for i in range(n):
            if not records["done"][i]:
                do(i)
        return records

    def join():
        read, write = queue
        fed, end = feed, n
        # a failure here is raised, in order, by the walk below
        with contextlib.suppress(Exception):
            try:
                while fed < end:
                    end -= 1
                    do(end)
                    fed = _feed(write, fed, end)
            finally:
                os.close(queue.pop())
            _take(do, read)
        while children:
            os.waitpid(children[-1], 0)
            children.pop()
        return walk()

    if workers == 1:
        yield walk
        return
    try:
        queue.extend(os.pipe())
        for _ in range(1, workers):
            pid = os.fork()
            if pid == 0:
                try:
                    os.close(queue[1])
                    _take(do, queue[0])
                finally:
                    os._exit(0)
            children.append(pid)
        os.set_blocking(queue[1], False)
        feed = _feed(queue[1], 0, n)
        yield join
    finally:
        for fd in queue:
            os.close(fd)
        for pid in children:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        for pid in children:
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)


@contextlib.contextmanager
def _fine_sweep(config, disc, params):
    """The fine runs at ``params`` through one ``_sweep``, each run solved
    and prepared (``reduced_basis.h1_rows``) by the worker that takes it.
    The body does the caller's own work and then calls the yielded
    ``join``, which returns (fine_trajs, prepared): the trajectories in
    parameter order, whose values view the sweep's shared buffer, and each
    run's H1 POD rows, views of the same buffer.

    A run's record holds its values (steps + 1, width), its rows (at most
    n_max, width) with their count, and the status byte, so a run counts
    as done only once both are written.  The first failing parameter in
    order raises its "fine solve failed" error."""
    width = models.problem_of(config).fields * disc.mesh.n_nodes
    record = np.dtype([
        ("values", float, (disc.grid.steps + 1, width)),
        ("rows", float, (min(config.n_max, disc.grid.steps + 1), width)),
        ("count", np.int64), ("done", np.uint8)], align=True)

    def solve(runs, i):
        runs["values"][i] = _solved("fine", solve_fine, config, disc,
                                    params[i]).values
        rows = h1_rows(runs["values"][i], disc.forms, config.n_max)
        runs["rows"][i, :len(rows)] = rows
        runs["count"][i] = len(rows)

    def trajectories(runs):
        return ({p: FieldTrajectory(mesh=disc.mesh, grid=disc.grid,
                                    values=runs["values"][i], parameter=p)
                 for i, p in enumerate(params)},
                {p: runs["rows"][i, :runs["count"][i]]
                 for i, p in enumerate(params)})

    with _sweep(record, len(params), solve) as join:
        yield lambda: trajectories(join())


def _training_runs(config, params, seconds):
    """Discretizations, training runs and their preparation: returns
    (fine, coarse, fine_trajs, coarse_trajs, prepared), the runs as dicts
    in parameter order and ``prepared`` each fine run's own H1 POD rows
    (``reduced_basis.h1_rows``), from which every fold's basis is pooled.
    The fine workers (``_fine_sweep``) are forked right after the
    discretizations, so the coarse sweep runs in this process while they
    solve fine runs, and a coarse failure stops them; this process then
    joins the fine sweep.  The wall times are added to ``seconds`` under
    "coarse runs" (the discretizations and the coarse sweep) and "fine
    runs" (until every fine run is solved and prepared)."""
    with _timed(seconds, "coarse runs"):
        fine, coarse = discretize(config)
    with _fine_sweep(config, fine, params) as join:
        with _timed(seconds, "coarse runs"):
            coarse_trajs = {p: _solved("coarse", solve_coarse, config,
                                       coarse, p) for p in params}
        with _timed(seconds, "fine runs"):
            fine_trajs, prepared = join()
    return fine, coarse, fine_trajs, coarse_trajs, prepared


def build_basis(config, rows, forms):
    """The ``hierarchical_pod`` basis with ``config.n_max`` modes pooled
    from the training runs' H1 POD ``rows`` (``reduced_basis.h1_rows``
    arrays, in run order), checked to be L2-orthonormal: pooled modes
    whose mass Gram is not positive definite, or a result whose mass Gram
    is more than 1e-8 from the identity, raise a ``RuntimeError``.

    The paper follows the L2 orthonormalization with an H1
    orthogonalization of the modes.  That step serves its analysis: the
    plain NIRB value is the L2 projection onto the span of the modes and
    the rectification fit is unchanged by an orthogonal change of basis, so
    nothing computed depends on it, and it is not made."""
    basis = hierarchical_pod(rows, forms, config.n_max)
    if basis.N == 0:
        raise RuntimeError("basis construction produced no modes")
    gram = mass_inner(forms, basis.modes, basis.modes)
    defect = np.abs(gram - np.eye(basis.N)).max()
    if not defect <= 1e-8:
        raise RuntimeError("hierarchical_pod returned modes that are not "
                           f"L2-orthonormal: their mass Gram is {defect:.3g} "
                           f"from the identity, above 1e-8")
    return basis


@dataclass
class OfflineArtifacts:
    """Everything the online stage needs: the study config, the reduced
    basis, the rectification maps and the fine and coarse discretizations,
    which are what ``discretize(config)`` builds.  Only the config, the
    basis and the maps are persisted; loading rebuilds the discretizations
    from the config.  The operators derived from them, ``lift`` and
    ``time_weights``, are built on first use and kept."""

    config: object
    basis: object
    tensor: object
    fine: Discretization
    coarse: Discretization

    @property
    def fine_mesh(self):
        return self.fine.mesh

    def context(self):
        """The discretizations, as an object with ``.fine`` and ``.coarse``."""
        return self

    @functools.cached_property
    def lift(self):
        """The lift-projection operator Phi of
        ``rectification.lift_projection``, shape (n_fields * n_coarse, N),
        read-only, so the coarse forms keep its modal product for the heat
        runs read through it (``AssembledForms.modal_operand``)."""
        lift = lift_projection(self.basis, self.fine.forms, self.coarse.forms)
        lift.flags.writeable = False
        return lift

    @functools.cached_property
    def time_weights(self):
        """The time weights W of ``rectification.quadratic_weights`` from the
        coarse grid to the fine one, shape (fine steps + 1, coarse steps
        + 1)."""
        return quadratic_weights(self.coarse.grid, self.fine.grid)

    def validate(self):
        want = (self.fine.grid.steps + 1, self.basis.N, self.basis.N)
        got = (np.shape(self.tensor.matrices), np.shape(self.tensor.deltas))
        if got != (want, want[:1]):
            raise ValueError(f"rectification maps and deltas of shapes {got}, "
                             f"expected one map per fine time knot: {want} "
                             f"and {want[:1]}")
        return self


def fit(config, fine, coarse, fine_trajs, coarse_trajs, prepared, seconds):
    """The validated artifacts fitted on matched training runs: the basis,
    pooled from the runs' H1 POD rows ``prepared`` (``reduced_basis.h1_rows``,
    which may cover more runs than the fit reads), and the rectification maps
    fitted on two (n_times, k, N) stacks in the order of ``fine_trajs``:
    each coarse run's coefficients through the artifacts' ``lift`` and
    ``time_weights``, and each fine run's coefficients.  The wall times of
    the basis selection and of the rest are added to ``seconds`` under
    "basis selections" and "fits"."""
    with _timed(seconds, "basis selections"):
        basis = build_basis(config, [prepared[p] for p in fine_trajs],
                            fine.forms)
    log.info("basis built: N=%d from %d training parameters", basis.N,
             len(fine_trajs))
    with _timed(seconds, "fits"):
        artifacts = OfflineArtifacts(
            config=config, basis=basis, tensor=None, fine=fine, coarse=coarse)
        lifted = np.stack([coarse_to_fine_coefficients(
            coarse_trajs[p], artifacts.lift, artifacts.time_weights)
            for p in fine_trajs], axis=1)
        weighted = mass_weighted_modes(basis, fine.forms)
        artifacts.tensor = build_rectification(lifted, np.stack(
            [run.values @ weighted for run in fine_trajs.values()], axis=1),
            config.delta_value)
    return artifacts.validate()


def offline(config, persist=True):
    """Offline stage: training runs (``_training_runs``: the coarse sweep
    here while the fine workers solve and prepare the fine runs), basis
    and rectification (``fit``), with the stage wall times ("coarse runs",
    "fine runs", "basis selections", "fits") and the fine sweep's worker
    count logged at INFO.  With persist=True the artifact file lands in
    config.output_dir."""
    config.validate()
    params = config.training_parameters()
    seconds = {}
    artifacts = fit(config, *_training_runs(config, params, seconds), seconds)
    log.info("offline stages: %s",
             _stage_line(seconds, {"fine sweep": _workers(len(params))}))
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
    ``seconds_coarse`` covers the bounds check and the coarse solve, or the
    checks of a precomputed coarse run; ``seconds_reconstruct`` the rest:
    the coefficients read off the coarse run, the time interpolation, the
    rectification and the fine reconstruction."""

    parameter: object
    mode: str
    trajectory: FieldTrajectory
    coefficients: np.ndarray
    seconds_coarse: float
    seconds_reconstruct: float


def check_bounds(config, param):
    """The key of a query parameter in the form of the study's problem, a
    float for heat and a float triple for reaction-diffusion; one of
    another form, or outside the configured bounds, raises ``ValueError``."""
    problem = models.problem_of(config)
    try:
        key = problem.key(param)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"parameter {param!r} is not {problem.form}") from exc
    if not problem.in_bounds(config, key):
        raise ValueError(f"parameter {key} is outside the configured bounds")
    return key


def _mesh_label(m):
    return f"{m.nx}x{m.ny} mesh on {tuple(float(v) for v in m.domain)}"


def _check_run(run, reference, what, against):
    """Raise ``ValueError`` unless the trajectory ``run`` lies on the mesh
    and the time grid of ``reference``, a trajectory or a
    ``Discretization``: meshes compared by size and domain, grids by
    ``TimeGrid`` equality.  The message names ``run`` by ``what`` and the
    reference by ``against``."""
    got, want = _mesh_label(run.mesh), _mesh_label(reference.mesh)
    if got != want:
        raise ValueError(f"{what} on the {got}, {against} {want}")
    if run.grid != reference.grid:
        raise ValueError(f"{what} on {run.grid}, {against} grid "
                         f"{reference.grid}")


def online(artifacts, param, mode="rectified", coarse_traj=None):
    """Online stage at one parameter: coarse solve, one product with the
    artifacts' lift-projection operator (the space lift and the projection
    onto the modes in one, read off the modal states of a heat run without
    its nodal values), time interpolation of the N coefficients, optional
    rectification, reconstruction.  Nothing but the reconstruction touches
    the fine mesh.

    Every query's parameter is checked first (``check_bounds``).  A
    precomputed coarse trajectory short-circuits the solve; its parameter
    must be the query's key, and its mesh and time grid the artifacts'
    coarse ones (``_check_run``)."""
    if mode not in ("plain", "rectified"):
        raise ValueError(f"unknown online mode {mode!r}")
    config, fine = artifacts.config, artifacts.fine
    t_start = time.perf_counter()
    key = check_bounds(config, param)
    if coarse_traj is None:
        coarse_traj = solve_coarse(config, artifacts.coarse, key)
    else:
        if coarse_traj.parameter != key:
            raise ValueError(f"coarse trajectory at parameter "
                             f"{coarse_traj.parameter}, expected the query's "
                             f"{key}")
        _check_run(coarse_traj, artifacts.coarse, "coarse trajectory",
                   "expected the coarse")
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


def _analytic_curves(forms, candidates, reference, energy):
    """Per-knot (error L2, error energy, reference L2, reference energy)
    curves of single-field candidates on one grid against a closed form,
    keyed like ``candidates``: one ``difference_norms`` call for all of
    them, so the closed form is evaluated once per knot."""
    runs = list(candidates.values())
    if any(c.n_fields != 1 for c in runs):
        raise ValueError("analytic references support single fields only")
    for c in runs[1:]:
        _check_run(c, runs[0], "candidate", "reference on the")
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

    The reference is another trajectory with the candidates' mesh, time
    grid (``_check_run``) and field count, whose norm curves are taken once
    for all candidates, or an ``AnalyticReference`` (single-component
    candidates on one grid only), evaluated once per knot for all
    candidates.  Relative errors divide the sup-in-time error by the
    sup-in-time reference norm, so a uniformly scaled candidate c = (1+s) u
    reports s exactly in every norm."""
    energy = energy_norm(forms)
    if isinstance(reference, AnalyticReference):
        ref_param = "analytic"
        curves = _analytic_curves(forms, candidates, reference, energy)
    else:
        ref_param = reference.parameter
        for c in candidates.values():
            _check_run(c, reference, "candidate", "reference on the")
            if c.n_fields != reference.n_fields:
                raise ValueError(f"candidate of {c.n_fields} fields, "
                                 f"reference of {reference.n_fields}")
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
    """The closed-form solution as an error reference where the study's
    problem has one (heat at mu = 1 on the unit square), otherwise None."""
    return models.problem_of(config).analytic_reference(config, key)


def two_grid_runs(artifacts, key):
    """The three fine-grid runs made from one coarse solve at the parameter
    key ``key``: the lifted coarse run ('coarse'), and the plain ('nirb')
    and rectified ('rect') online runs."""
    fine = artifacts.fine
    coarse_traj = solve_coarse(artifacts.config, artifacts.coarse, key)
    runs = {"coarse": lift_coarse(coarse_traj, artifacts.coarse.forms, fine,
                                  artifacts.time_weights)}
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


# the stages of one leave-one-out fold, and its record in the fold sweep:
# the rectified, projection and coarse errors (``LooRow``'s order) and the
# stages' seconds
_FOLD_STAGES = ("basis selections", "fits", "scoring")
_FOLD_RECORD = np.dtype([("errors", float, (3,)), ("seconds", float, (3,)),
                         ("done", np.uint8)])


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
    sup-in-time energy-norm values, with column maxima, and the pass's
    seconds per stage: the wall times of "coarse runs" and "fine runs"
    (``_training_runs``), and of the three fold stages, "basis selections"
    and "fits" (``fit``) and "scoring", summed over the fold workers, so
    on more than one worker these three can add up to more than the wall
    time of the folds; "basis selections" also holds the full-set basis.
    ``label`` is the study problem's, for the table."""

    energy_norm: str
    rows: list
    max_rectified: float
    max_projection: float
    max_coarse: float
    seconds: dict
    label: object

    def csv_rows(self):
        return ([["parameter", "err_rectified", "err_projection",
                  "err_coarse"]]
                + [[self.label(r.parameter), r.rectified, r.projection,
                    r.coarse] for r in self.rows]
                + [["max", self.max_rectified, self.max_projection,
                    self.max_coarse]])


def leave_one_out(config):
    """Hold out each training parameter in turn, rebuild the offline stage
    on the rest, and measure the rectified online error at the held-out
    point against its fine solve.

    The training runs are solved once (``_training_runs``), each fine run
    prepared by the worker that solved it, and every fold's ``fit`` pools
    the prepared rows of the runs it holds in.  The folds run through one
    ``_sweep``, forked after the training runs, the full-set basis and the
    coarse-to-fine transfer (``AssembledForms.transfer_to``), so the
    workers inherit them and the coarse forms' modal setup; a fold's
    record holds its three errors and its stage seconds, and the rows are
    those of one worker, bit for bit, as is the error of the first
    failing fold in parameter order.  The stage times go into the report
    (``LooReport.seconds``) and are logged at INFO with the worker counts
    of the fine sweep and the fold sweep."""
    config.validate()
    params = config.training_parameters()
    if len(params) < 2:
        raise ValueError("leave-one-out needs at least two training parameters")
    seconds = {}
    fine, coarse, fine_trajs, coarse_trajs, prepared = _training_runs(
        config, params, seconds)
    with _timed(seconds, "basis selections"):
        basis_full = build_basis(config, [prepared[p] for p in params],
                                 fine.forms)
    # located here, before the fold workers fork, so that they inherit it
    coarse.forms.transfer_to(fine.mesh)

    def hold_out(folds, i):
        p, spent = params[i], {}
        rest = [q for q in params if q != p]
        fold = fit(config, fine, coarse, {q: fine_trajs[q] for q in rest},
                   {q: coarse_trajs[q] for q in rest}, prepared, spent)
        with _timed(spent, "scoring"):
            held_out, coarse_traj = fine_trajs[p], coarse_trajs[p]
            projected = reconstruct(basis_full, coefficients(
                basis_full, fine.forms, held_out.values))
            candidates = {
                "rectified": online(fold, p,
                                    coarse_traj=coarse_traj).trajectory,
                "projection": replace(held_out, values=projected),
                "coarse": lift_coarse(coarse_traj, coarse.forms, fine,
                                      fold.time_weights)}
            reports = compare(candidates, held_out, fine.forms)
        folds["errors"][i] = [reports[name].rel_energy for name in candidates]
        folds["seconds"][i] = [spent[stage] for stage in _FOLD_STAGES]

    with _sweep(_FOLD_RECORD, len(params), hold_out) as join:
        folds = join()
    for stage, s in zip(_FOLD_STAGES, folds["seconds"].sum(axis=0)):
        seconds[stage] = seconds.get(stage, 0.0) + float(s)
    rows = [LooRow(p, *map(float, folds["errors"][i]))
            for i, p in enumerate(params)]

    workers = _workers(len(params))
    log.info("leave-one-out stages: %s", _stage_line(
        seconds, {"fine sweep": workers, "fold": workers}))
    return LooReport(energy_norm=energy_norm(fine.forms), rows=rows,
                     max_rectified=max(r.rectified for r in rows),
                     max_projection=max(r.projection for r in rows),
                     max_coarse=max(r.coarse for r in rows), seconds=seconds,
                     label=models.problem_of(config).label)


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
        def columns(table):
            return [table[m, nm] for nm in ("energy", "l2") for m in METHODS]

        out = [["level", "h", "H", "dtF", "dtG"]
               + [f"err_{m}_{nm}" for nm in ("h1", "l2") for m in METHODS]]
        out += [[lv.n, lv.h, lv.H, lv.dt_fine, lv.dt_coarse]
                + columns(lv.errors) for lv in self.levels]
        return out + [["slope", "", "", "", ""] + columns(self.slopes)]


def loglog_slope(h, err):
    """Least-squares slope of log(err) against log(h) over all usable levels."""
    points = [(math.log(hi), math.log(ei)) for hi, ei in zip(h, err)
              if math.isfinite(ei) and ei > 0.0]
    n = len(points)
    if n < 2:
        return math.nan
    x, y = zip(*points)
    sx, sy, sxx = sum(x), sum(y), sum(v * v for v in x)
    sxy = sum(u * v for u, v in points)
    return (n * sxy - sx * sy) / (n * sxx - sx * sx)


def level_config(config, n, coupling):
    """Derive one ladder rung: fine counts n, coarse counts per coupling,
    checked by ``validate()`` (a rung can leave a mesh without an interior
    node that the base config has).

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
    return replace(config, fine_nx=n, coarse_nx=coarse_nx,
                   fine_steps=fine_steps, coarse_steps=coarse_steps).validate()


def convergence_study(config, coupling="2h"):
    """Run the mesh ladder and collect fine, coarse, plain, and rectified
    errors per level, plus their log-log slopes in h.

    Every rung's config and the test parameter's bounds are checked before
    the first solve, so a bad ladder fails before minutes of offline work."""
    config.validate()
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
    slopes = {(m, nm): loglog_slope(hs, [lv.errors[m, nm] for lv in levels])
              for m in METHODS for nm in ("l2", "energy")}
    return StudyReport(coupling=coupling, parameter=test_param,
                       energy_norm=energy, levels=levels, slopes=slopes)
