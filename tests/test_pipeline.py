import collections
import contextlib
import dataclasses
import fcntl
import functools
import hashlib
import os
import re
import signal
import time

import numpy as np
import pytest

from nirb import fem, integrators, mesh, models, pipeline
from nirb import reduced_basis as rb
from nirb.config import StudyConfig
from nirb.integrators import FieldTrajectory, TimeGrid
from nirb.mesh import interpolate_field
from nirb.rectification import (apply_rectification, build_rectification,
                                coarse_to_fine_coefficients, lift_coarse,
                                lift_projection, quadratic_weights)


@pytest.fixture(scope="module")
def study(small_heat_text):
    config = StudyConfig.from_text(small_heat_text)
    return config, pipeline.offline(config, persist=False)


class TestLeaveOneOut:
    def test_rows_match_offline_without_the_parameter(self, study):
        # Every held-out row is the rectified online error of an offline
        # build on the remaining parameters, measured against the fine solve.
        config, _ = study
        report = pipeline.leave_one_out(config)
        params = config.training_parameters()
        assert [r.parameter for r in report.rows] == params
        for k, mu in enumerate(params):
            rest = tuple(p for p in config.train_mu if p != mu)
            sub = dataclasses.replace(config, train_mu=rest)
            artifacts = pipeline.offline(sub, persist=False)
            ctx = artifacts.context()
            fine = pipeline.solve_fine(sub, ctx.fine, mu)
            result = pipeline.online(artifacts, mu)
            want = pipeline.evaluate_errors(result.trajectory, fine,
                                            ctx.fine.forms).rel_energy
            assert report.rows[k].rectified == pytest.approx(want, abs=1e-12)
        assert report.max_rectified == max(r.rectified for r in report.rows)


def digest(values):
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


class TestPreparedRuns:
    @staticmethod
    def fine_values(monkeypatch):
        """The fine training runs of every pass from now on, as
        ``_training_runs`` returns them (some are solved in a worker
        process, where no call is seen)."""
        runs = []
        training_runs = pipeline._training_runs

        def recording(*args, **kwargs):
            out = training_runs(*args, **kwargs)
            runs.extend(out[2].values())
            return out

        monkeypatch.setattr(pipeline, "_training_runs", recording)
        return runs

    @staticmethod
    def calls_per_run(runs, calls):
        """Per run, the calls whose argument is its values: an array of
        their shape on their memory, as the sweep's buffer hands out a new
        view of a run each time."""
        return [sum(np.shape(arg) == run.values.shape
                    and np.shares_memory(arg, run.values) for arg in calls)
                for run in runs]

    def test_one_mass_product_per_run_and_pass(self, study, monkeypatch):
        # the one sparse product of a run's values in a pass is the H1
        # product of its own POD; on one CPU every call is seen here
        config, _ = study
        cpus(monkeypatch, 1)
        runs = self.fine_values(monkeypatch)
        calls = []
        block_matvec = rb.block_matvec

        def recording(mat, U):
            calls.append(U)
            return block_matvec(mat, U)

        monkeypatch.setattr(rb, "block_matvec", recording)
        pipeline.leave_one_out(config)
        assert len(runs) == len(config.training_parameters())
        assert self.calls_per_run(runs, calls) == [1] * len(runs)

    def test_one_h1_pod_per_run_and_pass(self, study, monkeypatch):
        config, _ = study
        cpus(monkeypatch, 1)
        runs = self.fine_values(monkeypatch)
        calls = []
        pod = rb.pod

        def recording(snapshots, *args, **kwargs):
            calls.append(snapshots)
            return pod(snapshots, *args, **kwargs)

        monkeypatch.setattr(rb, "pod", recording)
        report = pipeline.leave_one_out(config)
        assert len(runs) == len(report.rows) == 4
        assert self.calls_per_run(runs, calls) == [1] * len(runs)
        # one pooled POD per basis: the full set's and one per fold
        assert len(calls) == len(runs) + len(runs) + 1

    @pytest.mark.parametrize("workers", [2, 4])
    def test_each_run_is_prepared_once_across_workers(self, study, tmp_path,
                                                      monkeypatch, workers):
        # every process appends the digest of each run it prepares to one
        # file, in one write, which O_APPEND keeps whole; four workers are
        # more than the cores of a small host
        config, _ = study
        cpus(monkeypatch, workers)
        runs = self.fine_values(monkeypatch)
        prepared = tmp_path / "prepared"
        h1_rows = pipeline.h1_rows

        def recording(values, *args):
            with open(prepared, "a") as out:
                out.write(digest(values) + "\n")
            return h1_rows(values, *args)

        monkeypatch.setattr(pipeline, "h1_rows", recording)
        pipeline.leave_one_out(config)
        assert len(runs) == len(config.training_parameters())
        assert (sorted(prepared.read_text().split())
                == sorted(digest(run.values) for run in runs))

    def test_leave_one_out_reports_its_stage_seconds(self, study, caplog):
        config, _ = study
        with caplog.at_level("INFO", logger="nirb.pipeline"):
            report = pipeline.leave_one_out(config)
        assert list(report.seconds) == ["coarse runs", "fine runs",
                                        "basis selections", "fits", "scoring"]
        assert all(s > 0.0 for s in report.seconds.values())
        assert "leave-one-out stages: coarse runs " in caplog.text
        assert "; fine sweep workers: " in caplog.text


class TestOneLiftPerFit:
    @pytest.fixture
    def lifts(self, monkeypatch):
        """Coarse node counts of every lift-projection operator built."""
        built = []

        def counting(basis, forms, coarse_forms):
            built.append(coarse_forms.n_dofs)
            return lift_projection(basis, forms, coarse_forms)

        monkeypatch.setattr(pipeline, "lift_projection", counting)
        return built

    def test_offline_load_and_online(self, small_heat_text, tmp_path, lifts):
        # the fit derives the offline artifacts' lift; the loaded ones
        # derive theirs at their first query, not at the load
        config = StudyConfig.from_text(small_heat_text
                                       + f"output_dir = {tmp_path}\n")
        artifacts = pipeline.offline(config)
        assert lifts == [artifacts.coarse.mesh.n_nodes]
        loaded = pipeline.load_artifacts(config)
        assert len(lifts) == 1
        for arts in (artifacts, loaded):
            for mu in (4.5, 1.0):
                for mode in ("plain", "rectified"):
                    pipeline.online(arts, mu, mode=mode)
        assert len(lifts) == 2

    # the per-fold counts are taken in this process, so these passes run
    # on one CPU, where every fold is scored here

    def test_one_per_leave_one_out_fold(self, study, lifts, monkeypatch):
        config, _ = study
        cpus(monkeypatch, 1)
        pipeline.leave_one_out(config)
        assert len(lifts) == len(config.training_parameters())

    def test_one_operand_product_per_leave_one_out_fold(self, study,
                                                        monkeypatch):
        # each fold's lift is read-only, so the coarse forms make its modal
        # operand once, for the fit, and the held-out query reads it; the
        # training runs make the forms' modal setup before the first fold
        config, _ = study
        cpus(monkeypatch, 1)
        shapes, free = [], []
        training_runs = pipeline._training_runs
        blocked_matmul = fem.blocked_matmul

        def recording(A, B):
            shapes.append((np.shape(A), np.shape(B)))
            return blocked_matmul(A, B)

        def recording_after_the_runs(*args):
            runs = training_runs(*args)
            free.append(runs[1].forms.free_dofs.size)
            monkeypatch.setattr(fem, "blocked_matmul", recording)
            return runs

        monkeypatch.setattr(pipeline, "_training_runs",
                            recording_after_the_runs)
        pipeline.leave_one_out(config)
        n = free[0]
        assert len(shapes) == len(config.training_parameters())
        assert all(A[1] == n and B == (n, n) for A, B in shapes)

    def test_leave_one_out_takes_four_norms_per_held_out_value(
            self, study, monkeypatch):
        # the held-out fine run's curves once, then one per candidate:
        # rectified, projection and lifted coarse
        config, _ = study
        cpus(monkeypatch, 1)
        calls = []

        def counting(*args):
            calls.append(args)
            return fem.norms(*args)

        monkeypatch.setattr(pipeline, "norms", counting)
        pipeline.leave_one_out(config)
        assert len(calls) == 4 * len(config.training_parameters())


class TestBasis:
    def test_modes_that_are_not_l2_orthonormal_are_rejected(self, study,
                                                            monkeypatch):
        config, _ = study
        hierarchical_pod = pipeline.hierarchical_pod

        def skewed(*args, **kwargs):
            basis = hierarchical_pod(*args, **kwargs)
            modes = basis.modes.copy()
            modes[1] += 1e-6 * modes[0]
            return dataclasses.replace(basis, modes=modes)

        monkeypatch.setattr(pipeline, "hierarchical_pod", skewed)
        with pytest.raises(RuntimeError, match="L2-orthonormal") as err:
            pipeline.offline(config, persist=False)
        assert "hierarchical_pod returned" in str(err.value)

    @pytest.mark.parametrize("delta_value", [1e-10, 1e-6])
    @pytest.mark.parametrize("problem", ["heat", "rd"])
    def test_online_is_unchanged_by_a_rotation_of_the_modes(
            self, small_heat_text, small_rd_text, rng, monkeypatch, problem,
            delta_value):
        # the plain value is a projection onto the span and the ridge fit
        # is equivariant under an orthogonal change of basis, so rotating
        # the modes, as the paper's H1 orthogonalization does, changes no
        # online value beyond rounding.  The fit amplifies rounding by the
        # condition number of its normal equations, at most about
        # 1/delta_value: 1e10 at the configs' 1e-10
        config = StudyConfig.from_text(
            (small_heat_text if problem == "heat" else small_rd_text)
            + f"delta_value = {delta_value}\n")
        runs = pipeline._training_runs(config, config.training_parameters(),
                                       {})
        artifacts = pipeline.fit(config, *runs, {})
        basis = artifacts.basis
        Q = np.linalg.qr(rng.standard_normal((basis.N, basis.N)))[0]
        turned = rb.ReducedBasis(mesh=basis.mesh, modes=Q.T @ basis.modes)
        monkeypatch.setattr(pipeline, "build_basis", lambda *args: turned)
        rotated = pipeline.fit(config, *runs, {})
        param = config.test_parameter()
        for mode, tol in (("plain", 1e-9),
                          ("rectified", np.finfo(float).eps / delta_value)):
            want = pipeline.online(artifacts, param, mode=mode)
            got = pipeline.online(rotated, param, mode=mode)
            scale = np.abs(want.trajectory.values).max()
            assert np.abs(got.trajectory.values
                          - want.trajectory.values).max() <= tol * scale

    def test_an_all_zero_training_set_has_no_modes(self):
        # an all-zero run prepares no rows, so the pooled POD has nothing
        # to read and the basis check names the empty basis
        config = StudyConfig.from_text("problem = heat\nfine_nx = 6\n"
                                       "coarse_nx = 3\n")
        fine, _ = pipeline.discretize(config)
        zero = FieldTrajectory(mesh=fine.mesh, grid=fine.grid, parameter=1.0,
                               values=np.zeros((fine.grid.steps + 1,
                                                fine.mesh.n_nodes)))
        rows = [rb.h1_rows(zero.values, fine.forms, 3)]
        basis = rb.hierarchical_pod(rows, fine.forms, 3)
        assert basis.modes.shape == (0, fine.mesh.n_nodes)
        assert basis.provenance["pooled_rows"] == 0
        assert basis.provenance["spectrum"] == []
        with pytest.raises(RuntimeError, match="basis construction produced "
                                               "no modes"):
            pipeline.build_basis(config, rows, fine.forms)


SWEEP_CONFIGS = {
    "heat": ("problem = heat\ntrain_mu = 0.5,3.0,6.0,9.5\nfine_nx = 6\n"
             "coarse_nx = 3\nfine_steps = 4\ncoarse_steps = 2\n"),
    "rd": ("problem = brusselator\nt0 = 0.0\nT = 0.5\ntrain_a = 2.0,3.0\n"
           "train_b = 1.0,2.0\ntrain_alpha = 0.002\nfine_nx = 6\n"
           "coarse_nx = 3\nfine_steps = 4\ncoarse_steps = 2\nn_max = 3\n"),
}


def cpus(monkeypatch, n):
    """Let the fine sweep see ``n`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def recorded_forks(monkeypatch):
    """The pids ``os.fork`` returned to this process from now on."""
    pids = []
    fork = os.fork

    def recording():
        pid = fork()
        pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    return pids


def recorded_pipes(monkeypatch):
    """The fd pairs ``os.pipe`` returned from now on."""
    pipes = []
    pipe = os.pipe

    def recording():
        pipes.append(pipe())
        return pipes[-1]

    monkeypatch.setattr(os, "pipe", recording)
    return pipes


def in_child(monkeypatch, act):
    """Call ``act(p)`` before every fine solve at p made in a forked
    worker."""
    parent = os.getpid()
    solve_fine = pipeline.solve_fine

    def acting(config, disc, p):
        if os.getpid() != parent:
            act(p)
        return solve_fine(config, disc, p)

    monkeypatch.setattr(pipeline, "solve_fine", acting)


def wait_for(path, timeout=20.0):
    """Whether ``path`` exists within ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    while not path.exists():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.005)
    return True


def coarse_waits_for(monkeypatch, marker):
    """Hold the first coarse solve until ``marker`` exists, at most 20 s;
    the returned list records whether it came."""
    seen = []
    solve_coarse = pipeline.solve_coarse

    def waiting(config, disc, p):
        if not seen:
            seen.append(wait_for(marker))
        return solve_coarse(config, disc, p)

    monkeypatch.setattr(pipeline, "solve_coarse", waiting)
    return seen


class TestFineSweep:
    @staticmethod
    def sweep(config):
        seconds = {}
        fine, _, fine_trajs, _, prepared = pipeline._training_runs(
            config, config.training_parameters(), seconds)
        assert list(seconds) == ["coarse runs", "fine runs"]
        return fine, fine_trajs, prepared

    @staticmethod
    def assert_solved_here(config, fine, fine_trajs, solve_fine):
        params = config.training_parameters()
        assert list(fine_trajs) == params
        for p in params:
            want = solve_fine(config, fine, p)
            got = fine_trajs[p]
            assert np.array_equal(got.values, want.values)
            assert got.parameter == want.parameter
            assert got.mesh is fine.mesh and got.grid == want.grid

    @pytest.mark.parametrize("problem", ["heat", "rd"])
    def test_two_workers_match_solves_in_this_process(self, problem,
                                                      monkeypatch):
        config = StudyConfig.from_text(SWEEP_CONFIGS[problem])
        cpus(monkeypatch, 2)
        forks = recorded_forks(monkeypatch)
        fine, fine_trajs, _ = self.sweep(config)
        assert len(forks) == 1
        self.assert_solved_here(config, fine, fine_trajs, pipeline.solve_fine)

    @pytest.mark.parametrize("how", ["one cpu", "no fork"])
    def test_one_worker_forks_nothing(self, how, monkeypatch):
        config = StudyConfig.from_text(SWEEP_CONFIGS["heat"])
        pipes = recorded_pipes(monkeypatch)
        if how == "one cpu":
            cpus(monkeypatch, 1)
            forks = recorded_forks(monkeypatch)
        else:
            cpus(monkeypatch, 2)
            monkeypatch.delattr(os, "fork")
            forks = []
        fine, fine_trajs, _ = self.sweep(config)
        assert forks == [] and pipes == []
        self.assert_solved_here(config, fine, fine_trajs, pipeline.solve_fine)

    def test_a_child_solves_while_the_coarse_sweep_runs(self, tmp_path,
                                                         monkeypatch):
        # the first coarse solve waits for a fine run the child finished
        config = StudyConfig.from_text(SWEEP_CONFIGS["heat"])
        cpus(monkeypatch, 2)
        parent = os.getpid()
        finished = tmp_path / "finished"
        solve_fine = pipeline.solve_fine

        def marking(config, disc, p):
            run = solve_fine(config, disc, p)
            if os.getpid() != parent:
                finished.touch()
            return run

        monkeypatch.setattr(pipeline, "solve_fine", marking)
        seen = coarse_waits_for(monkeypatch, finished)
        fine, fine_trajs, _ = self.sweep(config)
        assert seen == [True]
        self.assert_solved_here(config, fine, fine_trajs, solve_fine)

    def test_a_coarse_failure_stops_the_children(self, tmp_path, monkeypatch):
        config = StudyConfig.from_text(SWEEP_CONFIGS["heat"])
        params = config.training_parameters()
        cpus(monkeypatch, 2)
        forks = recorded_forks(monkeypatch)
        started = tmp_path / "started"

        def sleeping(config, disc, p):
            started.touch()
            time.sleep(30.0)

        def failing(config, disc, p):
            assert wait_for(started)
            raise RuntimeError("planted")

        monkeypatch.setattr(pipeline, "solve_fine", sleeping)
        monkeypatch.setattr(pipeline, "solve_coarse", failing)
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match=re.escape(
                f"coarse solve failed at parameter {params[0]}: planted")):
            self.sweep(config)
        assert time.perf_counter() - start < 10.0
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(forks[0], os.WNOHANG)

    @pytest.mark.parametrize("failing, named", [([1], 1), ([2, 1], 1),
                                                ([3, 2], 2)])
    def test_the_first_failing_parameter_is_named(self, failing, named,
                                                  monkeypatch):
        # whichever worker takes a failing run from the queue, the walk
        # in parameter order names the first one
        config = StudyConfig.from_text(SWEEP_CONFIGS["heat"])
        params = config.training_parameters()
        cpus(monkeypatch, 2)
        solve_fine = pipeline.solve_fine

        def failing_at(config, disc, p):
            if p in [params[i] for i in failing]:
                raise RuntimeError(f"planted at {p}")
            return solve_fine(config, disc, p)

        monkeypatch.setattr(pipeline, "solve_fine", failing_at)
        with pytest.raises(RuntimeError, match=re.escape(
                f"fine solve failed at parameter {params[named]}: planted "
                f"at {params[named]}")) as err:
            self.sweep(config)
        assert str(err.value.__cause__) == f"planted at {params[named]}"

    def test_a_killed_child_costs_the_runs_it_left(self, tmp_path,
                                                   monkeypatch):
        # the child takes a run while the coarse sweep waits for it and is
        # killed; this process solves the rest from the queue and the
        # killed child's run in the walk, last
        config = StudyConfig.from_text(SWEEP_CONFIGS["rd"])
        params = config.training_parameters()
        cpus(monkeypatch, 2)
        held = tmp_path / "held"
        solved_here = []
        solve_fine = pipeline.solve_fine

        def killed(p):
            held.write_text(repr(p))
            os.kill(os.getpid(), signal.SIGKILL)

        def recording(config, disc, p):
            solved_here.append(p)
            return solve_fine(config, disc, p)

        monkeypatch.setattr(pipeline, "solve_fine", recording)
        in_child(monkeypatch, killed)
        seen = coarse_waits_for(monkeypatch, held)
        fine, fine_trajs, _ = self.sweep(config)
        assert seen == [True]
        assert collections.Counter(solved_here) == collections.Counter(params)
        assert repr(solved_here[-1]) == held.read_text()
        self.assert_solved_here(config, fine, fine_trajs, solve_fine)

    @pytest.mark.parametrize("killed", [False, True])
    @pytest.mark.parametrize("problem", ["heat", "rd"])
    def test_prepared_rows_match_rows_made_here(self, problem, killed,
                                                tmp_path, monkeypatch):
        config = StudyConfig.from_text(SWEEP_CONFIGS[problem])
        cpus(monkeypatch, 2)
        took = tmp_path / "took"
        solve_fine = pipeline.solve_fine

        def taking(p):
            took.touch()
            if killed:
                os.kill(os.getpid(), signal.SIGKILL)

        in_child(monkeypatch, taking)
        seen = coarse_waits_for(monkeypatch, took)
        fine, _, prepared = self.sweep(config)
        assert seen == [True]
        assert list(prepared) == config.training_parameters()
        for p, rows in prepared.items():
            values = solve_fine(config, fine, p).values
            assert np.array_equal(rows, rb.h1_rows(values, fine.forms,
                                                   config.n_max))

    @pytest.mark.skipif(not hasattr(fcntl, "F_SETPIPE_SZ"),
                        reason="shrinks the queue with F_SETPIPE_SZ")
    def test_a_queue_too_small_for_every_index(self, monkeypatch):
        # a one-page pipe holds a page of 4-byte indices, 76 fewer than
        # the runs: this process takes runs from the end of those not yet
        # fed until every index is fed
        config = StudyConfig.from_text(SWEEP_CONFIGS["heat"])
        page = os.sysconf("SC_PAGE_SIZE")
        params = [1.0 + k / 1024 for k in range(page // 4 + 76)]
        cpus(monkeypatch, 2)
        pipes = recorded_pipes(monkeypatch)
        pipe = os.pipe
        parent = os.getpid()
        solved_here = []

        def one_page():
            read, write = pipe()
            fcntl.fcntl(write, fcntl.F_SETPIPE_SZ, page)
            return read, write

        def ramp(config, disc, p):
            if os.getpid() == parent:
                solved_here.append(p)
            values = p * np.linspace(0.0, 1.0, disc.grid.steps + 1)[:, None]
            return FieldTrajectory(mesh=disc.mesh, grid=disc.grid,
                                   values=values + disc.mesh.nodes[:, 0],
                                   parameter=p)

        def last_row(values, forms, n_max):
            return values[-1:]

        monkeypatch.setattr(os, "pipe", one_page)
        monkeypatch.setattr(pipeline, "solve_fine", ramp)
        monkeypatch.setattr(pipeline, "solve_coarse", lambda *args: None)
        monkeypatch.setattr(pipeline, "h1_rows", last_row)
        fine, _, fine_trajs, _, prepared = pipeline._training_runs(
            config, params, {})
        assert len(pipes) == 1 and solved_here[0] == params[-1]
        for p in params:
            want = ramp(config, fine, p).values
            assert np.array_equal(fine_trajs[p].values, want)
            assert np.array_equal(prepared[p], want[-1:])

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="lists open descriptors in /proc/self/fd")
    @pytest.mark.parametrize("ending", ["success", "coarse failure",
                                        "fine failure", "interrupt"])
    def test_the_queue_closes_its_pipe(self, ending, monkeypatch):
        config = StudyConfig.from_text(SWEEP_CONFIGS["heat"])
        cpus(monkeypatch, 2)
        pipes = recorded_pipes(monkeypatch)
        raised = {"success": None, "coarse failure": RuntimeError,
                  "fine failure": RuntimeError,
                  "interrupt": KeyboardInterrupt}[ending]

        def planted(*args):
            raise raised("planted")

        if ending == "coarse failure":
            monkeypatch.setattr(pipeline, "solve_coarse", planted)
        elif raised:
            monkeypatch.setattr(pipeline, "solve_fine", planted)
        before = sorted(os.listdir("/proc/self/fd"))
        with pytest.raises(raised) if raised else contextlib.nullcontext():
            self.sweep(config)
        assert len(pipes) == 1
        assert sorted(os.listdir("/proc/self/fd")) == before

    def test_an_interrupt_kills_and_reaps_the_children(self, monkeypatch):
        config = StudyConfig.from_text(SWEEP_CONFIGS["heat"])
        cpus(monkeypatch, 2)
        forks = recorded_forks(monkeypatch)
        parent = os.getpid()

        def interrupted(config, disc, p):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(30.0)

        monkeypatch.setattr(pipeline, "solve_fine", interrupted)
        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            self.sweep(config)
        assert time.perf_counter() - start < 10.0
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(forks[0], os.WNOHANG)


def failing_folds(monkeypatch, held_out, raised=RuntimeError):
    """Make the fold that holds out a parameter of ``held_out`` raise
    ``raised`` naming that parameter, in whichever process scores it."""
    fit = pipeline.fit

    def failing(config, fine, coarse, fine_trajs, *args):
        for p in config.training_parameters():
            if p not in fine_trajs and p in held_out:
                raise raised(f"planted at {p}")
        return fit(config, fine, coarse, fine_trajs, *args)

    monkeypatch.setattr(pipeline, "fit", failing)


class TestFoldSweep:
    @pytest.fixture(scope="class")
    def one_worker(self):
        """The leave-one-out reports of the sweep configs on one CPU."""
        with pytest.MonkeyPatch.context() as monkeypatch:
            cpus(monkeypatch, 1)
            return {problem: pipeline.leave_one_out(
                StudyConfig.from_text(text))
                for problem, text in SWEEP_CONFIGS.items()}

    @pytest.mark.parametrize("workers", ["no fork", 2, 4])
    @pytest.mark.parametrize("problem", ["heat", "rd"])
    def test_rows_match_one_worker(self, one_worker, problem, workers,
                                   monkeypatch, caplog):
        # four workers are more than the cores of a small host; without
        # os.fork the pass forks nothing and opens no pipe
        config = StudyConfig.from_text(SWEEP_CONFIGS[problem])
        n = len(config.training_parameters())
        pipes = recorded_pipes(monkeypatch)
        if workers == "no fork":
            cpus(monkeypatch, 2)
            monkeypatch.delattr(os, "fork")
            forks, count = [], 1
        else:
            cpus(monkeypatch, workers)
            forks, count = recorded_forks(monkeypatch), min(workers, n)
        with caplog.at_level("INFO", logger="nirb.pipeline"):
            report = pipeline.leave_one_out(config)
        want = one_worker[problem]
        assert report.rows == want.rows
        assert list(report.seconds) == list(want.seconds)
        assert ((report.max_rectified, report.max_projection,
                 report.max_coarse)
                == (want.max_rectified, want.max_projection,
                    want.max_coarse))
        # one fine sweep and one fold sweep, W - 1 children each
        assert len(forks) == 2 * (count - 1)
        assert len(pipes) == (2 if count > 1 else 0)
        assert (f"fine sweep workers: {count}, fold workers: {count}"
                in caplog.text)

    @pytest.mark.parametrize("raised", [RuntimeError, ValueError])
    @pytest.mark.parametrize("held_out", [[1], [2, 1], [3, 2], [0, 3]])
    def test_a_fold_failure_is_raised_as_on_one_worker(self, held_out,
                                                       raised, monkeypatch):
        # whichever worker scores a failing fold, the walk in parameter
        # order raises the first one's error
        config = StudyConfig.from_text(SWEEP_CONFIGS["heat"])
        params = config.training_parameters()
        failing_folds(monkeypatch, [params[i] for i in held_out], raised)
        errors = []
        for n in (1, 2, 4):
            cpus(monkeypatch, n)
            with pytest.raises(raised) as err:
                pipeline.leave_one_out(config)
            errors.append(str(err.value))
        assert errors == [f"planted at {params[min(held_out)]}"] * 3

    def test_a_killed_fold_worker_costs_the_folds_it_held(self, tmp_path,
                                                          monkeypatch):
        config = StudyConfig.from_text(SWEEP_CONFIGS["rd"])
        cpus(monkeypatch, 1)
        want = pipeline.leave_one_out(config)
        # the child takes a fold while this process waits for it and is
        # killed; the walk scores the fold it held here
        cpus(monkeypatch, 2)
        parent = os.getpid()
        held = tmp_path / "held"
        fit = pipeline.fit

        def killed(*args):
            if os.getpid() != parent:
                held.touch()
                os.kill(os.getpid(), signal.SIGKILL)
            assert wait_for(held)
            return fit(*args)

        monkeypatch.setattr(pipeline, "fit", killed)
        assert pipeline.leave_one_out(config).rows == want.rows

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="lists open descriptors in /proc/self/fd")
    @pytest.mark.parametrize("ending", ["success", "fold failure",
                                        "interrupt"])
    def test_the_fold_sweep_leaves_nothing_open(self, ending, monkeypatch):
        # the conftest fails a test after which a child is left
        config = StudyConfig.from_text(SWEEP_CONFIGS["heat"])
        params = config.training_parameters()
        cpus(monkeypatch, 2)
        forks = recorded_forks(monkeypatch)
        parent = os.getpid()
        fit = pipeline.fit
        raised = {"success": None, "fold failure": RuntimeError,
                  "interrupt": KeyboardInterrupt}[ending]

        def interrupted(*args):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(30.0)

        if ending == "fold failure":
            failing_folds(monkeypatch, params)
        elif raised:
            monkeypatch.setattr(pipeline, "fit", interrupted)
        before = sorted(os.listdir("/proc/self/fd"))
        start = time.perf_counter()
        with pytest.raises(raised) if raised else contextlib.nullcontext():
            pipeline.leave_one_out(config)
        assert time.perf_counter() - start < 10.0
        assert len(forks) == 2
        assert sorted(os.listdir("/proc/self/fd")) == before
        for pid in forks:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_the_fine_nodes_are_located_once_per_pass(self, workers,
                                                      tmp_path, monkeypatch):
        # every process appends one line per location to one file; the
        # fold workers inherit the parent's
        config = StudyConfig.from_text(SWEEP_CONFIGS["heat"])
        cpus(monkeypatch, workers)
        located = tmp_path / "located"
        transfer_operator = fem.transfer_operator

        def recording(*args):
            with open(located, "a") as out:
                out.write(f"{os.getpid()}\n")
            return transfer_operator(*args)

        monkeypatch.setattr(fem, "transfer_operator", recording)
        pipeline.leave_one_out(config)
        assert located.read_text().split() == [str(os.getpid())]


class TestCoarseOnly:
    def test_online_runs_no_fine_solve(self, study, monkeypatch):
        config, artifacts = study

        def fine_solve(*args, **kwargs):
            raise AssertionError("the online stage ran a fine solve")

        monkeypatch.setattr(integrators, "heat_backward_euler", fine_solve)
        monkeypatch.setattr(pipeline, "solve_fine", fine_solve)
        for mu in (4.5, 1.0):
            values = pipeline.online(artifacts, mu).trajectory.values
            assert values.shape == (config.fine_steps + 1,
                                    artifacts.fine.mesh.n_nodes)
            assert np.isfinite(values).all()

    def test_online_never_derives_the_coarse_values(self, study,
                                                    monkeypatch):
        # the coefficients are read off the modal states of the coarse run,
        # which is never carried back to nodal values
        _, artifacts = study
        runs = []
        solve_coarse = pipeline.solve_coarse

        def recording(*args, **kwargs):
            runs.append(solve_coarse(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(pipeline, "solve_coarse", recording)
        for mode in ("plain", "rectified"):
            pipeline.online(artifacts, 4.5, mode=mode)
        assert len(runs) == 2
        for run in runs:
            assert isinstance(run, integrators.ModalTrajectory)
            assert "values" not in vars(run)

    def test_modal_coefficients_match_the_derived_values(self, study):
        config, artifacts = study
        W, lift = artifacts.time_weights, artifacts.lift
        for mu in (0.5, 4.5, 9.5):
            coarse = pipeline.solve_coarse(config, artifacts.coarse, mu)
            got = coarse_to_fine_coefficients(coarse, lift, W)
            want = W @ (coarse.values @ lift)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_coarse_run_on_a_foreign_grid_is_rejected(self, study):
        config, artifacts = study
        grid = artifacts.coarse.grid
        coarse = pipeline.solve_coarse(config, pipeline.discretize(config)[1],
                                       4.5)
        assert coarse.grid is not grid
        same = pipeline.online(artifacts, 4.5, coarse_traj=coarse)
        assert np.array_equal(same.coefficients,
                              pipeline.online(artifacts, 4.5).coefficients)
        finer = TimeGrid(grid.t0, grid.T, 2 * grid.steps)
        shifted = TimeGrid(grid.t0 + 0.25, grid.T + 0.25, grid.steps)
        resampled = quadratic_weights(grid, finer) @ coarse.values
        for traj in (FieldTrajectory(mesh=coarse.mesh, grid=finer,
                                     values=resampled, parameter=4.5),
                     FieldTrajectory(mesh=coarse.mesh, grid=shifted,
                                     values=coarse.values, parameter=4.5)):
            with pytest.raises(ValueError, match=r"coarse trajectory on "
                               r"TimeGrid\(.*\), expected the coarse grid"):
                pipeline.online(artifacts, 4.5, coarse_traj=traj)

    def test_coarse_run_on_a_foreign_mesh_is_rejected(self, study):
        # same node count and grid, another domain: the lift would read its
        # values as if they sat on the artifacts' coarse mesh
        config, artifacts = study
        other = dataclasses.replace(config, domain=(0.0, 2.0, 0.0, 0.5))
        coarse = pipeline.solve_coarse(other, pipeline.discretize(other)[1],
                                       4.5)
        assert coarse.mesh.n_nodes == artifacts.coarse.mesh.n_nodes
        assert coarse.grid == artifacts.coarse.grid
        with pytest.raises(ValueError, match=(
                r"coarse trajectory on the 4x4 mesh on \(0\.0, 2\.0, 0\.0, "
                r"0\.5\), expected the coarse 4x4 mesh on \(0\.0, 1\.0, "
                r"0\.0, 1\.0\)")):
            pipeline.online(artifacts, 4.5, coarse_traj=coarse)

    def test_out_of_bounds_query_is_rejected(self, study):
        # with a precomputed coarse run too: no query skips the check
        config, artifacts = study
        coarse = pipeline.solve_coarse(config, artifacts.coarse, 12.0)
        for given in (None, coarse):
            with pytest.raises(ValueError, match=r"parameter 12\.0 is outside "
                                                 r"the configured bounds"):
                pipeline.online(artifacts, 12.0, coarse_traj=given)

    def test_coarse_run_at_another_parameter_is_rejected(self, study,
                                                         small_rd_text):
        # its coefficients would be labelled with the query's parameter
        config, artifacts = study
        coarse = pipeline.solve_coarse(config, artifacts.coarse, 5.0)
        with pytest.raises(ValueError, match=r"coarse trajectory at parameter "
                                             r"5\.0, expected the query's "
                                             r"2\.0"):
            pipeline.online(artifacts, 2.0, coarse_traj=coarse)
        rd = pipeline.offline(StudyConfig.from_text(small_rd_text),
                              persist=False)
        coarse = pipeline.solve_coarse(rd.config, rd.coarse, (3.0, 2.0, 0.002))
        with pytest.raises(ValueError, match=r"coarse trajectory at parameter "
                                             r"\(3\.0, 2\.0, 0\.002\), "
                                             r"expected the query's "
                                             r"\(2\.5, 1\.5, 0\.002\)"):
            pipeline.online(rd, (2.5, 1.5, 0.002), coarse_traj=coarse)

    @pytest.mark.parametrize("problem, param, form", [
        ("heat", (4.5, 1.0), "one number"),
        ("rd", 3.0, r"a triple \(a, b, alpha\) of numbers"),
        ("rd", (3.0, 2.0), r"a triple \(a, b, alpha\) of numbers")],
        ids=["heat-pair", "rd-number", "rd-pair"])
    def test_misshapen_parameter_is_rejected(self, small_heat_text,
                                             small_rd_text, problem, param,
                                             form):
        # a ValueError, the error of every other bad query parameter
        config = StudyConfig.from_text(
            small_heat_text if problem == "heat" else small_rd_text)
        with pytest.raises(ValueError, match=rf"^parameter .* is not {form}$"):
            pipeline.check_bounds(config, param)

    def test_coarse_failure_shows_before_any_fine_solve(self, monkeypatch):
        # at the default 32^2/16^2 discretization the explicit coarse step
        # diverges at the third training parameter
        config = StudyConfig.from_text("problem = brusselator\nt0 = 0.0\n")
        calls = []
        solve_fine = pipeline.solve_fine

        def counted(*args, **kwargs):
            calls.append(args)
            return solve_fine(*args, **kwargs)

        monkeypatch.setattr(pipeline, "solve_fine", counted)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(RuntimeError, match=r"coarse solve failed at "
                              r"parameter \(2\.0, 1\.0, 0\.01\)"):
            pipeline.offline(config, persist=False)
        assert calls == []


@pytest.fixture
def factors_built(monkeypatch):
    """Sizes of the matrices handed to ``integrators.BandFactor``."""
    built = []
    band_factor = integrators.BandFactor

    def counting(A):
        built.append(A.n)
        return band_factor(A)

    monkeypatch.setattr(integrators, "BandFactor", counting)
    return built


class TestOneFactorPerRun:
    @pytest.mark.parametrize("mu", [4.5, 1.0])
    def test_each_heat_run_builds_one_factor(self, small_heat_text,
                                             factors_built, monkeypatch, mu):
        # a fine run factors its step matrix; coarse runs factor nothing and
        # share one modal decomposition of their form set
        decompositions = []
        pencil_eig = fem.pencil_eig

        def counting(K, M):
            decompositions.append(len(K))
            return pencil_eig(K, M)

        monkeypatch.setattr(fem, "pencil_eig", counting)
        config = StudyConfig.from_text(small_heat_text)
        fine, coarse = pipeline.discretize(config)
        pipeline.solve_fine(config, fine, mu)
        assert factors_built == [fine.forms.free_dofs.size]
        assert decompositions == []
        factors_built.clear()
        for other in (mu, 2.0, 1.0):
            pipeline.solve_coarse(config, coarse, other)
        assert factors_built == []
        assert decompositions == [coarse.forms.free_dofs.size]

    @pytest.mark.parametrize("steps", [8, 6])
    def test_fine_run_is_the_presolve_then_the_window(
            self, small_heat_text, dense_heat_march, steps):
        # implicit Euler from rest over [0, t0] with the window's step, then
        # the window, one dense solve per step
        config = dataclasses.replace(StudyConfig.from_text(small_heat_text),
                                     fine_steps=steps)
        fine, _ = pipeline.discretize(config)
        got = pipeline.solve_fine(config, fine, 4.5).values
        want = dense_heat_march(fine.forms, 4.5, models.manufactured_f,
                                fine.grid, "euler")
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()

    def test_lead_in_off_the_step_builds_its_own_factor(
            self, small_heat_text, dense_heat_march, factors_built):
        # dt = 2/3 does not divide t0 = 1: the lead-in is two steps of 0.5
        config = dataclasses.replace(StudyConfig.from_text(small_heat_text),
                                     T=3.0, fine_steps=3)
        fine, _ = pipeline.discretize(config)
        got = pipeline.solve_fine(config, fine, 4.5).values
        assert len(factors_built) == 2
        want = dense_heat_march(fine.forms, 4.5, models.manufactured_f,
                                fine.grid, "euler")
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()


class TestHeldOutOrdering:
    def test_rectified_below_plain_below_coarse(self, study):
        config, artifacts = study
        ctx = artifacts.context()
        mu = 4.5
        assert mu not in config.training_parameters()
        fine = pipeline.solve_fine(config, ctx.fine, mu)
        coarse = pipeline.solve_coarse(config, ctx.coarse, mu)
        lifted = lift_coarse(coarse, ctx.coarse.forms, ctx.fine,
                             artifacts.time_weights)

        def err(traj):
            return pipeline.evaluate_errors(traj, fine, ctx.fine.forms).rel_energy

        plain = pipeline.online(artifacts, mu, mode="plain", coarse_traj=coarse)
        rect = pipeline.online(artifacts, mu, coarse_traj=coarse)
        assert err(rect.trajectory) < err(plain.trajectory) < err(lifted)


class TestOneStartForEveryParameter:
    # mu = 1 is the parameter with a closed form; its runs start from rest
    # at t = 0 like every other, so the two-grid map does not jump there
    def test_online_is_continuous_at_mu_1(self, study):
        _, artifacts = study
        at = pipeline.online(artifacts, 1.0).trajectory.values
        near = pipeline.online(artifacts, 1.0 + 1e-9).trajectory.values
        assert np.abs(at - near).max() <= 1e-6 * np.abs(at).max()

    def test_rectified_error_at_mu_1_is_small(self, study):
        _, artifacts = study
        errors = pipeline.two_grid_errors(artifacts, 1.0)
        assert errors["rect"].rel_energy <= 1e-4


class TestLift:
    @pytest.fixture
    def two_fields(self, rng):
        forms = fem.assemble(mesh.build_structured(6, 6), bc="neumann_natural")
        coarse = fem.assemble(mesh.build_structured(3, 3), bc="neumann_natural")
        traj = FieldTrajectory(mesh=coarse.mesh, grid=TimeGrid(0.0, 1.0, 3),
                               values=rng.random((4, 2 * coarse.n_dofs)))
        return forms, coarse, traj

    def test_two_fields_lift_field_by_field(self, two_fields):
        forms, coarse_forms, traj = two_fields
        coarse = coarse_forms.mesh
        grid = TimeGrid(0.0, 1.0, 6)
        W = quadratic_weights(traj.grid, grid)
        fine = pipeline.Discretization(mesh=forms.mesh, forms=forms, grid=grid)
        lifted = lift_coarse(traj, coarse_forms, fine, W)
        timed = W @ traj.values
        n = coarse.n_nodes
        want = np.concatenate([interpolate_field(coarse, part, forms.mesh)
                               for part in (timed[:, :n], timed[:, n:])],
                              axis=-1)
        assert lifted.n_fields == 2
        assert np.array_equal(lifted.values, want)

    def test_two_field_lift_projection_is_the_per_field_build(self,
                                                             two_fields, rng):
        forms, coarse, _ = two_fields
        n_fine, n, N = forms.n_dofs, coarse.n_dofs, 3
        basis = rb.ReducedBasis(mesh=forms.mesh,
                                modes=rng.standard_normal((N, 2 * n_fine)))
        phi = lift_projection(basis, forms, coarse)
        idx, w = mesh.transfer_operator(coarse.mesh, forms.mesh.nodes)
        slots = (idx[:, :, None] * N + np.arange(N)).ravel()
        weighted = rb.mass_weighted_modes(basis, forms)
        want = np.concatenate([
            np.bincount(slots, weights=(w[:, :, None]
                                        * part[:, None, :]).ravel(),
                        minlength=n * N).reshape(n, N)
            for part in (weighted[:n_fine], weighted[n_fine:])])
        assert np.array_equal(phi, want)

    def test_projected_lift_is_the_coefficient_map(self, study):
        config, artifacts = study
        ctx = artifacts.context()
        coarse = pipeline.solve_coarse(config, ctx.coarse, 2.0)
        lifted = lift_coarse(coarse, ctx.coarse.forms, ctx.fine,
                             artifacts.time_weights)
        assert lifted.values.shape == (ctx.fine.grid.steps + 1,
                                       ctx.fine.mesh.n_nodes)
        want = rb.coefficients(artifacts.basis, ctx.fine.forms, lifted.values)
        got = coarse_to_fine_coefficients(coarse, artifacts.lift,
                                          artifacts.time_weights)
        # the same linear map with its products associated differently
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_trajectory_on_the_basis_mesh_lifts_to_itself(self, study):
        # the artifacts' operator lifts from the coarse mesh, so a run on
        # the basis mesh needs its own
        config, artifacts = study
        ctx = artifacts.context()
        fine = pipeline.solve_fine(config, ctx.fine, 2.0)
        coarse_in_time = FieldTrajectory(
            mesh=ctx.fine.mesh, grid=TimeGrid(config.t0, config.T, 4),
            values=fine.values[::2], parameter=2.0)
        W = quadratic_weights(coarse_in_time.grid, ctx.fine.grid)
        lifted = lift_coarse(coarse_in_time, ctx.fine.forms, ctx.fine, W)
        want = rb.coefficients(artifacts.basis, ctx.fine.forms, lifted.values)
        phi = lift_projection(artifacts.basis, ctx.fine.forms, ctx.fine.forms)
        got = coarse_to_fine_coefficients(coarse_in_time, phi, W)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


class TestRectification:
    @staticmethod
    def random_training_set(rng, k, N):
        """The (n_times, k, N) lifted coarse and fine coefficient stacks of
        k hand-built fine/coarse runs on 8^2/4^2 meshes in a basis of N
        modes from them."""
        fine_mesh = mesh.build_structured(8, 8)
        coarse_mesh = mesh.build_structured(4, 4)
        forms = fem.assemble(fine_mesh, bc="neumann_natural")
        fine_grid, coarse_grid = TimeGrid(0.0, 1.0, 8), TimeGrid(0.0, 1.0, 4)
        fine_trajs = [FieldTrajectory(
            mesh=fine_mesh, grid=fine_grid, parameter=float(p),
            values=rng.standard_normal((9, fine_mesh.n_nodes)))
            for p in range(k)]
        coarse_trajs = [FieldTrajectory(
            mesh=coarse_mesh, grid=coarse_grid, parameter=float(p),
            values=rng.standard_normal((5, coarse_mesh.n_nodes)))
            for p in range(k)]
        snaps = np.vstack([t.values for t in fine_trajs])
        basis = rb.ReducedBasis(mesh=fine_mesh, modes=rb.mass_orthonormalize(
            rb.pod(snaps, forms, N)[0], forms))
        phi = lift_projection(basis, forms, fem.assemble(coarse_mesh, forms.bc))
        W = quadratic_weights(coarse_grid, fine_grid)
        lifted = np.stack([coarse_to_fine_coefficients(t, phi, W)
                           for t in coarse_trajs], axis=1)
        fine = np.stack([rb.coefficients(basis, forms, t.values)
                         for t in fine_trajs], axis=1)
        return lifted, fine

    def test_exact_reproduction_with_square_training_set(self, rng):
        # With k = N training runs and delta = 0 every per-time-index system
        # is square and nonsingular, so the maps send the lifted coarse
        # coefficients of each run exactly to its fine coefficients.
        lifted, fine = self.random_training_set(rng, 3, 3)
        tensor = build_rectification(lifted, fine, delta_value=0.0)
        assert np.all(tensor.deltas == 0.0)
        for k in range(3):
            got = apply_rectification(tensor, lifted[:, k])
            assert np.abs(got - fine[:, k]).max() <= 1e-10

    @pytest.mark.parametrize("N", [3, 10])
    def test_batched_fit_matches_per_index_dense_solves(self, rng, N):
        # every time index's map is the dense solve of its own regularized
        # normal equations
        A, B = self.random_training_set(rng, 2 * N, N)
        tensor = build_rectification(A, B, delta_value=1e-3)
        assert (tensor.deltas > 0.0).all()
        for n in range(A.shape[0]):
            want = np.linalg.solve(
                A[n].T @ A[n] + tensor.deltas[n] * np.eye(N),
                A[n].T @ B[n]).T
            got = tensor.matrices[n]
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_relative_delta_is_the_scaled_frobenius_norm(self, study):
        # on the heat study's training runs every delta is delta_value
        # times ||A||_F^2, the trace of A^T A, at its time index
        config, artifacts = study
        coarse = [pipeline.solve_coarse(config, artifacts.coarse, mu)
                  for mu in config.train_mu]
        A = np.stack([coarse_to_fine_coefficients(t, artifacts.lift,
                                                  artifacts.time_weights)
                      for t in coarse], axis=1)
        trace = np.trace(A.transpose(0, 2, 1) @ A, axis1=1, axis2=2)
        assert artifacts.tensor.deltas == pytest.approx(
            config.delta_value * trace, rel=1e-12)

    def test_a_failing_time_index_is_named(self, rng):
        # a zero lifted row leaves that index's normal matrix zero, and a
        # NaN row makes it non-finite
        lifted, fine = self.random_training_set(rng, 4, 3)
        lifted[5] = 0.0
        with pytest.raises(ValueError, match=r"rank deficient at delta=0 "
                                             r"\(time index 5: "):
            build_rectification(lifted, fine, delta_value=0.0)
        lifted[5] = np.nan
        with pytest.raises(ValueError, match=r"not positive definite "
                                             r"\(time index 5, pivot 0"):
            build_rectification(lifted, fine, delta_value=1.0)

    def test_mismatched_stacks_rejected(self, rng):
        # the two stacks pair run with run and mode with mode at every time
        # index, so they must share one nonempty (n_times, k, N) shape
        lifted, fine = self.random_training_set(rng, 4, 3)
        for A, B in ((lifted[:, :-1], fine), (lifted, fine[..., :-1]),
                     (lifted[0], fine[0]), (lifted[..., :0], fine[..., :0])):
            with pytest.raises(ValueError, match=r"coefficient stacks of "
                                                 r"shapes .*, expected one "
                                                 r"nonempty"):
                build_rectification(A, B)

    def test_unknown_delta_mode_rejected(self):
        # the fit has one delta rule, scaled by ||A||_F^2; a study
        # that asks for another is refused before any solve
        with pytest.raises(ValueError, match="delta_mode is retired and "
                                             "fixed at relative"):
            StudyConfig.from_text("delta_mode = relatve\n")


class TestEvaluateErrors:
    @pytest.mark.parametrize("bc, n_fields, norm", [
        ("neumann_natural", 2, "h1"), ("dirichlet_zero", 1, "h10")])
    def test_scaled_candidate_reports_the_scale(self, rng, unit_mesh_4, bc,
                                                n_fields, norm):
        forms = fem.assemble(unit_mesh_4, bc=bc)
        grid = TimeGrid(0.0, 1.0, 3)
        values = rng.standard_normal((4, n_fields * unit_mesh_4.n_nodes))
        if bc == "dirichlet_zero":
            values[:, unit_mesh_4.boundary_mask] = 0.0
        reference = FieldTrajectory(mesh=unit_mesh_4, grid=grid, values=values,
                                    parameter=1.0)
        s = 0.25
        candidate = FieldTrajectory(mesh=unit_mesh_4, grid=grid,
                                    values=(1.0 + s) * values, parameter=1.0)
        report = pipeline.evaluate_errors(candidate, reference, forms)
        assert report.energy_norm == norm
        assert report.rel_l2 == pytest.approx(s, abs=1e-14)
        assert report.rel_energy == pytest.approx(s, abs=1e-14)

    def test_run_on_a_foreign_mesh_is_rejected(self, small_heat_text):
        # same node count and grid, another domain: its values would be
        # scored as if they sat on the reference's mesh
        config = StudyConfig.from_text(small_heat_text)
        other = dataclasses.replace(config, domain=(0.0, 2.0, 0.0, 0.5))
        candidate = pipeline.solve_fine(other, pipeline.discretize(other)[0],
                                        4.5)
        fine, _ = pipeline.discretize(config)
        reference = pipeline.solve_fine(config, fine, 4.5)
        assert candidate.mesh.n_nodes == reference.mesh.n_nodes
        assert candidate.grid == reference.grid
        with pytest.raises(ValueError, match=(
                r"candidate on the 8x8 mesh on \(0\.0, 2\.0, 0\.0, 0\.5\), "
                r"reference on the 8x8 mesh on \(0\.0, 1\.0, 0\.0, 1\.0\)")):
            pipeline.evaluate_errors(candidate, reference, fine.forms)

    @pytest.fixture
    def fine_run(self, small_heat_text):
        config = StudyConfig.from_text(small_heat_text)
        fine, _ = pipeline.discretize(config)
        return fine, pipeline.solve_fine(config, fine, 4.5)

    def test_run_on_another_grid_is_rejected(self, fine_run):
        # same mesh and window, twice the steps: its knots are other times
        fine, reference = fine_run
        grid = reference.grid
        finer = TimeGrid(grid.t0, grid.T, 2 * grid.steps)
        candidate = FieldTrajectory(
            mesh=reference.mesh, grid=finer, parameter=4.5,
            values=quadratic_weights(grid, finer) @ reference.values)
        with pytest.raises(ValueError, match=(
                r"candidate on TimeGrid\(.*steps=16\), reference on the "
                r"grid TimeGrid\(.*steps=8\)")):
            pipeline.evaluate_errors(candidate, reference, fine.forms)

    def test_run_with_another_field_count_is_rejected(self, fine_run):
        fine, reference = fine_run
        candidate = dataclasses.replace(
            reference, values=np.hstack([reference.values] * 2))
        assert candidate.n_fields == 2
        with pytest.raises(ValueError, match=r"candidate of 2 fields, "
                                             r"reference of 1"):
            pipeline.evaluate_errors(candidate, reference, fine.forms)

    def test_closed_form_only_on_the_unit_square(self, small_heat_text,
                                                 small_rd_text):
        # the closed form vanishes on the unit square's boundary, not on
        # another domain's, so it is no reference there
        config = StudyConfig.from_text(small_heat_text)
        reference = pipeline.analytic_reference(config, 1.0)
        assert reference.u is models.manufactured_u
        assert pipeline.analytic_reference(config, 4.5) is None
        for domain in ((0.0, 2.0, 0.0, 0.5), (0.0, 1.0, 0.0, 2.0)):
            other = dataclasses.replace(config, domain=domain)
            assert pipeline.analytic_reference(other, 1.0) is None
        rd = StudyConfig.from_text(small_rd_text)
        assert pipeline.analytic_reference(rd, (2.0, 1.0, 0.002)) is None

    def test_analytic_reference_rejects_two_fields(self, unit_mesh_4,
                                                   neumann_forms_4):
        grid = TimeGrid(0.0, 1.0, 2)
        candidate = FieldTrajectory(
            mesh=unit_mesh_4, grid=grid,
            values=np.zeros((3, 2 * unit_mesh_4.n_nodes)))
        reference = pipeline.AnalyticReference(models.manufactured_u,
                                               models.manufactured_grad)
        with pytest.raises(ValueError, match="single fields"):
            pipeline.evaluate_errors(candidate, reference, neumann_forms_4)

    def test_analytic_reference_is_evaluated_once_per_knot(
            self, rng, unit_mesh_4, dirichlet_forms_4):
        # three candidates share one evaluation of the closed form and of
        # its gradient per knot, and each scores as if compared alone
        forms, grid = dirichlet_forms_4, TimeGrid(1.0, 2.0, 3)
        knots = {"u": 0, "grad": 0}

        def counted(name, fn):
            def evaluate(t, x, y):
                knots[name] += np.broadcast(t, x).size // x.size
                return fn(t, x, y)
            return evaluate

        reference = pipeline.AnalyticReference(
            counted("u", models.manufactured_u),
            counted("grad", models.manufactured_grad))
        candidates = {
            name: FieldTrajectory(
                mesh=unit_mesh_4, grid=grid,
                values=rng.standard_normal((4, unit_mesh_4.n_nodes)))
            for name in ("coarse", "nirb", "rect")}
        reports = pipeline.compare(candidates, reference, forms)
        assert knots == {"u": grid.steps + 1, "grad": grid.steps + 1}
        for name, c in candidates.items():
            alone = pipeline.evaluate_errors(c, reference, forms)
            assert alone.parameter == reports[name].parameter == "analytic"
            assert alone.rel_l2 == reports[name].rel_l2
            assert alone.rel_energy == reports[name].rel_energy
            assert np.array_equal(alone.energy_curve,
                                  reports[name].energy_curve)


class TestNewtonFineSolve:
    @pytest.mark.parametrize("param", [(2.0, 1.0, 0.001), (2.5, 1.0, 0.001)])
    def test_slow_diffusion_step_converges(self, param):
        # with a diagonal preconditioner the first Newton linear solve of
        # both parameters stalls at a relative residual near 1e1
        config = StudyConfig.from_text(
            "problem = brusselator\nt0 = 0.0\nT = 5.0\nfine_nx = 16\n"
            "coarse_nx = 8\nfine_steps = 20\ncoarse_steps = 10\n")
        fine, _ = pipeline.discretize(config)
        traj = pipeline.solve_fine(config, fine, param)
        assert np.isfinite(traj.values).all()

    def test_newton_work_stays_locked(self, monkeypatch):
        # the inexact-Newton march with the Eisenstat-Walker forcing term
        # made 344 BiCGStab solves of 1262 iterations in all and 472 Newton
        # residuals on these eight runs; a forcing term of 0.01 tol / ||G||
        # made 343 solves of 2362 iterations, and solving every Newton
        # system to 1e-12 from the previous state made 421 of 4037.  Allow
        # 10 % above each count, the residuals included, so that a forcing
        # term that trades Krylov iterations for Newton iterations fails
        config = StudyConfig.from_text(
            "problem = brusselator\nt0 = 0.0\nT = 2.0\ntrain_a = 2.0,4.0\n"
            "train_b = 1.0,4.0\ntrain_alpha = 0.001,0.005\nfine_nx = 12\n"
            "coarse_nx = 6\nfine_steps = 16\ncoarse_steps = 8\n")
        fine, _ = pipeline.discretize(config)
        work = {"calls": 0, "iters": 0, "residuals": 0}
        bicgstab = integrators.bicgstab_solve
        residual = integrators._ImplicitEulerSystem.residual

        def counting(*args, **kwargs):
            x, iters = bicgstab(*args, **kwargs)
            work["calls"] += 1
            work["iters"] += iters
            return x, iters

        def counting_residual(self, u):
            work["residuals"] += 1
            return residual(self, u)

        monkeypatch.setattr(integrators, "bicgstab_solve", counting)
        monkeypatch.setattr(integrators._ImplicitEulerSystem, "residual",
                            counting_residual)
        for param in config.training_parameters():
            pipeline.solve_fine(config, fine, param)
        assert work["calls"] <= 1.1 * 344
        assert work["iters"] <= 1.1 * 1262
        assert work["residuals"] <= 1.1 * 472


class TestStudy:
    @pytest.fixture(scope="class")
    def heat_config(self):
        return dataclasses.replace(
            StudyConfig(), train_mu=(0.5, 2.0, 3.5, 5.0, 6.5, 8.0, 9.5),
            study_levels=(8, 16, 32))

    @pytest.fixture(scope="class")
    def study_slopes(self, heat_config):
        """The H1 slopes of the study under a coupling, each study run once."""
        @functools.cache
        def slopes(coupling):
            return pipeline.convergence_study(heat_config, coupling).slopes
        return slopes

    @pytest.mark.parametrize("coupling", ["2h", "sqrt"])
    def test_fine_rate_is_first_order(self, study_slopes, coupling):
        # the P1 rate in H1 against the closed form at mu = 1
        assert 0.9 <= study_slopes(coupling)["fine", "energy"] <= 1.1

    def test_sqrt_coupling_gives_the_better_rectified_rate(self,
                                                           study_slopes):
        # the rectified run keeps the fine rate; the lifted coarse run, with
        # H ~ sqrt(h), loses about half of it
        slopes = study_slopes("sqrt")
        assert abs(slopes["rect", "energy"] - slopes["fine", "energy"]) <= 0.05
        assert slopes["rect", "energy"] > slopes["coarse", "energy"] + 0.5

    def test_2h_rectified_rate_follows_the_fine_rate(self, study_slopes):
        slopes = study_slopes("2h")
        assert abs(slopes["rect", "energy"] - slopes["fine", "energy"]) <= 0.05

    def test_bad_ladder_fails_before_any_offline(self, heat_config,
                                                 monkeypatch):
        calls = []
        monkeypatch.setattr(pipeline, "offline",
                            lambda *a, **k: calls.append(a))
        config = dataclasses.replace(heat_config, study_levels=(8, 15))
        with pytest.raises(ValueError, match="even mesh counts"):
            pipeline.convergence_study(config, "2h")
        assert calls == []

    def test_invalid_last_rung_fails_before_any_offline(self, heat_config,
                                                        monkeypatch):
        # rung 2 of the 2h coupling has a one-cell coarse mesh, without an
        # interior node; it is refused before rung 16's offline runs
        calls = []
        monkeypatch.setattr(pipeline, "offline",
                            lambda *a, **k: calls.append(a))
        config = dataclasses.replace(heat_config, study_levels=(16, 2))
        with pytest.raises(ValueError, match="coarse_nx = 1 leaves the heat "
                                             "problem's coarse mesh without "
                                             "an interior node"):
            pipeline.convergence_study(config, "2h")
        assert calls == []

    def test_out_of_bounds_test_parameter_fails_before_any_solve(
            self, heat_config, monkeypatch):
        calls = []
        for name in ("offline", "solve_fine"):
            monkeypatch.setattr(pipeline, name,
                                lambda *a, name=name, **k: calls.append(name))
        config = dataclasses.replace(heat_config, test_mu=12.0).validate()
        with pytest.raises(ValueError, match="parameter 12.0 is outside the "
                                             "configured bounds"):
            pipeline.convergence_study(config, "2h")
        assert calls == []

    def test_repeated_levels_fail_before_any_offline(self, heat_config,
                                                     monkeypatch):
        # a repeated level would make every log-log slope divide by zero
        calls = []
        monkeypatch.setattr(pipeline, "offline",
                            lambda *a, **k: calls.append(a))
        config = dataclasses.replace(heat_config, study_levels=(8, 8))
        with pytest.raises(ValueError, match="repeated levels"):
            pipeline.convergence_study(config, "2h")
        assert calls == []
