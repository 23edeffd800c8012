import dataclasses
import functools

import numpy as np
import pytest

from nirb import fem, integrators, io, mesh, models, pipeline
from nirb import reduced_basis as rb
from nirb.config import StudyConfig
from nirb.integrators import FieldTrajectory, TimeGrid, heat_backward_euler
from nirb.mesh import interpolate_field
from nirb.rectification import (apply_rectification, build_rectification,
                                coarse_to_fine_coefficients, lift_coarse,
                                lift_projection)
from nirb.time_interp import quadratic_time_interp, quadratic_weights


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


class TestOneLiftPerFit:
    @pytest.fixture
    def lifts(self, monkeypatch):
        """Coarse node counts of every lift-projection operator built."""
        built = []

        def counting(basis, forms, coarse_mesh):
            built.append(coarse_mesh.n_nodes)
            return lift_projection(basis, forms, coarse_mesh)

        for module in (pipeline, io):
            monkeypatch.setattr(module, "lift_projection", counting)
        return built

    def test_offline_load_and_online(self, small_heat_text, tmp_path, lifts):
        config = StudyConfig.from_text(small_heat_text
                                       + f"output_dir = {tmp_path}\n")
        artifacts = pipeline.offline(config)
        assert lifts == [artifacts.coarse.mesh.n_nodes]
        loaded = pipeline.load_artifacts(config)
        assert len(lifts) == 2
        for arts in (artifacts, loaded):
            for mu in (4.5, 1.0):
                for mode in ("plain", "rectified"):
                    pipeline.online(arts, mu, mode=mode)
        assert len(lifts) == 2

    def test_one_per_leave_one_out_fold(self, study, lifts):
        config, _ = study
        pipeline.leave_one_out(config)
        assert len(lifts) == len(config.training_parameters())

    def test_leave_one_out_takes_four_norms_per_held_out_value(
            self, study, monkeypatch):
        # the held-out fine run's curves once, then one per candidate:
        # rectified, projection and lifted coarse
        config, _ = study
        calls = []

        def counting(*args):
            calls.append(args)
            return fem.norms(*args)

        monkeypatch.setattr(pipeline, "norms", counting)
        pipeline.leave_one_out(config)
        assert len(calls) == 4 * len(config.training_parameters())

    def test_validate_rejects_a_lift_for_another_coarse_mesh(self, study):
        _, artifacts = study
        other = mesh.build_structured(5, 5)
        odd = dataclasses.replace(artifacts, lift=lift_projection(
            artifacts.basis, artifacts.fine.forms, other))
        with pytest.raises(ValueError, match="lift-projection operator of "
                                             "shape"):
            odd.validate()
        assert artifacts.validate() is artifacts

    def test_validate_rejects_time_weights_for_another_grid(self, study):
        _, artifacts = study
        fine = artifacts.fine.grid
        other = TimeGrid(fine.t0, fine.T, 2 * fine.steps)
        odd = dataclasses.replace(artifacts, time_weights=quadratic_weights(
            artifacts.coarse.grid, other))
        with pytest.raises(ValueError, match=r"time weights of shape "
                           r"\(\d+, \d+\), expected \(\d+, \d+\)"):
            odd.validate()


class TestCoarseOnly:
    def test_online_runs_no_fine_solve(self, study, monkeypatch):
        config, artifacts = study

        def fine_solve(*args, **kwargs):
            raise AssertionError("the online stage ran a fine solve")

        monkeypatch.setattr(pipeline, "heat_backward_euler", fine_solve)
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
        for traj in (quadratic_time_interp(coarse, finer),
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


def presolve_then_window(config, fine, mu):
    """A fine heat run composed by hand: implicit Euler from rest over
    [0, t0] with the window's step, then the window from its last state."""
    f, tol = models.manufactured_f, config.cg_tol
    pre = TimeGrid(0.0, config.t0, max(1, round(config.t0 / fine.grid.dt)))
    lead = heat_backward_euler(fine.forms, mu, f,
                               np.zeros(fine.mesh.n_nodes), pre, cg_tol=tol)
    return heat_backward_euler(fine.forms, mu, f, lead.values[-1], fine.grid,
                               cg_tol=tol)


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
    def test_fine_run_is_the_presolve_then_the_window(self, small_heat_text,
                                                      steps):
        config = dataclasses.replace(StudyConfig.from_text(small_heat_text),
                                     fine_steps=steps)
        fine, _ = pipeline.discretize(config)
        got = pipeline.solve_fine(config, fine, 4.5).values
        assert np.array_equal(got, presolve_then_window(config, fine,
                                                        4.5).values)

    def test_lead_in_off_the_step_builds_its_own_factor(self, small_heat_text,
                                                         factors_built):
        # dt = 2/3 does not divide t0 = 1: the lead-in is two steps of 0.5
        config = dataclasses.replace(StudyConfig.from_text(small_heat_text),
                                     T=3.0, fine_steps=3)
        fine, _ = pipeline.discretize(config)
        got = pipeline.solve_fine(config, fine, 4.5).values
        assert len(factors_built) == 2
        assert np.isfinite(got).all()
        assert np.array_equal(got, presolve_then_window(config, fine,
                                                        4.5).values)


class TestHeldOutOrdering:
    def test_rectified_below_plain_below_coarse(self, study):
        config, artifacts = study
        ctx = artifacts.context()
        mu = 4.5
        assert mu not in config.training_parameters()
        fine = pipeline.solve_fine(config, ctx.fine, mu)
        coarse = pipeline.solve_coarse(config, ctx.coarse, mu)
        lifted = lift_coarse(coarse, ctx.fine.mesh, ctx.fine.grid)

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
        coarse = mesh.build_structured(3, 3)
        traj = FieldTrajectory(mesh=coarse, grid=TimeGrid(0.0, 1.0, 3),
                               values=rng.random((4, 2 * coarse.n_nodes)))
        return forms, coarse, traj

    def test_two_fields_lift_field_by_field(self, two_fields):
        forms, coarse, traj = two_fields
        grid = TimeGrid(0.0, 1.0, 6)
        lifted = lift_coarse(traj, forms.mesh, grid)
        timed = quadratic_time_interp(traj, grid).values
        n = coarse.n_nodes
        want = np.concatenate([interpolate_field(coarse, part, forms.mesh)
                               for part in (timed[:, :n], timed[:, n:])],
                              axis=-1)
        assert lifted.n_fields == 2
        assert np.array_equal(lifted.values, want)

    def test_two_field_lift_projection_is_the_per_field_build(self,
                                                             two_fields, rng):
        forms, coarse, _ = two_fields
        n_fine, n, N = forms.n_dofs, coarse.n_nodes, 3
        basis = rb.ReducedBasis(mesh=forms.mesh,
                                modes=rng.standard_normal((N, 2 * n_fine)))
        phi = lift_projection(basis, forms, coarse)
        idx, w = mesh.transfer_operator(coarse, forms.mesh.nodes)
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
        lifted = lift_coarse(coarse, ctx.fine.mesh, ctx.fine.grid)
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
        lifted = lift_coarse(coarse_in_time, ctx.fine.mesh, ctx.fine.grid)
        want = rb.coefficients(artifacts.basis, ctx.fine.forms, lifted.values)
        phi = lift_projection(artifacts.basis, ctx.fine.forms, ctx.fine.mesh)
        W = quadratic_weights(coarse_in_time.grid, ctx.fine.grid)
        got = coarse_to_fine_coefficients(coarse_in_time, phi, W)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


class TestRectification:
    def test_exact_reproduction_with_square_training_set(self, rng):
        # With k = N training runs and delta = 0 every per-time-index system
        # is square and nonsingular, so the maps send the lifted coarse
        # coefficients of each run exactly to its fine coefficients.
        fine_mesh = mesh.build_structured(8, 8)
        coarse_mesh = mesh.build_structured(4, 4)
        forms = fem.assemble(fine_mesh, bc="neumann_natural")
        fine_grid = TimeGrid(0.0, 1.0, 8)
        coarse_grid = TimeGrid(0.0, 1.0, 4)
        params = [1.0, 2.0, 3.0]
        fine_trajs = {p: FieldTrajectory(
            mesh=fine_mesh, grid=fine_grid, parameter=p,
            values=rng.standard_normal((9, fine_mesh.n_nodes)))
            for p in params}
        coarse_trajs = {p: FieldTrajectory(
            mesh=coarse_mesh, grid=coarse_grid, parameter=p,
            values=rng.standard_normal((5, coarse_mesh.n_nodes)))
            for p in params}
        snaps = np.vstack([t.values for t in fine_trajs.values()])
        modes, _ = rb.pod(snaps, forms, 3)
        basis = rb.ReducedBasis(mesh=fine_mesh, modes=modes)

        phi = lift_projection(basis, forms, coarse_mesh)
        W = quadratic_weights(coarse_grid, fine_grid)
        tensor = build_rectification(fine_trajs, coarse_trajs, basis, forms,
                                     phi, W, "absolute", 0.0)
        assert np.all(tensor.deltas == 0.0)
        for p in params:
            lifted = coarse_to_fine_coefficients(coarse_trajs[p], phi, W)
            got = apply_rectification(tensor, lifted)
            want = rb.coefficients(basis, forms, fine_trajs[p].values)
            assert np.abs(got - want).max() <= 1e-10

    def test_mismatched_training_sets_rejected(self, study):
        config, artifacts = study
        ctx = artifacts.context()
        fine = {1.0: pipeline.solve_fine(config, ctx.fine, 1.0)}
        coarse = {2.0: pipeline.solve_coarse(config, ctx.coarse, 2.0)}
        with pytest.raises(ValueError, match="differ"):
            build_rectification(fine, coarse, artifacts.basis, ctx.fine.forms,
                                artifacts.lift, artifacts.time_weights)

    def test_unknown_delta_mode_rejected(self, study):
        config, artifacts = study
        ctx = artifacts.context()
        fine = {2.0: pipeline.solve_fine(config, ctx.fine, 2.0)}
        coarse = {2.0: pipeline.solve_coarse(config, ctx.coarse, 2.0)}
        with pytest.raises(ValueError, match="unknown delta_mode 'relatve'"):
            build_rectification(fine, coarse, artifacts.basis, ctx.fine.forms,
                                artifacts.lift, artifacts.time_weights,
                                "relatve")


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
        # the inexact-Newton march made 343 BiCGStab solves of 2362
        # iterations in all on these eight runs, where solving every Newton
        # system to 1e-12 from the previous state made 421 of 4037; allow
        # 10 % above the former
        config = StudyConfig.from_text(
            "problem = brusselator\nt0 = 0.0\nT = 2.0\ntrain_a = 2.0,4.0\n"
            "train_b = 1.0,4.0\ntrain_alpha = 0.001,0.005\nfine_nx = 12\n"
            "coarse_nx = 6\nfine_steps = 16\ncoarse_steps = 8\n")
        fine, _ = pipeline.discretize(config)
        work = {"calls": 0, "iters": 0}
        bicgstab = integrators.bicgstab_solve

        def counting(*args, **kwargs):
            x, iters = bicgstab(*args, **kwargs)
            work["calls"] += 1
            work["iters"] += iters
            return x, iters

        monkeypatch.setattr(integrators, "bicgstab_solve", counting)
        for param in config.training_parameters():
            pipeline.solve_fine(config, fine, param)
        assert work["calls"] <= 1.1 * 343
        assert work["iters"] <= 1.1 * 2362


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

    def test_out_of_bounds_test_parameter_warns_once(self, small_heat_text,
                                                     caplog):
        config = dataclasses.replace(
            StudyConfig.from_text(small_heat_text), test_mu=12.0,
            strict_bounds=False, study_levels=(4, 8)).validate()
        pipeline.convergence_study(config, "2h")
        warnings = [r for r in caplog.records
                    if "outside the configured bounds" in r.getMessage()]
        assert len(warnings) == 1

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
