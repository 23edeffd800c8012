import dataclasses
import re
import warnings

import numpy as np
import pytest

from nirb import fem, integrators, linalg, mesh, models, pipeline
from nirb.config import StudyConfig


def zero_source(t, x, y):
    return 0.0


@pytest.fixture(scope="module")
def dirichlet_2x2():
    m = mesh.build_structured(2, 2)
    return fem.assemble(m, bc="dirichlet_zero")


@pytest.fixture(scope="module")
def neumann_8x8():
    m = mesh.build_structured(8, 8)
    return fem.assemble(m, bc="neumann_natural")


class TestTimeGrid:
    def test_spacing(self):
        g = integrators.TimeGrid(1.0, 2.0, 4)
        assert g.dt == pytest.approx(0.25)
        t = g.times()
        assert t.shape == (5,)
        assert t[0] == 1.0 and t[-1] == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            integrators.TimeGrid(0.0, 1.0, 0)
        with pytest.raises(ValueError):
            integrators.TimeGrid(1.0, 1.0, 4)


def time_source(t, x, y):
    return t


def bump_source(t, x, y):
    return np.sin(np.pi * x) * np.sin(np.pi * y)


def pulse_source(t, x, y):
    # a unit source on [0, 0.1], off afterwards
    return 1.0 if t <= 0.1 else 0.0


class TestHeatSchemes:
    def test_backward_euler_single_free_dof(self, dirichlet_2x2):
        # One interior node: M_ff = [1/8], K_ff = [4], and the source t loads
        # it with b(t) = t/4.  With dt = 1/32 the step from rest is
        # (M + dt K) u1 = dt b(dt), i.e. u1 = 4 dt b(dt) = 1/1024.
        grid = integrators.TimeGrid(0.0, 1.0 / 32.0, 1)
        traj = integrators.heat_backward_euler(dirichlet_2x2, 1.0,
                                               time_source, grid)
        assert traj.values[1, 4] == pytest.approx(1.0 / 1024.0, rel=1e-12)

    def test_crank_nicolson_single_free_dof(self, dirichlet_2x2):
        # (M + dt/2 K) u1 = dt b(dt/2), i.e. u1 = (16/3) dt b(dt/2) = 1/1536
        grid = integrators.TimeGrid(0.0, 1.0 / 32.0, 1)
        traj = integrators.heat_crank_nicolson(dirichlet_2x2, 1.0,
                                               time_source, grid)
        assert traj.values[1, 4] == pytest.approx(1.0 / 1536.0, rel=1e-12)

    def test_zero_data_stays_zero(self, dirichlet_2x2):
        for grid in (integrators.TimeGrid(0.0, 1.0, 8),
                     integrators.TimeGrid(1.0, 2.0, 8)):
            for march in (integrators.heat_backward_euler,
                          integrators.heat_crank_nicolson):
                traj = march(dirichlet_2x2, 2.0, zero_source, grid)
                assert np.abs(traj.values).max() == 0.0

    def test_source_free_decay_monotone(self):
        # the pulse heats the plate over the lead-in [0, 0.1]; over the
        # window the source is off and the state decays
        m = mesh.build_structured(8, 8)
        forms = fem.assemble(m, bc="dirichlet_zero")
        grid = integrators.TimeGrid(0.1, 0.2, 10)
        traj = integrators.heat_backward_euler(forms, 1.0, pulse_source, grid)
        sup = np.abs(traj.values).max(axis=1)
        assert sup[0] > 0.0
        assert np.all(np.diff(sup) < 0.0)
        assert sup[-1] < 0.3 * sup[0]

    def test_cn_beats_be_at_equal_step(self, monkeypatch):
        # Against a tiny-step reference, the trapezoidal march lands much
        # closer than implicit Euler at the same coarse step.
        forms = fem.assemble(mesh.build_structured(4, 4), bc="dirichlet_zero")
        coarse = integrators.TimeGrid(0.0, 0.2, 4)
        ref_grid = integrators.TimeGrid(0.0, 0.2, 512)
        with monkeypatch.context() as m:
            m.setattr(integrators, "STEP_TOL", 1e-12)
            ref = integrators.heat_crank_nicolson(forms, 1.0, bump_source,
                                                  ref_grid)
        be = integrators.heat_backward_euler(forms, 1.0, bump_source, coarse)
        cn = integrators.heat_crank_nicolson(forms, 1.0, bump_source, coarse)
        err_be = np.abs(be.values[-1] - ref.values[-1]).max()
        err_cn = np.abs(cn.values[-1] - ref.values[-1]).max()
        assert err_cn < 0.2 * err_be


class TestFactoredMarch:
    @pytest.fixture
    def forms(self):
        return fem.assemble(mesh.build_structured(8, 8), bc="dirichlet_zero")

    @pytest.mark.parametrize("scheme, march", [
        ("euler", integrators.heat_backward_euler),
        ("cn", integrators.heat_crank_nicolson)])
    def test_matches_per_step_cg(self, forms, dense_heat_march, scheme,
                                 march):
        # with no lead-in (t0 = 0), with a lead-in of window steps (t0 = 1)
        # and with one whose steps are not the window's (t0 = 0.5, dt = 3/14:
        # implicit Euler leads in by two steps of 1/4 with a factor of its
        # own); the slow mu keeps the lead-in's transient alive at t0, so a
        # lead-in of the wrong step size shows
        f = models.manufactured_f
        for mu, grid in ((3.0, integrators.TimeGrid(0.0, 1.0, 8)),
                         (0.5, integrators.TimeGrid(1.0, 2.0, 8)),
                         (0.5, integrators.TimeGrid(0.5, 2.0, 7))):
            got = march(forms, mu, f, grid).values
            want = dense_heat_march(forms, mu, f, grid, scheme)
            assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()

    def test_impossible_tolerance_names_step_and_residual(self, forms,
                                                          monkeypatch):
        f = models.manufactured_f
        monkeypatch.setattr(integrators, "STEP_TOL", 1e-20)
        with pytest.raises(RuntimeError,
                           match=r"time step 1 \(t=0.125\): relative residual "
                                 r"\S+ exceeds 1.0e-20"):
            integrators.heat_backward_euler(
                forms, 3.0, f, integrators.TimeGrid(0.0, 1.0, 8))
        with pytest.raises(RuntimeError,
                           match=r"lead-in step 1 \(t=0.125\): relative "
                                 r"residual \S+ exceeds 1.0e-20"):
            integrators.heat_backward_euler(
                forms, 3.0, f, integrators.TimeGrid(1.0, 2.0, 8))

    def test_second_march_reuses_the_loads(self, forms, monkeypatch):
        calls = []

        def counting_load_vector(*args):
            calls.append(args)
            return load_vector(*args)

        load_vector = fem.load_vector
        monkeypatch.setattr(fem, "load_vector", counting_load_vector)
        f = models.manufactured_f
        # the window's steps and the lead-in's 16 half steps over [0, 1]
        grid = integrators.TimeGrid(1.0, 2.0, 8)
        first = integrators.heat_crank_nicolson(forms, 2.0, f, grid)
        assert len(calls) == 16 + grid.steps
        second = integrators.heat_crank_nicolson(forms, 2.0, f, grid)
        assert len(calls) == 16 + grid.steps
        assert np.array_equal(second.values, first.values)


class TestModalMarch:
    @pytest.fixture(scope="class")
    def forms(self):
        return fem.assemble(mesh.build_structured(8, 8), bc="dirichlet_zero")

    @pytest.mark.parametrize("T, steps", [(2.0, 8), (3.0, 3), (2.5, 2)],
                             ids=["dt-1/8", "T3-3-steps", "off-step"])
    @pytest.mark.parametrize("mu", [0.5, 1.0, 4.0, 9.5])
    def test_matches_per_step_cg(self, forms, dense_heat_march, T, steps,
                                 mu):
        # from t0 = 1 through the half-step lead-in, and from t0 = 0 with
        # none; at T = 2.5 in two steps the lead-in's three steps of 1/3 are
        # not dt/2
        f = models.manufactured_f
        for grid in (integrators.TimeGrid(1.0, T, steps),
                     integrators.TimeGrid(0.0, T - 1.0, steps)):
            got = integrators.heat_crank_nicolson(forms, mu, f, grid).values
            want = dense_heat_march(forms, mu, f, grid, "cn")
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_impossible_tolerance_names_step_and_residual(self, forms,
                                                          monkeypatch):
        f = models.manufactured_f
        monkeypatch.setattr(integrators, "STEP_TOL", 1e-20)
        with pytest.raises(RuntimeError,
                           match=r"^time step 1 \(t=0.125\): relative "
                                 r"residual \S+ exceeds 1.0e-20$"):
            integrators.heat_crank_nicolson(
                forms, 3.0, f, integrators.TimeGrid(0.0, 1.0, 8))
        with pytest.raises(RuntimeError,
                           match=r"^lead-in step 1 \(t=0.0625\): relative "
                                 r"residual \S+ exceeds 1.0e-20$"):
            integrators.heat_crank_nicolson(
                forms, 3.0, f, integrators.TimeGrid(1.0, 2.0, 8))

    def test_corrupted_decomposition_trips_the_guard(self, monkeypatch):
        sym_eig = linalg.sym_eig

        def skewed(G, top=None):
            lam, W = sym_eig(G, top)
            return lam * (1.0 + 1e-6), W

        monkeypatch.setattr(linalg, "sym_eig", skewed)
        forms = fem.assemble(mesh.build_structured(4, 4))
        with pytest.raises(RuntimeError, match=r"modal decomposition of the "
                           r"9-dof pencil failed its check: residual \S+, "
                           r"M-orthogonality defect \S+ \(limit 1e-10\)"):
            forms.free_eigenpairs()

    def test_perturbed_eigenvector_trips_the_guard(self, monkeypatch):
        # the bound of every step check rests on the guard's residual E,
        # so a decomposition whose vectors do not solve the pencil must stop
        # at the guard
        sym_eig = linalg.sym_eig

        def perturbed(G, top=None):
            lam, W = sym_eig(G, top)
            W = W.copy()
            W[:, 3] += 1e-6 * W[:, 4]
            return lam, W

        monkeypatch.setattr(linalg, "sym_eig", perturbed)
        forms = fem.assemble(mesh.build_structured(4, 4))
        with pytest.raises(RuntimeError, match=r"modal decomposition of the "
                           r"9-dof pencil failed its check"):
            forms.free_eigenpairs()

    @staticmethod
    def corrupt_modal_loads(forms, grid, lag):
        # the first pushed load off by one part in a million, as a corrupted
        # modal load row would be; the defects are then taken of it
        f = models.manufactured_f
        G = forms.modal_loads(f, grid, lag).copy()
        G[0] *= 1.0 + 1e-6
        forms._cache[("modal loads", f, grid, lag)] = G

    def test_corrupted_cache_fails_the_step_residuals(self):
        # a march that pushes other loads than the nodal ones fails the step
        # check: the bound cannot certify the step, and its exact nodal
        # residual fails
        forms = fem.assemble(mesh.build_structured(4, 4))
        grid = integrators.TimeGrid(1.0, 2.0, 4)
        self.corrupt_modal_loads(forms, grid, 0.5 * grid.dt)
        with pytest.raises(RuntimeError, match=r"^time step 1 \(t=1.25\)"):
            integrators.heat_crank_nicolson(forms, 2.0, models.manufactured_f,
                                            grid)

    def test_corrupted_cache_fails_the_lead_in_residuals(self):
        # the lead-in's states are checked although they are never carried
        # back to nodal values
        forms = fem.assemble(mesh.build_structured(4, 4))
        grid = integrators.TimeGrid(1.0, 2.0, 4)
        self.corrupt_modal_loads(forms, integrators.TimeGrid(0.0, 1.0, 8),
                                 0.0)
        with pytest.raises(RuntimeError, match=r"^lead-in step 1 "
                                               r"\(t=0\.125\)"):
            integrators.heat_crank_nicolson(forms, 2.0, models.manufactured_f,
                                            grid)

    @staticmethod
    def record_products(forms, monkeypatch):
        """The shapes of the dense products made from now on by the march
        and by the forms, after the form set's modal setup, whose own
        products are made once per form set."""
        forms.free_eigenpairs()
        shapes = []
        blocked_matmul = integrators.blocked_matmul

        def recording(A, B):
            shapes.append((np.shape(A), np.shape(B)))
            return blocked_matmul(A, B)

        monkeypatch.setattr(integrators, "blocked_matmul", recording)
        monkeypatch.setattr(fem, "blocked_matmul", recording)
        return shapes

    def test_march_makes_two_dense_products(self, forms, monkeypatch,
                                            small_heat_text, tmp_path):
        # the march and its step check make no dense product; reading a
        # product of the values off the modal states makes two, of the
        # (cols, n) operand with V (``AssembledForms.modal_operand``) and
        # with the window's states, and only the second once the forms keep
        # the first for a read-only operand; a return to nodal states or a
        # nodal residual product fails here
        shapes = self.record_products(forms, monkeypatch)
        grid = integrators.TimeGrid(1.0, 2.0, 8)
        traj = integrators.heat_crank_nicolson(forms, 2.0,
                                               models.manufactured_f, grid)
        assert shapes == []
        B = np.ones((forms.n_dofs, 3))
        B.flags.writeable = False
        want = traj.values_times(B)
        n = forms.free_dofs.size
        assert shapes == [((3, n), (n, n)), ((3, n), (n, grid.steps + 1))]
        shapes.clear()
        assert np.array_equal(traj.values_times(B), want)
        assert shapes == [((3, n), (n, grid.steps + 1))]

        # the coarse forms keep the modal operand of the artifacts'
        # read-only lift: one (N, n) by (n, n) product per artifacts, made
        # by the fit and read by every query, and by the first query of
        # loaded artifacts, not by the load
        config = StudyConfig.from_text(small_heat_text
                                       + f"output_dir = {tmp_path}\n")
        shapes.clear()
        artifacts = pipeline.offline(config)
        N, n = artifacts.lift.shape[1], artifacts.coarse.forms.free_dofs.size

        def operand_products():
            return shapes.count(((N, n), (n, n)))

        for mu in (4.5, 1.0, 7.0):
            pipeline.online(artifacts, mu)
        assert operand_products() == 1
        loaded = pipeline.load_artifacts(config)
        assert operand_products() == 1
        for mu in (4.5, 1.0):
            assert np.array_equal(pipeline.online(loaded, mu).coefficients,
                                  pipeline.online(artifacts, mu).coefficients)
        assert operand_products() == 2

    def test_a_writable_operand_is_never_kept(self, forms, monkeypatch):
        # a writable B could change under a kept product, so every read
        # forms V^T B_free afresh and sees the change
        shapes = self.record_products(forms, monkeypatch)
        grid = integrators.TimeGrid(1.0, 2.0, 8)
        traj = integrators.heat_crank_nicolson(forms, 2.0,
                                               models.manufactured_f, grid)
        B = np.ones((forms.n_dofs, 2))
        first = traj.values_times(B)
        B[:, 1] = 2.0
        second = traj.values_times(B)
        n = forms.free_dofs.size
        assert shapes.count(((2, n), (n, n))) == 2
        assert not np.array_equal(second, first)
        want = traj.values @ B
        assert np.abs(second - want).max() <= 1e-13 * np.abs(want).max()

    def test_a_second_read_only_lift_replaces_the_first(self, forms,
                                                        monkeypatch):
        # the forms keep the product of the last read-only B only, matched
        # by identity: an equal copy is another operand
        shapes = self.record_products(forms, monkeypatch)
        grid = integrators.TimeGrid(1.0, 2.0, 8)
        traj = integrators.heat_crank_nicolson(forms, 2.0,
                                               models.manufactured_f, grid)
        n = forms.free_dofs.size
        first, second = np.ones((forms.n_dofs, 2)), np.ones((forms.n_dofs, 2))
        first.flags.writeable = second.flags.writeable = False

        def operand_products(B):
            shapes.clear()
            traj.values_times(B)
            return shapes.count(((2, n), (n, n)))

        assert [operand_products(B) for B in
                (first, first, second, second, first)] == [1, 0, 1, 0, 1]

    @pytest.mark.parametrize("nx", [4, 8, 16])
    def test_bound_covers_the_nodal_residual(self, nx, monkeypatch):
        # over the mu range of the heat study, on the lead-in and the
        # window, every step's bound is at least its nodal residual and its
        # lower bound at most the norm of its right-hand side, both measured
        # densely; and every step certifies, so none takes the exact
        # residual's dense products
        forms = fem.assemble(mesh.build_structured(nx, nx))
        f = models.manufactured_f
        legs, products = [], []
        check_leg = integrators._check_modal_leg
        blocked_matmul = integrators.blocked_matmul

        def leg(forms, mu, f, grid, theta, what, Z, znorm):
            legs.append((mu, grid, theta, Z.copy(), znorm.copy()))
            check_leg(forms, mu, f, grid, theta, what, Z, znorm)

        def recording(A, B):
            products.append((np.shape(A), np.shape(B)))
            return blocked_matmul(A, B)

        monkeypatch.setattr(integrators, "_check_modal_leg", leg)
        monkeypatch.setattr(integrators, "blocked_matmul", recording)
        for mu in np.linspace(0.5, 9.5, 7):
            for t0 in (1.0, 0.0):
                grid = integrators.TimeGrid(t0, t0 + 1.0, nx)
                integrators.heat_crank_nicolson(forms, mu, f, grid)
        assert products == []
        assert len(legs) == 21
        _, V = forms.free_eigenpairs()
        M = forms.mass_free().to_dense()
        K = forms.stiffness_free().to_dense()
        for mu, g, theta, Z, znorm in legs:
            upper, lower = integrators._step_bounds(forms, mu, f, g, theta,
                                                    Z, znorm)
            dtmu = g.dt * mu
            U = Z @ V.T
            rhs = (U[:-1] @ (M - (1.0 - theta) * dtmu * K)
                   + g.dt * forms.free_loads(f, g, (1.0 - theta) * g.dt))
            res = U[1:] @ (M + theta * dtmu * K) - rhs
            assert (upper >= np.linalg.norm(res, axis=1)).all()
            assert (lower <= np.linalg.norm(rhs, axis=1)).all()
            assert (upper < 1e-10 * lower).all()

    def test_uncertified_steps_take_their_exact_residual(self, forms,
                                                         monkeypatch):
        # at 8^2 the bound cannot certify 1e-13, which the steps' nodal
        # residuals (below 3e-14) meet: the run completes on the exact
        # residuals of every step and equals the default run
        f = models.manufactured_f
        grid = integrators.TimeGrid(1.0, 2.0, 8)
        want = integrators.heat_crank_nicolson(forms, 9.5, f, grid)
        shapes = []
        blocked_matmul = integrators.blocked_matmul

        def recording(A, B):
            shapes.append((np.shape(A), np.shape(B)))
            return blocked_matmul(A, B)

        monkeypatch.setattr(integrators, "blocked_matmul", recording)
        monkeypatch.setattr(integrators, "STEP_TOL", 1e-13)
        got = integrators.heat_crank_nicolson(forms, 9.5, f, grid)
        n, lead = forms.free_dofs.size, 16
        assert shapes == [((lead, n), (n, n))] * 2 \
            + [((grid.steps, n), (n, n))] * 2
        assert np.array_equal(got.states, want.states)
        assert np.array_equal(got.values, want.values)

    @pytest.mark.parametrize("t0", [0.0, 1.0], ids=["from-t0", "lead-in"])
    def test_values_times_matches_the_nodal_product(self, forms, t0):
        rng = np.random.default_rng(3)
        B = rng.standard_normal((forms.n_dofs, 3))
        grid = integrators.TimeGrid(t0, t0 + 1.0, 8)
        traj = integrators.heat_crank_nicolson(
            forms, 4.3, models.manufactured_f, grid)
        got = traj.values_times(B)
        assert "values" not in vars(traj)
        want = traj.values @ B
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_non_spd_mass_names_its_cholesky_pivot(self):
        forms = fem.assemble(mesh.build_structured(4, 4))
        minus = forms.mass.lincomb(forms.mass, -1.0, 0.0)
        broken = dataclasses.replace(forms, mass=minus, _cache={})
        with pytest.raises(ValueError, match=r"not positive definite "
                                             r"\(Cholesky pivot 0: -"):
            broken.free_eigenpairs()

    def test_setup_runs_and_logs_once_per_form_set(self, caplog):
        forms = fem.assemble(mesh.build_structured(4, 4))
        with caplog.at_level("INFO", logger="nirb.fem"):
            first = forms.free_eigenpairs()
            assert forms.free_eigenpairs() is first
        lines = [r.getMessage() for r in caplog.records]
        assert len(lines) == 1
        assert re.fullmatch(r"modal setup: n=9 in \d+\.\d{3}s, residual "
                            r"\S+, M-orthogonality defect \S+", lines[0])

    def test_loads_and_decomposition_are_shared(self, forms):
        f = models.manufactured_f
        grid = integrators.TimeGrid(1.0, 2.0, 8)
        lam, V = forms.free_eigenpairs()
        assert forms.free_eigenpairs()[1] is V
        assert not (lam.flags.writeable or V.flags.writeable)
        integrators.heat_crank_nicolson(forms, 2.0, f, grid)
        G = forms.modal_loads(f, grid, 0.5 * grid.dt)
        assert G is forms.modal_loads(f, grid, 0.5 * grid.dt)
        F = forms.free_loads(f, grid, 0.5 * grid.dt)
        assert np.abs(G - F @ V).max() <= 1e-13 * np.abs(G).max()


def scalar_implicit_euler(params, state, dt, iters=30):
    """Two-variable implicit-Euler oracle solved by a dense Newton loop."""
    a, b = params[0], params[1]
    u = np.array(state, dtype=float)
    s = np.array(state, dtype=float)
    for _ in range(iters):
        g = u - s - dt * integrators.brusselator_rhs((a, b, 0.0), u)
        J = np.eye(2) - dt * np.array(
            [[2 * u[0] * u[1] - (b + 1), u[0] ** 2],
             [b - 2 * u[0] * u[1], -u[0] ** 2]])
        u = u - np.linalg.solve(J, g)
    return u


class TestBrusselatorNewton:
    def test_steady_state_returns_immediately(self, neumann_8x8):
        n = neumann_8x8.n_dofs
        a, b = 3.0, 2.0
        state = np.concatenate([np.full(n, a), np.full(n, b / a)])
        out = integrators.brusselator_step_newton(neumann_8x8, (a, b, 0.02),
                                                  state, 0.05)
        assert out == pytest.approx(state, abs=1e-10)

    def test_constant_state_matches_scalar_oracle(self, neumann_8x8):
        # With no diffusion a spatially constant state evolves by the plain
        # two-variable implicit-Euler update.
        n = neumann_8x8.n_dofs
        state = np.concatenate([np.full(n, 1.5), np.full(n, 2.5)])
        dt = 0.05
        out = integrators.brusselator_step_newton(neumann_8x8,
                                                  (3.0, 2.0, 0.0), state, dt)
        want = scalar_implicit_euler((3.0, 2.0), (1.5, 2.5), dt)
        assert out[:n] == pytest.approx(np.full(n, want[0]), abs=1e-9)
        assert out[n:] == pytest.approx(np.full(n, want[1]), abs=1e-9)

    def test_step_is_first_order_consistent(self, neumann_8x8):
        p = models.PROBLEMS["brusselator"]
        state = p.initial_state(neumann_8x8.mesh)
        moves = []
        for dt in (0.02, 0.01):
            out = integrators.brusselator_step_newton(neumann_8x8,
                                                      (3.0, 2.0, 0.01),
                                                      state, dt)
            moves.append(np.abs(out - state).max())
        assert moves[0] / moves[1] == pytest.approx(2.0, rel=0.15)

    def test_exhausted_newton_raises(self, neumann_8x8, monkeypatch):
        from nirb.linalg import ConvergenceError
        p = models.PROBLEMS["brusselator"]
        state = p.initial_state(neumann_8x8.mesh)
        with pytest.raises(ConvergenceError,
                           match=r"^Newton did not reach the residual "
                                 r"tolerance 1\.0e-15 in 1 iterations; "
                                 r"residual \(BiCGStab iterations\) history "
                                 r"\S+ \(\d+\), \S+$"):
            integrators.brusselator_step_newton(neumann_8x8, (3.0, 2.0, 0.01),
                                                state, 0.05, tol=1e-15,
                                                max_iter=1)
        # a failed inner solve names its Newton iteration and the relative
        # tolerance in force: ETA_MAX at iteration 0, and at iteration 2
        # the Eisenstat-Walker ratio term rather than its cap or floor
        norms = []
        scaled = integrators._scaled_residual_norm

        def recording(*args):
            norms.append(scaled(*args))
            return norms[-1]

        monkeypatch.setattr(integrators, "_scaled_residual_norm", recording)
        bicgstab = linalg.bicgstab_solve
        for failing in (0, 2):
            norms.clear()
            calls = []

            def starved(*args, **kwargs):
                calls.append(None)
                if len(calls) > failing:
                    kwargs["max_iter"] = 1
                return bicgstab(*args, **kwargs)

            monkeypatch.setattr(integrators, "bicgstab_solve", starved)
            with pytest.raises(ConvergenceError) as info:
                integrators.brusselator_step_newton(
                    neumann_8x8, (3.0, 2.0, 0.01), state, 0.05)
            assert len(norms) == failing + 1
            assert info.value.iterations == failing
            assert info.value.residual == norms[-1]
            floor = integrators.FORCING * 1e-10 / norms[-1]
            if failing == 0:
                eta = integrators.ETA_MAX
            else:
                eta = integrators.ETA_GAMMA * (norms[-1] / norms[-2]) ** 2
                assert eta < integrators.ETA_MAX
            assert eta > max(floor, integrators.KRYLOV_TOL)
            assert str(info.value).startswith(
                f"Newton linear solve failed at iteration {failing} (relative "
                f"tolerance {eta:.1e}): BiCGStab did not reach {eta:.1e} "
                "relative residual")

    def test_solving_start_returns_after_one_residual(self, neumann_8x8,
                                                      monkeypatch):
        forms, params, dt = neumann_8x8, (3.0, 2.0, 0.02), 0.05
        state = _wavy_state(forms)
        solved = integrators.brusselator_step_newton(forms, params, state, dt)
        calls = {"residual": 0, "bicgstab": 0}
        residual = integrators._ImplicitEulerSystem.residual
        bicgstab = integrators.bicgstab_solve

        def counting_residual(self, u):
            calls["residual"] += 1
            return residual(self, u)

        def counting_bicgstab(*args, **kwargs):
            calls["bicgstab"] += 1
            return bicgstab(*args, **kwargs)

        monkeypatch.setattr(integrators._ImplicitEulerSystem, "residual",
                            counting_residual)
        monkeypatch.setattr(integrators, "bicgstab_solve", counting_bicgstab)
        out = integrators.brusselator_step_newton(forms, params, state, dt,
                                                  start=solved)
        assert calls == {"residual": 1, "bicgstab": 0}
        assert np.array_equal(out, solved)

    def test_poor_start_converges_to_the_same_step(self, neumann_8x8, rng):
        forms, params, dt = neumann_8x8, (3.0, 2.0, 0.02), 0.05
        state = _wavy_state(forms)
        want = integrators.brusselator_step_newton(forms, params, state, dt)
        start = state * (1.0 + 0.1 * rng.choice([-1.0, 1.0], state.size))
        kept = start.copy()
        got = integrators.brusselator_step_newton(forms, params, state, dt,
                                                  start=start)
        assert np.array_equal(start, kept)
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()

    def test_non_finite_start_fails_without_a_linear_solve(self, neumann_8x8,
                                                           monkeypatch):
        # a start past overflow fails at once instead of running BiCGStab to
        # its iteration limit on non-finite data
        from nirb.linalg import ConvergenceError

        def no_solve(*args, **kwargs):
            raise AssertionError("BiCGStab ran on a non-finite residual")

        monkeypatch.setattr(integrators, "bicgstab_solve", no_solve)
        state = _wavy_state(neumann_8x8)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ConvergenceError,
                              match=r"in 0 iterations; residual \(BiCGStab "
                                    r"iterations\) history inf$"):
            integrators.brusselator_step_newton(neumann_8x8, (3.0, 2.0, 0.02),
                                                state, 0.05,
                                                start=1e200 * state)

    def test_start_shape_validation(self, neumann_8x8):
        state = _wavy_state(neumann_8x8)
        with pytest.raises(ValueError, match="start has shape"):
            integrators.brusselator_step_newton(neumann_8x8, (3.0, 2.0, 0.02),
                                                state, 0.05,
                                                start=state[:-1])


def _wavy_state(forms):
    """A non-uniform two-species state, so diffusion and every reaction
    block act."""
    x, y = forms.mesh.nodes.T
    return np.concatenate([2.0 + 0.25 * y + 0.4 * np.cos(np.pi * x) * y,
                           1.0 + 0.8 * x - 0.3 * np.sin(2.0 * np.pi * y)])


class TestNewtonSystem:
    def test_jacobian_is_the_exact_derivative(self, neumann_8x8, rng):
        # G is cubic in u, so the central difference is off by O(h^2) only;
        # a wrong block or sign is off at order one
        forms, params, dt = neumann_8x8, (3.0, 2.0, 0.02), 0.05
        n = forms.n_dofs
        state = models.PROBLEMS["brusselator"].initial_state(forms.mesh)
        system = integrators._ImplicitEulerSystem(forms, params, state, dt)
        u = _wavy_state(forms)
        _, m = system.residual(u)
        product, precond = system.jacobian(m)
        d = rng.standard_normal(2 * n)
        h = 1e-5
        fd = (system.residual(u + h * d)[0]
              - system.residual(u - h * d)[0]) / (2.0 * h)
        Jd = product(d)
        assert np.abs(Jd - fd).max() <= 1e-7 * np.abs(Jd).max()
        # the preconditioner inverts each node's 2x2 species block of the
        # Jacobian diagonal
        J = np.stack([product(e) for e in np.eye(2 * n)], axis=1)
        idx = np.arange(n)
        blocks = np.array([[J[idx, idx], J[idx, n + idx]],
                           [J[n + idx, idx], J[n + idx, n + idx]]])
        y = precond(d).reshape(2, n)
        back = np.einsum("ijk,jk->ik", blocks, y).ravel()
        assert np.abs(back - d).max() <= 1e-12 * np.abs(d).max()

    def test_block_product_is_the_dense_jacobian(self, neumann_8x8, rng,
                                                 dense_midpoint_rule):
        forms, params, dt = neumann_8x8, (3.0, 2.0, 0.02), 0.05
        n = forms.n_dofs
        state = models.PROBLEMS["brusselator"].initial_state(forms.mesh)
        system = integrators._ImplicitEulerSystem(forms, params, state, dt)
        u = _wavy_state(forms)
        product, _ = system.jacobian(system.residual(u)[1])
        J, _ = dense_jacobian(forms, params, dt, dense_midpoint_rule, u)
        X = rng.standard_normal((4, 2 * n))
        got = np.stack([product(x) for x in X])
        assert np.abs(got - X @ J.T).max() \
            <= 1e-14 * np.abs(J).sum(axis=1).max() * np.abs(X).max()
        # a NaN in one species at one node spoils both species' rows of
        # the nodes whose pattern holds it, and no other row
        pattern = forms.mass.to_dense() != 0.0
        for k in (0, 7, 2 * n - 1):
            x = np.ones(2 * n)
            x[k] = np.nan
            assert np.array_equal(np.isnan(product(x)),
                                  np.tile(pattern[:, k % n], 2))

    def test_step_matches_dense_newton(self, neumann_8x8, dense_midpoint_rule):
        forms, dt = neumann_8x8, 0.05
        params = (3.0, 2.0, 0.02)
        state = _wavy_state(forms)
        u, last_update = dense_newton_stepper(forms, params, dt,
                                              dense_midpoint_rule)(state)
        assert last_update <= 1e-14
        out = integrators.brusselator_step_newton(forms, params, state, dt)
        assert np.abs(out - state).max() >= 1e-3
        assert np.abs(out - u).max() <= 1e-10 * np.abs(u).max()


def dense_jacobian(forms, params, dt, rule, u):
    """The exact Jacobian of the implicit-Euler step of the stacked
    two-species system at the stacked state u, as a dense 2n x 2n matrix
    built on the matrices of the ``dense_midpoint_rule`` fixture ``rule``;
    the step's constant part M/dt + alpha K is A, returned as well."""
    _, b, alpha = params
    n = forms.n_dofs
    A = forms.mass.to_dense() / dt + alpha * forms.stiffness.to_dense()
    E, w = rule(forms)

    def weighted(c):
        return E.T @ ((w * c)[:, None] * E)

    m1, m2 = E @ u[:n], E @ u[n:]
    J = np.block([[A - weighted(2 * m1 * m2 - (b + 1)), -weighted(m1 ** 2)],
                  [-weighted(b - 2 * m1 * m2), A - weighted(-m1 ** 2)]])
    return J, A


def dense_newton_stepper(forms, params, dt, rule):
    """The implicit-Euler step of the stacked two-species system as a dense
    oracle: step(state) runs 30 Newton iterations with ``np.linalg.solve``
    on the matrices of the ``dense_midpoint_rule`` fixture ``rule`` and
    returns the new state and the size of one further update."""
    n = forms.n_dofs
    M = forms.mass.to_dense()
    E, w = rule(forms)

    def step(state):
        def newton_update(u):
            J, A = dense_jacobian(forms, params, dt, rule, u)
            U, S = u.reshape(2, n), state.reshape(2, n)
            R = integrators.brusselator_rhs(params, U @ E.T)
            G = (U @ A.T - S @ M.T / dt - (w * R) @ E).ravel()
            return np.linalg.solve(J, G)

        u = state.copy()
        for _ in range(30):
            u -= newton_update(u)
        return u, np.abs(newton_update(u)).max()

    return step


class TestNewtonMarch:
    @pytest.mark.parametrize("alpha", [0.02, 0.05])
    def test_march_matches_dense_newton(self, neumann_8x8,
                                        dense_midpoint_rule, alpha):
        # the loose linear solves and the predicted starts still leave every
        # stored state a solution of its step within the Newton tolerance,
        # the default 1e-10 of brusselator_step_newton
        forms, params, newton_tol = neumann_8x8, (3.0, 2.0, alpha), 1e-10
        n = forms.n_dofs
        grid = integrators.TimeGrid(0.0, 0.3, 6)
        state0 = models.PROBLEMS["brusselator"].initial_state(forms.mesh)
        got = integrators.brusselator_trajectory(
            forms, params, state0, grid,
            integrators.brusselator_step_newton).values
        step = dense_newton_stepper(forms, params, grid.dt,
                                    dense_midpoint_rule)
        want = [state0]
        for _ in range(grid.steps):
            u, last_update = step(want[-1])
            assert last_update <= 1e-13
            want.append(u)
        want = np.array(want)
        assert np.abs(want[-1] - want[0]).max() >= 1e-2
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()
        for prev, u in zip(got[:-1], got[1:]):
            system = integrators._ImplicitEulerSystem(forms, params, prev,
                                                      grid.dt)
            G, _ = system.residual(u)
            assert integrators._scaled_residual_norm(
                G.reshape(2, n), forms.lumped_mass()) <= newton_tol

    def test_march_builds_one_step_matrix(self, neumann_8x8, monkeypatch):
        # M/dt + alpha K is built once per march, and the system restarted
        # at every step steps bit for bit like a fresh one per step
        forms, params = neumann_8x8, (3.0, 2.0, 0.02)
        grid = integrators.TimeGrid(0.0, 0.3, 6)
        state0 = models.PROBLEMS["brusselator"].initial_state(forms.mesh)
        lincomb, calls = linalg.SparseSym.lincomb, []

        def counting(self, *args):
            calls.append(None)
            return lincomb(self, *args)

        monkeypatch.setattr(linalg.SparseSym, "lincomb", counting)
        got = integrators.brusselator_trajectory(
            forms, params, state0, grid,
            integrators.brusselator_step_newton).values
        assert len(calls) == 1
        want = [state0]
        for k in range(1, grid.steps + 1):
            want.append(integrators.brusselator_step_newton(
                forms, params, want[-1], grid.dt,
                start=integrators._predicted_start(np.array(want), k)))
        assert len(calls) == 1 + grid.steps
        assert np.array_equal(got, np.array(want))

    def test_predicted_start_extrapolates_polynomials(self):
        # the start of step k reproduces a polynomial of degree min(k, 3) - 1
        # in time through the marched states
        t = np.arange(5.0)[:, None]
        values = np.hstack([np.ones_like(t), 2.0 - t, t ** 2 - 3.0 * t])
        for k in range(1, 5):
            degree = min(k, 3) - 1
            want = values[k, :degree + 1]
            got = integrators._predicted_start(values, k)[:degree + 1]
            assert np.allclose(got, want, rtol=0.0, atol=1e-12)


class TestBrusselatorRk2:
    def test_scalar_surrogate_rate(self, neumann_8x8):
        # Uniform fields see no diffusion, so the step is the midpoint rule
        # on the reaction alone. With rates (1, -1) at state (1, 1) the
        # updated first species is 1 + 0.1 * (1 + 1.05^2 * 0.95 - 1.05).
        n = neumann_8x8.n_dofs
        state = np.ones(2 * n)
        out = integrators.brusselator_step_rk2(neumann_8x8, (1.0, 0.0, 0.03),
                                               state, 0.1)
        assert out[:n] == pytest.approx(np.full(n, 1.0997375), abs=1e-12)
        assert out[n:] == pytest.approx(np.full(n, 0.8952625), abs=1e-12)

    def test_steady_state_fixed(self, neumann_8x8):
        n = neumann_8x8.n_dofs
        a, b = 2.5, 3.0
        state = np.concatenate([np.full(n, a), np.full(n, b / a)])
        out = integrators.brusselator_step_rk2(neumann_8x8, (a, b, 0.05),
                                               state, 0.01)
        assert np.abs(out - state).max() <= 1e-13

    def test_agreement_with_newton(self, neumann_8x8):
        # The explicit march lumps the mass matrix, so the two schemes agree
        # only up to the spatial lumping gap (about h^2); a wrong reaction
        # term or coupling sign would separate them at order one.
        p = models.PROBLEMS["brusselator"]
        state0 = p.initial_state(neumann_8x8.mesh)
        explicit = integrators.brusselator_trajectory(
            neumann_8x8, (3.0, 2.0, 0.01), state0,
            integrators.TimeGrid(0.0, 0.5, 100),
            integrators.brusselator_step_rk2)
        implicit = integrators.brusselator_trajectory(
            neumann_8x8, (3.0, 2.0, 0.01), state0,
            integrators.TimeGrid(0.0, 0.5, 100),
            integrators.brusselator_step_newton)
        diff = np.abs(explicit.values[-1] - implicit.values[-1]).max()
        assert diff <= 5e-2

    def test_instability_reported_with_step(self, neumann_8x8):
        # dt far above the diffusion stability bound blows up the explicit
        # march; the failure must name the offending step, and the overflow
        # on the way must not surface as numpy warnings ahead of it.
        p = models.PROBLEMS["brusselator"]
        state0 = p.initial_state(neumann_8x8.mesh)
        grid = integrators.TimeGrid(0.0, 7.5, 30)
        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeError,
                               match=r"^step \d+ \(t=[0-9.]+\) of the rk2 "
                                     r"march failed: explicit step produced "
                                     r"non-finite values$"):
                integrators.brusselator_trajectory(
                    neumann_8x8, (3.0, 2.0, 1.0), state0, grid,
                    integrators.brusselator_step_rk2)
        assert np.geterr() == before


class TestTrajectory:
    def test_split_fields(self, neumann_8x8):
        p = models.PROBLEMS["brusselator"]
        state0 = p.initial_state(neumann_8x8.mesh)
        traj = integrators.brusselator_trajectory(
            neumann_8x8, (3.0, 2.0, 0.01), state0,
            integrators.TimeGrid(0.0, 0.1, 2),
            integrators.brusselator_step_rk2)
        n = neumann_8x8.n_dofs
        u1, u2 = traj.values.reshape(3, 2, n).transpose(1, 0, 2)
        assert u1.shape == (3, n) and u2.shape == (3, n)
        assert np.array_equal(u2, traj.values[:, n:])
        assert traj.parameter == (3.0, 2.0, 0.01)
        assert traj.n_fields == 2
