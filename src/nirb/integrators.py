"""Time integrators: implicit Euler and Crank-Nicolson for the heat problem,
and Newton-implicit-Euler / explicit-midpoint steps for the two-species
reaction-diffusion system.

The heat marches are direct: the fine one factors its step matrix once
(``linalg.BandFactor``, block cyclic reduction, so each step's solve is a
few batched products), the coarse one is modal.  The Newton step's
Jacobian is one 2x2 block operator in the slot layout of the mass pattern
that both species share, so a Krylov product is one gather and one
``einsum`` that multiplies by the blocks and sums over species and slots.

The Newton march is an inexact Newton method (Dembo, Eisenstat & Steihaug,
SIAM J. Numer. Anal. 19, 1982): each linear solve's relative residual
follows choice 2 of Eisenstat & Walker (SIAM J. Sci. Comput. 17, 1996), so
it tightens with the observed Newton convergence, floored where the next
Newton residual could no longer tell it apart; and each step starts from
the polynomial extrapolation of the states already marched."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from nirb.fem import load_from_midpoint_values
from nirb.linalg import (BandFactor, ConvergenceError, bicgstab_solve,
                          blocked_matmul)

# floor of the relative residual of the BiCGStab solve inside each Newton
# iteration, and the share of the Newton tolerance that a solve's linear
# residual may add to the next Newton residual
KRYLOV_TOL = 1e-12
FORCING = 0.01
# the Eisenstat-Walker forcing term (choice 2): the first solve's relative
# residual and the cap of every later one, and the factor on the squared
# ratio of the last two Newton residuals
ETA_MAX = 1e-4
ETA_GAMMA = 0.9

# the largest relative residual allowed for any step of a heat march, lead-in
# steps included
STEP_TOL = 1e-10


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid with steps+1 knots on [t0, T]."""

    t0: float
    T: float
    steps: int

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError(f"need at least one step, got {self.steps}")
        if not self.T > self.t0:
            raise ValueError(f"empty time window [{self.t0}, {self.T}]")

    @property
    def dt(self):
        return (self.T - self.t0) / self.steps

    def times(self):
        return np.linspace(self.t0, self.T, self.steps + 1)


@dataclass
class FieldTrajectory:
    """Nodal values of a (possibly multi-component) field at every knot of a
    time grid.  values has shape (steps + 1, n_fields * n_nodes) with the
    components stacked along the last axis; the field count is read off that
    width."""

    mesh: object
    grid: TimeGrid
    values: np.ndarray
    parameter: object = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        rows, n = self.grid.steps + 1, self.mesh.n_nodes
        shape = self.values.shape
        if len(shape) != 2 or shape[0] != rows or shape[1] < n or shape[1] % n:
            raise ValueError(f"values shape {shape}, expected ({rows}, a "
                             f"positive multiple of {n})")

    @property
    def n_fields(self):
        return self.values.shape[1] // self.mesh.n_nodes

    def values_times(self, B):
        """values @ B, shape (steps + 1, B's columns)."""
        return self.values @ B


class ModalTrajectory(FieldTrajectory):
    """The window of a ``heat_crank_nicolson`` run, kept as the rows of its
    march's modal states (``states``, shape (steps + 1, n_free)) in the
    eigenvectors V of ``forms.free_eigenpairs``.

    It owns the choice between nodal and modal: ``values``, the nodal
    values of ``FieldTrajectory``, are derived by one product with V^T when
    first asked for and kept, while ``values_times`` reads a product of the
    values straight off the modal states."""

    def __init__(self, forms, grid, states, parameter):
        self.mesh, self.grid, self.parameter = forms.mesh, grid, parameter
        self.forms, self.states = forms, states

    @functools.cached_property
    def values(self):
        _, V = self.forms.free_eigenpairs()
        return _nodal_values(self.forms, self.grid,
                             blocked_matmul(self.states, V.T))

    def values_times(self, B):
        """values @ B without the nodal values: the states times
        ``forms.modal_operand(B)``, one (cols, n) by (n, steps + 1)
        product."""
        return blocked_matmul(self.forms.modal_operand(B), self.states.T).T


def heat_backward_euler(forms, mu, f, grid):
    """Implicit Euler for du/dt = mu Laplace(u) + f with zero Dirichlet data,
    from rest at t = 0: each step solves (M + dt mu K) u = M u_prev + dt b(t)
    on the free dofs with one ``BandFactor`` of the step matrix (one batched
    product per cyclic-reduction level and sweep), and every step's relative
    residual must be at most ``STEP_TOL``.  A window with t0 > 0 is led in
    from t = 0 by implicit-Euler steps of dt with the window's factor; only
    a lead-in that is not a whole number of such steps factors its own
    matrix.  M and every step matrix share one slot pattern, so each state
    is gathered once, for its residual and the next right-hand side."""
    Mff, Kff = forms.mass_free(), forms.stiffness_free()
    lhs = Mff.lincomb(Kff, 1.0, grid.dt * mu)
    factor = BandFactor(lhs)
    states = [np.zeros(forms.free_dofs.size)]
    # the state gathered at every slot's column, (r, n)
    gathered = np.zeros(Mff.cols.shape)
    for g, _, what in _legs(grid, 1.0):
        leg_lhs, leg_factor = lhs, factor
        if not math.isclose(g.dt, grid.dt, rel_tol=1e-12):
            leg_lhs = Mff.lincomb(Kff, 1.0, g.dt * mu)
            leg_factor = BandFactor(leg_lhs)
        loads = g.dt * forms.free_loads(f, g)
        rnorm, bnorm = np.empty(g.steps), np.empty(g.steps)
        for k in range(g.steps):
            rhs = (gathered * Mff.vals).sum(axis=0) + loads[k]
            states.append(leg_factor.solve(rhs))
            gathered = np.take(states[-1], Mff.cols)
            res = (gathered * leg_lhs.vals).sum(axis=0) - rhs
            rnorm[k], bnorm[k] = res @ res, rhs @ rhs
        _check_residuals(g, what, np.sqrt(rnorm), np.sqrt(bnorm))
    return FieldTrajectory(mesh=forms.mesh, grid=grid, parameter=mu,
                           values=_nodal_values(forms, grid, states))


def heat_crank_nicolson(forms, mu, f, grid):
    """Trapezoidal stepping with the source evaluated at the half step:
    (M + dt/2 mu K) u = (M - dt/2 mu K) u_prev + dt b(t - dt/2) on the free
    dofs, with the arguments of ``heat_backward_euler`` and, like it, from
    rest at t = 0.  A window with t0 > 0 is led in from t = 0 by
    implicit-Euler steps of dt/2 (Rannacher's damping half steps, Numer.
    Math. 43, 1984).

    The march runs in the eigenvector coordinates z = V^T M u of the pencil
    K v = lam M v (``AssembledForms.free_eigenpairs``, built once per form
    set), where every step k of a leg, of the lead-in (theta = 1) and of
    the window (theta = 1/2) alike, is a diagonal recurrence,
    (1 + theta dt mu lam) z_k = y_k with the modal right-hand side
    y_k = (1 - (1 - theta) dt mu lam) z_{k-1} + dt V^T b_k and the projected
    loads V^T b_k cached per form set (``AssembledForms.modal_loads``).  The
    states of the whole run are the rows of one array Z, started from
    z_0 = 0, and the run is returned as a ``ModalTrajectory`` that keeps the
    window's rows: no state is carried back to nodal values unless a caller
    asks for them.

    Every step's relative residual in the nodal system must be at most
    ``STEP_TOL``; it is bounded, not computed.  With u = V z, M u = M V z and
    K u = M V lam z + E z for E = K V - M V diag(lam), the residual of the
    guard, so the nodal residual of step k is exactly
    r_k = M V rho_k + dt mu E (theta z_k + (1 - theta) z_{k-1})
    + dt (M V V^T b_k - b_k), with rho_k = (1 + theta dt mu lam) z_k - y_k
    the recurrence's own rounding residual, and its right-hand side is
    rhs_k = M V y_k - (1 - theta) dt mu E z_{k-1} - dt (M V V^T b_k - b_k).
    Hence ||r_k|| <= ||M V|| ||rho_k|| + dt mu ||E|| (theta ||z_k||
    + (1 - theta) ||z_{k-1}||) + dt d_k and ||rhs_k|| >= sigma_min(M V)
    ||y_k|| - (1 - theta) dt mu ||E|| ||z_{k-1}|| - dt d_k, with the
    constants of ``AssembledForms.modal_bounds`` and
    d_k = ||b_k - M V V^T b_k|| from ``AssembledForms.modal_load_defects``:
    O(n) work per step.  A step whose upper bound is not below ``STEP_TOL``
    times its lower bound gets its exact nodal residual from u = V z and
    the sparse M and K, and fails only if that exceeds ``STEP_TOL``, so the
    check passes no step that the nodal check would fail, up to the
    rounding of ||rho_k|| and ||E||, which sits at the level of the
    residuals they bound."""
    lam, _ = forms.free_eigenpairs()
    legs = _legs(grid, 0.5)
    Z = np.empty((1 + sum(g.steps for g, _, _ in legs), lam.size))
    Z[0] = 0.0
    row = 0
    for g, theta, _ in legs:
        dtmu = g.dt * mu
        damp = 1.0 / (1.0 + theta * dtmu * lam)
        gain = (1.0 - (1.0 - theta) * dtmu * lam) * damp
        push = forms.modal_loads(f, g, (1.0 - theta) * g.dt) * (g.dt * damp)
        for h in push:
            z = np.multiply(gain, Z[row], out=Z[row + 1])
            z += h
            row += 1
    znorm = _row_norms(Z)
    row = 0
    for g, theta, what in legs:
        rows = slice(row, row + g.steps + 1)
        _check_modal_leg(forms, mu, f, g, theta, what, Z[rows], znorm[rows])
        row += g.steps
    return ModalTrajectory(forms, grid, Z[-grid.steps - 1:], mu)


def _row_norms(a):
    return np.sqrt(np.einsum("ij,ij->i", a, a))


def _step_bounds(forms, mu, f, grid, theta, Z, znorm):
    """(upper, lower): the bounds of ``heat_crank_nicolson`` on the nodal
    residual norm and on the right-hand side norm of every step of one leg,
    whose states are the rows of Z with the norms ``znorm``.  They are
    formed divided by dt, so each costs four passes over the leg's states
    and two row norms."""
    lam, _ = forms.free_eigenpairs()
    mv_norm, mv_min, e_norm = forms.modal_bounds()
    dt, lag = grid.dt, (1.0 - theta) * grid.dt
    y = (1.0 / dt - (1.0 - theta) * mu * lam) * Z[:-1]
    y += forms.modal_loads(f, grid, lag)
    rho = (1.0 / dt + theta * mu * lam) * Z[1:]
    rho -= y
    slip = forms.modal_load_defects(f, grid, lag)
    drift = mu * e_norm * (1.0 - theta) * znorm[:-1]
    upper = (mv_norm * _row_norms(rho) + mu * e_norm * theta * znorm[1:]
             + drift + slip)
    lower = mv_min * _row_norms(y) - drift - slip
    return dt * upper, dt * lower


def _check_modal_leg(forms, mu, f, grid, theta, what, Z, znorm):
    """The step check of ``heat_crank_nicolson`` on one leg: certify every
    step by ``_step_bounds``, take the exact nodal residual of the steps
    the bounds cannot certify, and raise naming the first failing one."""
    rnorm, bnorm = _step_bounds(forms, mu, f, grid, theta, Z, znorm)
    exact = np.flatnonzero(~((bnorm > 0.0) & (rnorm < STEP_TOL * bnorm)))
    if exact.size:
        _, V = forms.free_eigenpairs()
        Mff, Kff = forms.mass_free(), forms.stiffness_free()
        dt, dtmu = grid.dt, grid.dt * mu
        u_old = blocked_matmul(Z[exact], V.T)
        u_new = blocked_matmul(Z[exact + 1], V.T)
        rhs = (Mff.matvec(u_old) + (theta - 1.0) * dtmu * Kff.matvec(u_old)
               + dt * forms.free_loads(f, grid, (1.0 - theta) * dt)[exact])
        res = Mff.matvec(u_new) + theta * dtmu * Kff.matvec(u_new) - rhs
        rnorm[exact], bnorm[exact] = _row_norms(res), _row_norms(rhs)
        _check_residuals(grid, what, rnorm, bnorm)


def _legs(grid, theta):
    """The legs of a heat run from rest at t = 0 as (time grid, theta, step
    label): the window at ``theta``, led in from t = 0 to t0 > 0 by
    implicit-Euler steps of about theta dt."""
    legs = [(grid, theta, "time step")]
    if grid.t0 != 0.0:
        lead = TimeGrid(0.0, grid.t0,
                        max(1, round(grid.t0 / (theta * grid.dt))))
        legs.insert(0, (lead, 1.0, "lead-in step"))
    return legs


def _check_residuals(grid, what, rnorm, bnorm):
    """Raise naming the first step of a leg whose residual norm exceeds
    ``STEP_TOL`` times the norm of its right-hand side."""
    bad = np.flatnonzero(~(rnorm <= STEP_TOL * bnorm))
    if bad.size:
        k = bad[0]
        raise RuntimeError(
            f"{what} {k + 1} (t={grid.times()[k + 1]:.6g}): relative residual "
            f"{rnorm[k] / bnorm[k]:.3e} exceeds {STEP_TOL:.1e}")


def _nodal_values(forms, grid, states):
    """The window's nodal values from the free-dof states of a whole run,
    with zero boundary entries."""
    values = np.zeros((grid.steps + 1, forms.n_dofs))
    values[:, forms.free_dofs] = states[-grid.steps - 1:]
    return values


def _scaled_residual_norm(res, lumped):
    """Discrete L2 norm of the pointwise residual, res of shape (..., n):
    the weak residual divided by the nodal area shares, measured back in the
    lumped inner product."""
    return np.sqrt((res * res / lumped).sum())


def brusselator_rhs(params, U):
    """Pointwise reaction terms for params = (a, b, alpha) of the stacked
    species U, shape (2, ...), returned stacked in the same shape.

    The sum of the two rates is a - u1, which pins the total-mass budget and
    is handy as a consistency check."""
    a, b = params[0], params[1]
    U = np.asarray(U, dtype=float)
    u1, u2 = U[0], U[1]
    auto = u1 ** 2 * u2
    R = np.empty(U.shape)
    r1, r2 = R[0, ...], R[1, ...]
    np.add(a, auto, out=r1)
    r1 -= (b + 1.0) * u1
    np.multiply(b, u1, out=r2)
    r2 -= auto
    return R


class _ImplicitEulerSystem:
    """The nonlinear system of one implicit-Euler step of the stacked
    two-species system from ``state``,
    G(u) = (M/dt + alpha K) u - M state / dt - b(R(u)) = 0 for both species
    at once, with the reaction loads b(R(u)) integrated by the three-midpoint
    rule of the loads at the midpoint values of u.

    ``jacobian`` is the exact derivative of G as one 2x2 block operator in
    the slot layout of the shared mass pattern (``linalg.SparseSym``):
    block values of shape (2, 2, r, n), written into one array the system
    keeps.  The reaction's derivative [[c11, c12], [c21, c22]] at the
    midpoints has c21 = -c11 - 1 and c22 = -c12, so with A and B the mass
    matrices weighted by c11 = 2 m1 m2 - (b + 1) and c12 = m1^2 (one
    ``weighted_mass`` call on two fields) and D = M/dt + alpha K, the
    Jacobian is [[D - A, -B], [A + M, D + B]].  A product gathers both
    species at every slot's column with one ``np.take``, giving (2, r, n),
    and one ``einsum`` multiplies by the block values and sums over the
    species and slot axes.  The preconditioner is nodal 2x2 block Jacobi:
    each node's species block of the Jacobian diagonal, read off slot 0 of
    the block values and inverted in closed form.  D and the block array
    depend on the forms, parameters and dt only, so a march builds one
    system and ``restart``s it at every step."""

    def __init__(self, forms, params, state, dt):
        self.forms, self.params, self.dt = forms, params, dt
        self.n = forms.n_dofs
        M, K = forms.mass, forms.stiffness
        self.diff = M.lincomb(K, 1.0 / dt, params[2])  # M/dt + alpha K
        self.blocks = np.empty((2, 2) + M.vals.shape)
        self.restart(state)

    def restart(self, state):
        """Make this the system of the step from ``state``, with the same
        forms, parameters and dt: only the term M state / dt changes."""
        self.inertia = self.forms.mass.matvec(state.reshape(2, self.n)) \
            / self.dt

    def residual(self, u):
        """G(u), shape (2 n,), for the stacked state u of shape (2 n,), and
        the midpoint values of both species, shape (2, n_edges): one
        ``midpoint_values``, ``brusselator_rhs`` and
        ``load_from_midpoint_values`` call on the (2, n) view of u."""
        forms, U = self.forms, u.reshape(2, self.n)
        m = forms.midpoint_values(U)
        G = self.diff.matvec(U)
        G -= self.inertia
        G -= load_from_midpoint_values(forms, brusselator_rhs(self.params, m))
        return G.ravel(), m

    def jacobian(self, m):
        """(product, preconditioner) of the Jacobian at the state whose
        midpoint values are m, shape (2, n_edges).  Both read the block
        values that the next call overwrites."""
        b, n, D, J = self.params[1], self.n, self.diff.vals, self.blocks
        m1, m2 = m
        c = np.empty(m.shape)
        np.multiply(m1, m2, out=c[0])
        c[0] *= 2.0
        c[0] -= b + 1.0
        np.multiply(m1, m1, out=c[1])
        A, B = self.forms.weighted_mass(c)
        np.subtract(D, A, out=J[0, 0])
        np.negative(B, out=J[0, 1])
        np.add(A, self.forms.mass.vals, out=J[1, 0])
        np.add(D, B, out=J[1, 1])
        cols = self.diff.cols

        def product(x):
            X = np.take(x.reshape(2, n), cols, axis=-1)
            return np.einsum("ijrn,jrn->in", J, X).ravel()

        (a11, a12), (a21, a22) = J[:, :, 0]
        inverse = np.stack([[a22, -a12], [-a21, a11]]) \
            / (a11 * a22 - a12 * a21)

        def precond(x):
            return np.einsum("ijk,jk->ik", inverse, x.reshape(2, n)).ravel()

        return product, precond


def brusselator_step_newton(forms, params, state, dt, tol=1e-10, max_iter=20,
                            start=None, system=None):
    """One implicit-Euler step of the stacked two-species system from
    ``state``, solved by an inexact Newton method from ``start`` (default
    ``state``).  ``system`` is the ``_ImplicitEulerSystem`` of an earlier
    step with the same forms, params and dt, restarted from ``state``;
    by default the step builds its own.

    Reaction terms are integrated with the same three-midpoint rule as the
    loads, with the state interpolated at the midpoints, and the Jacobian is
    the exact derivative of that quadrature, so convergence is quadratic up
    to the forcing floor.  Each Newton iteration assembles the Jacobian as
    one 2x2 block operator on the shared mass pattern and solves with it by
    preconditioned BiCGStab (``_ImplicitEulerSystem``) to the relative
    residual eta_k of choice 2 of Eisenstat & Walker (SIAM J. Sci. Comput.
    17, 1996): eta_0 = ETA_MAX, then
    eta_k = min(ETA_MAX, ETA_GAMMA (||G_k|| / ||G_{k-1}||)^2), where ||G||
    is the mass-scaled residual of the stop test.  While Newton converges
    quadratically the squared ratio tracks the next residual, so a solve
    is only as accurate as the next iterate can use.  eta_k is floored at
    FORCING tol / ||G_k||, and not below KRYLOV_TOL: a tighter solve could
    not lower the next Newton residual, to which the linear residual adds a
    few FORCING shares of ``tol`` at most.  The iteration stops when the
    mass-scaled residual drops below ``tol`` (absolute); it fails after
    ``max_iter`` iterations or at a non-finite residual, listing the
    residual history with each iteration's BiCGStab count."""
    n = forms.n_dofs
    state = np.asarray(state, dtype=float)
    u = state.copy() if start is None else np.array(start, dtype=float)
    for name, v in (("state", state), ("start", u)):
        if v.shape != (2 * n,):
            raise ValueError(f"{name} has shape {v.shape}, expected "
                             f"({2 * n},)")
    if system is None:
        system = _ImplicitEulerSystem(forms, params, state, dt)
    else:
        system.restart(state)
    history, krylov = [], []
    for it in range(max_iter + 1):
        G, m = system.residual(u)
        rnorm = _scaled_residual_norm(G.reshape(2, n), forms.lumped_mass())
        history.append(rnorm)
        if rnorm <= tol:
            return u
        if it == max_iter or not math.isfinite(rnorm):
            break
        product, precond = system.jacobian(m)
        eta = ETA_MAX if it == 0 else \
            min(ETA_MAX, ETA_GAMMA * (rnorm / history[-2]) ** 2)
        eta = max(eta, KRYLOV_TOL, FORCING * tol / rnorm)
        try:
            d, iters = bicgstab_solve(product, -G, tol=eta, precond=precond)
        except ConvergenceError as exc:
            raise ConvergenceError(
                f"Newton linear solve failed at iteration {it} (relative "
                f"tolerance {eta:.1e}): {exc}",
                residual=rnorm, iterations=it) from exc
        krylov.append(iters)
        u += d
    raise ConvergenceError(
        f"Newton did not reach the residual tolerance {tol:.1e} in {it} "
        "iterations; residual (BiCGStab iterations) history "
        + ", ".join([f"{r:.3e} ({k})" for r, k in zip(history, krylov)]
                    + [f"{history[-1]:.3e}"]),
        residual=history[-1], iterations=it)


def brusselator_step_rk2(forms, params, state, dt):
    """One explicit midpoint step of the mass-lumped semi-discrete system
    u' = R(u) - alpha * M_lumped^{-1} K u.  The caller keeps dt below the
    diffusion stability bound; a non-finite result raises immediately."""
    alpha = params[2]
    n = forms.n_dofs
    K = forms.stiffness
    lumped = forms.lumped_mass()

    def rhs(u):
        U = u.reshape(2, n)
        R = brusselator_rhs(params, U)
        R -= alpha * K.matvec(U) / lumped
        return R.ravel()

    k1 = rhs(state)
    k2 = rhs(state + 0.5 * dt * k1)
    out = state + dt * k2
    if not np.isfinite(out).all():
        raise FloatingPointError("explicit step produced non-finite values")
    return out


def brusselator_trajectory(forms, params, state0, grid, step):
    """March the reaction-diffusion system over a time grid by ``step``:
    ``brusselator_step_newton`` (implicit Euler), each step started from
    ``_predicted_start`` and all sharing one ``_ImplicitEulerSystem``, or
    ``brusselator_step_rk2`` (explicit midpoint on the lumped system).  A
    failure names the step index and the march (its step's name suffix);
    overflow on the way to a non-finite state raises it, not numpy
    warnings."""
    n = forms.n_dofs
    state0 = np.asarray(state0, dtype=float)
    values = np.zeros((grid.steps + 1, 2 * n))
    values[0] = state0
    u = state0.copy()
    times = grid.times()
    march = step.__name__.removeprefix("brusselator_step_")
    system = _ImplicitEulerSystem(forms, params, values[0], grid.dt) \
        if step is brusselator_step_newton else None
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, grid.steps + 1):
            try:
                u = step(forms, params, u, grid.dt) if system is None else \
                    step(forms, params, u, grid.dt,
                         start=_predicted_start(values, k), system=system)
            except (ConvergenceError, FloatingPointError) as exc:
                raise RuntimeError(
                    f"step {k} (t={times[k]:.6g}) of the {march} march "
                    f"failed: {exc}") from exc
            values[k] = u
    return FieldTrajectory(mesh=forms.mesh, grid=grid, values=values,
                           parameter=tuple(params))


# weights of the polynomial extrapolation through the last one, two and
# three marched states, newest first
_EXTRAPOLATION = ((1.0,), (2.0, -1.0), (3.0, -3.0, 1.0))


def _predicted_start(values, k):
    """Newton start of step k >= 1: the polynomial through the last (at
    most three) marched states values[k-1], values[k-2], ... at equal time
    spacing, extrapolated one step ahead.  On a smooth march it is O(dt^3)
    from the step's solution from step 3 on, where the previous state is
    O(dt) from it."""
    weights = _EXTRAPOLATION[min(k, 3) - 1]
    return sum(w * values[k - 1 - j] for j, w in enumerate(weights))
