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
SIAM J. Numer. Anal. 19, 1982; Eisenstat & Walker, SIAM J. Sci. Comput. 17,
1996): each linear solve is only as accurate as the Newton stop test needs,
and each step starts from the polynomial extrapolation of the states already
marched."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from nirb.fem import load_from_midpoint_values
from nirb.linalg import (BandFactor, ConvergenceError, bicgstab_solve,
                          blocked_matmul)
from nirb.models import brusselator_rhs

# floor of the relative residual of the BiCGStab solve inside each Newton
# iteration, and the share of the Newton tolerance that a solve's linear
# residual may add to the next Newton residual
KRYLOV_TOL = 1e-12
FORCING = 0.01


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
    eigenvectors V of ``forms.free_eigenpairs``, with the run's start u0.

    It owns the choice between nodal and modal: ``values``, the nodal
    values of ``FieldTrajectory``, are derived by one product with V^T when
    first asked for and kept, while ``values_times`` reads a product of the
    values straight off the modal states.  The first row is u0 itself when
    ``exact_start`` (a run with no lead-in), otherwise V z_0 with u0's
    boundary entries."""

    def __init__(self, forms, grid, states, u0, parameter, exact_start):
        self.mesh, self.grid, self.parameter = forms.mesh, grid, parameter
        self.forms, self.states = forms, states
        self.u0 = np.array(u0, dtype=float)
        self.exact_start = exact_start

    @functools.cached_property
    def values(self):
        _, V = self.forms.free_eigenpairs()
        free = blocked_matmul(self.states, V.T)
        if self.exact_start:
            free[0] = self.u0[self.forms.free_dofs]
        return _nodal_values(self.forms, self.grid, self.u0, free)

    def values_times(self, B):
        """values @ B without the nodal values: the states times V^T B_free,
        with B_free the rows of B at the free dofs, and the first row
        corrected for u0.  Costs one (cols, n) by (n, n) and one
        (cols, n) by (n, steps + 1) product."""
        B = np.asarray(B, dtype=float)
        free = self.forms.free_dofs
        _, V = self.forms.free_eigenpairs()
        modal = blocked_matmul(B[free].T, V)
        out = blocked_matmul(modal, self.states.T).T
        if self.exact_start:
            out[0] = self.u0 @ B
        else:
            rest = self.u0.copy()
            rest[free] = 0.0
            out[0] += rest @ B
        return out


def heat_backward_euler(forms, mu, f, u0, grid, cg_tol=1e-10, t_start=None):
    """Implicit Euler for du/dt = mu Laplace(u) + f with zero Dirichlet data:
    each step solves (M + dt mu K) u = M u_prev + dt b(t) on the free dofs
    with one ``BandFactor`` of the step matrix (one batched product per
    cyclic-reduction level and sweep), and every step's relative residual
    must be at most ``cg_tol``.  u0 is the state at ``t_start``
    (default ``grid.t0``).  A run from t_start < t0 first takes
    implicit-Euler steps of dt to t0 with the window's factor; only a
    lead-in that is not a whole number of such steps factors its own
    matrix.  M and every step matrix share one slot pattern, so each state
    is gathered once, for its residual and the next right-hand side."""
    u0 = _start(forms, u0)
    Mff, Kff = forms.mass_free(), forms.stiffness_free()
    lhs = Mff.lincomb(Kff, 1.0, grid.dt * mu)
    factor = BandFactor(lhs)
    states = [u0[forms.free_dofs]]
    # the state gathered at every slot's column, (r, n)
    gathered = np.take(states[0], Mff.cols)
    for g, _, what in _legs(grid, 1.0, t_start):
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
        _check_residuals(g, what, np.sqrt(rnorm), np.sqrt(bnorm), cg_tol)
    return FieldTrajectory(mesh=forms.mesh, grid=grid, parameter=mu,
                           values=_nodal_values(forms, grid, u0, states))


def heat_crank_nicolson(forms, mu, f, u0, grid, cg_tol=1e-10, t_start=None):
    """Trapezoidal stepping with the source evaluated at the half step:
    (M + dt/2 mu K) u = (M - dt/2 mu K) u_prev + dt b(t - dt/2) on the free
    dofs, with the arguments of ``heat_backward_euler``.  A run from
    t_start < t0 first takes implicit-Euler steps of dt/2 to t0 (Rannacher's
    damping half steps, Numer. Math. 43, 1984).

    The march runs in the eigenvector coordinates z = V^T M u of the pencil
    K v = lam M v (``AssembledForms.free_eigenpairs``, built once per form
    set), where every step k of a leg, of the lead-in (theta = 1) and of
    the window (theta = 1/2) alike, is a diagonal recurrence,
    (1 + theta dt mu lam) z_k = y_k with the modal right-hand side
    y_k = (1 - (1 - theta) dt mu lam) z_{k-1} + dt V^T b_k and the projected
    loads V^T b_k cached per form set (``AssembledForms.modal_loads``).  The
    states of the whole run are the rows of one array Z, started from
    z_0 = V^T M u0, and the run is returned as a ``ModalTrajectory`` that
    keeps the window's rows: no state is carried back to nodal values
    unless a caller asks for them.

    Every step's relative residual in the nodal system must be at most
    ``cg_tol``; it is bounded, not computed.  With u = V z, M u = M V z and
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
    O(n) work per step.  A step whose upper bound is not below ``cg_tol``
    times its lower bound gets its exact nodal residual from u = V z and
    the sparse M and K, and fails only if that exceeds ``cg_tol``, so the
    check passes no step that the nodal check would fail, up to the
    rounding of ||rho_k|| and ||E||, which sits at the level of the
    residuals they bound.  The first window row of a run with no lead-in is
    u0 itself."""
    u0 = _start(forms, u0)
    lam, V = forms.free_eigenpairs()
    legs = _legs(grid, 0.5, t_start)
    Z = np.empty((1 + sum(g.steps for g, _, _ in legs), lam.size))
    start = u0[forms.free_dofs]
    # a run from rest, as every pipeline run is, skips the product with V
    Z[0] = forms.mass_free().matvec(start) @ V if start.any() else 0.0
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
        _check_modal_leg(forms, mu, f, g, theta, what, Z[rows], znorm[rows],
                         cg_tol)
        row += g.steps
    return ModalTrajectory(forms, grid, Z[-grid.steps - 1:], u0, mu,
                           exact_start=len(legs) == 1)


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


def _check_modal_leg(forms, mu, f, grid, theta, what, Z, znorm, cg_tol):
    """The step check of ``heat_crank_nicolson`` on one leg: certify every
    step by ``_step_bounds``, take the exact nodal residual of the steps
    the bounds cannot certify, and raise naming the first failing one."""
    rnorm, bnorm = _step_bounds(forms, mu, f, grid, theta, Z, znorm)
    exact = np.flatnonzero(~((bnorm > 0.0) & (rnorm < cg_tol * bnorm)))
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
        _check_residuals(grid, what, rnorm, bnorm, cg_tol)


def _start(forms, u0):
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != (forms.n_dofs,):
        raise ValueError(f"initial data has shape {u0.shape}, expected "
                         f"({forms.n_dofs},)")
    return u0


def _legs(grid, theta, t_start):
    """The legs of a heat run as (time grid, theta, step label): the window
    at ``theta``, led in from ``t_start`` < t0 by implicit-Euler steps of
    about theta dt."""
    legs = [(grid, theta, "time step")]
    if t_start is not None and t_start != grid.t0:
        lead = TimeGrid(t_start, grid.t0,
                        max(1, round((grid.t0 - t_start) / (theta * grid.dt))))
        legs.insert(0, (lead, 1.0, "lead-in step"))
    return legs


def _check_residuals(grid, what, rnorm, bnorm, cg_tol):
    """Raise naming the first step of a leg whose residual norm exceeds
    ``cg_tol`` times the norm of its right-hand side."""
    bad = np.flatnonzero(~(rnorm <= cg_tol * bnorm))
    if bad.size:
        k = bad[0]
        raise RuntimeError(
            f"{what} {k + 1} (t={grid.times()[k + 1]:.6g}): relative residual "
            f"{rnorm[k] / bnorm[k]:.3e} exceeds {cg_tol:.1e}")


def _nodal_values(forms, grid, u0, states):
    """The window's nodal values from the free-dof states of a whole run:
    its first row is u0, the boundary entries of the others zero."""
    values = np.zeros((grid.steps + 1, forms.n_dofs))
    values[0] = u0
    values[:, forms.free_dofs] = states[-grid.steps - 1:]
    return values


def _scaled_residual_norm(res, lumped):
    """Discrete L2 norm of the pointwise residual, res of shape (..., n):
    the weak residual divided by the nodal area shares, measured back in the
    lumped inner product."""
    return np.sqrt((res * res / lumped).sum())


class _ImplicitEulerSystem:
    """The nonlinear system of one implicit-Euler step of the stacked
    two-species system from ``state``,
    G(u) = (M/dt + alpha K) u - M state / dt - b(R(u)) = 0 for both species
    at once, with the reaction loads b(R(u)) integrated by the three-midpoint
    rule of the loads at the midpoint values of u.

    ``jacobian`` is the exact derivative of G as one 2x2 block operator in
    the slot layout of the shared mass pattern (``linalg.SparseSym``):
    block values of shape (2, 2, r, n), the four coefficient-weighted
    reaction mass blocks (one ``weighted_mass`` call) negated, with
    M/dt + alpha K added to the diagonal blocks.  A product gathers both
    species at every slot's column with one ``np.take``, giving (2, r, n),
    and one ``einsum`` multiplies by the block values and sums over the
    species and slot axes.  The preconditioner is nodal 2x2 block Jacobi:
    each node's species block of the Jacobian diagonal, read off slot 0 of
    the block values and inverted in closed form."""

    def __init__(self, forms, params, state, dt):
        self.forms, self.params = forms, params
        n = self.n = forms.n_dofs
        M, K = forms.mass, forms.stiffness
        self.diff = M.lincomb(K, 1.0 / dt, params[2])  # M/dt + alpha K
        self.inertia = M.matvec(state.reshape(2, n)) / dt

    def residual(self, u):
        """G(u), shape (2 n,), for the stacked state u of shape (2 n,), and
        the midpoint values of both species, shape (2, n_tris, 3): one
        ``midpoint_values`` and one ``load_from_midpoint_values`` call on
        the (2, n) view of u."""
        forms, U = self.forms, u.reshape(2, self.n)
        m = forms.midpoint_values(U)
        loads = load_from_midpoint_values(
            forms, np.stack(brusselator_rhs(self.params, m[0], m[1])))
        return (self.diff.matvec(U) - self.inertia - loads).ravel(), m

    def jacobian(self, m):
        """(product, preconditioner) of the Jacobian at the state whose
        midpoint values are m, shape (2, n_tris, 3)."""
        b, n, diff = self.params[1], self.n, self.diff
        m1, m2 = m
        J = -self.forms.weighted_mass(np.stack([
            2.0 * m1 * m2 - (b + 1.0), m1 ** 2, b - 2.0 * m1 * m2, -m1 ** 2,
        ])).reshape((2, 2) + diff.vals.shape)
        J[0, 0] += diff.vals
        J[1, 1] += diff.vals
        cols = diff.cols

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
                            start=None):
    """One implicit-Euler step of the stacked two-species system from
    ``state``, solved by an inexact Newton method from ``start`` (default
    ``state``).

    Reaction terms are integrated with the same three-midpoint rule as the
    loads, with the state interpolated at the midpoints, and the Jacobian is
    the exact derivative of that quadrature, so convergence is quadratic up
    to the forcing floor.  Each Newton iteration assembles the Jacobian as
    one 2x2 block operator on the shared mass pattern and solves with it by
    preconditioned BiCGStab (``_ImplicitEulerSystem``) to the relative
    residual eta = FORCING tol / ||G||, but not below KRYLOV_TOL, where
    ||G|| is the mass-scaled residual of the stop test (Eisenstat & Walker,
    SIAM J. Sci. Comput. 17, 1996).  The linear residual then adds a few
    FORCING shares of ``tol`` at most to the next Newton residual, and
    eta < FORCING since a solve runs only while ||G|| > tol.  The iteration
    stops when the mass-scaled residual drops below ``tol`` (absolute); it
    fails after ``max_iter`` iterations or at a non-finite residual, listing
    the residual history with each iteration's BiCGStab count."""
    n = forms.n_dofs
    state = np.asarray(state, dtype=float)
    u = state.copy() if start is None else np.array(start, dtype=float)
    for name, v in (("state", state), ("start", u)):
        if v.shape != (2 * n,):
            raise ValueError(f"{name} has shape {v.shape}, expected "
                             f"({2 * n},)")
    system = _ImplicitEulerSystem(forms, params, state, dt)
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
        eta = max(KRYLOV_TOL, FORCING * tol / rnorm)
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
    a, b, alpha = params
    n = forms.n_dofs
    K = forms.stiffness
    lumped = forms.lumped_mass()

    def rhs(u):
        U = u.reshape(2, n)
        R = np.stack(brusselator_rhs((a, b, alpha), U[0], U[1]))
        return (R - alpha * K.matvec(U) / lumped).ravel()

    k1 = rhs(state)
    k2 = rhs(state + 0.5 * dt * k1)
    out = state + dt * k2
    if not np.isfinite(out).all():
        raise FloatingPointError("explicit step produced non-finite values")
    return out


def brusselator_trajectory(forms, params, state0, grid, scheme="newton",
                           newton_tol=1e-10):
    """March the reaction-diffusion system over a time grid.

    scheme is 'newton' (implicit Euler) or 'rk2' (explicit midpoint on the
    lumped system).  Each Newton step starts from the polynomial
    extrapolation of the states already marched (``_predicted_start``).
    Failures are reported with the offending step index; overflow on the
    way to a non-finite state raises that error, not numpy warnings."""
    n = forms.n_dofs
    state0 = np.asarray(state0, dtype=float)
    values = np.zeros((grid.steps + 1, 2 * n))
    values[0] = state0
    u = state0.copy()
    times = grid.times()
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, grid.steps + 1):
            try:
                if scheme == "newton":
                    u = brusselator_step_newton(
                        forms, params, u, grid.dt, tol=newton_tol,
                        start=_predicted_start(values, k))
                elif scheme == "rk2":
                    u = brusselator_step_rk2(forms, params, u, grid.dt)
                else:
                    raise ValueError(f"unknown scheme {scheme!r}")
            except (ConvergenceError, FloatingPointError) as exc:
                raise RuntimeError(
                    f"step {k} (t={times[k]:.6g}) of the {scheme} march "
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
