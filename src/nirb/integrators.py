"""Time integrators: implicit Euler and Crank-Nicolson for the heat problem,
and Newton-implicit-Euler / explicit-midpoint steps for the two-species
reaction-diffusion system."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from nirb.fem import load_from_midpoint_values
from nirb.linalg import BandFactor, ConvergenceError, bicgstab_solve
from nirb.models import brusselator_rhs

# relative residual of the BiCGStab solve inside each Newton iteration
KRYLOV_TOL = 1e-12


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

    def split_fields(self):
        return np.split(self.values, self.n_fields, axis=-1)


def heat_backward_euler(forms, mu, f, u0, grid, cg_tol=1e-10, t_start=None):
    """Implicit Euler for du/dt = mu Laplace(u) + f with zero Dirichlet data:
    each step solves (M + dt mu K) u = M u_prev + dt b(t) on the free dofs
    to a relative residual of at most ``cg_tol``.  u0 is the state at
    ``t_start`` (default ``grid.t0``); f may be None for a source-free run."""
    return _heat_march(forms, mu, f, u0, grid, cg_tol, 1.0, t_start)


def heat_crank_nicolson(forms, mu, f, u0, grid, cg_tol=1e-10, t_start=None):
    """Trapezoidal stepping with the source evaluated at the half step:
    (M + dt/2 mu K) u = (M - dt/2 mu K) u_prev + dt b(t - dt/2), solved like
    ``heat_backward_euler``."""
    return _heat_march(forms, mu, f, u0, grid, cg_tol, 0.5, t_start)


def _heat_march(forms, mu, f, u0, grid, cg_tol, theta, t_start):
    """The theta-scheme (M + theta dt mu K) u = (M - (1 - theta) dt mu K)
    u_prev + dt b(t - (1 - theta) dt) over the window.  A run from
    t_start < t0 first takes implicit-Euler steps of theta dt to t0 with the
    window's factor (for Crank-Nicolson, Rannacher's damping half steps,
    Numer. Math. 43, 1984); only a lead-in that is not a whole number of
    such steps factors its own matrix."""
    u0 = np.asarray(u0, dtype=float)
    n = forms.n_dofs
    if u0.shape != (n,):
        raise ValueError(f"initial data has shape {u0.shape}, expected ({n},)")
    free = forms.free_dofs
    Mff, Kff = forms.mass_free(), forms.stiffness_free()
    dt = grid.dt
    lhs = Mff.lincomb(Kff, 1.0, theta * dt * mu)
    rhs_mat = Mff if theta == 1.0 else \
        Mff.lincomb(Kff, 1.0, (theta - 1.0) * dt * mu)
    factor = BandFactor(lhs)
    legs = [(grid, lhs, factor, rhs_mat, (1.0 - theta) * dt, "time step")]
    if t_start is not None and t_start != grid.t0:
        lead = TimeGrid(t_start, grid.t0,
                        max(1, round((grid.t0 - t_start) / (theta * dt))))
        lead_lhs, lead_factor = lhs, factor
        if not math.isclose(lead.dt, theta * dt, rel_tol=1e-12):
            lead_lhs = Mff.lincomb(Kff, 1.0, lead.dt * mu)
            lead_factor = BandFactor(lead_lhs)
        legs.insert(0, (lead, lead_lhs, lead_factor, Mff, 0.0, "lead-in step"))
    states = [u0[free]]
    for g, lhs, factor, rhs_mat, lag, what in legs:
        times = g.times()
        for k in range(1, g.steps + 1):
            rhs = rhs_mat.matvec(states[-1])
            if f is not None:
                rhs = rhs + g.dt * forms.free_load(f, times[k] - lag)
            states.append(factor.solve(rhs))
            res = lhs.matvec(states[-1]) - rhs
            rnorm, bnorm = np.sqrt(res @ res), np.sqrt(rhs @ rhs)
            if not rnorm <= cg_tol * bnorm:
                raise RuntimeError(
                    f"{what} {k} (t={times[k]:.6g}): relative residual "
                    f"{rnorm / bnorm:.3e} exceeds {cg_tol:.1e}")
    values = np.zeros((grid.steps + 1, n))
    values[0] = u0
    values[:, free] = states[-grid.steps - 1:]
    return FieldTrajectory(mesh=forms.mesh, grid=grid, values=values,
                           parameter=mu)


def _scaled_residual_norm(res, lumped2):
    """Discrete L2 norm of the pointwise residual: the weak residual divided
    by the nodal area shares, measured back in the lumped inner product."""
    return np.sqrt((res * res / lumped2).sum())


def brusselator_step_newton(forms, params, state, dt, tol=1e-10, max_iter=20):
    """One implicit-Euler step of the stacked two-species system solved by
    Newton's method.

    Reaction terms are integrated with the same three-midpoint rule as the
    loads, with the state interpolated at the midpoints, and the Jacobian is
    the exact derivative of that quadrature (coefficient-weighted mass
    blocks), so convergence is quadratic.  The iteration stops when the
    mass-scaled residual drops below ``tol`` (absolute)."""
    a, b, alpha = params
    n = forms.n_dofs
    state = np.asarray(state, dtype=float)
    if state.shape != (2 * n,):
        raise ValueError(f"state has shape {state.shape}, expected ({2 * n},)")
    M, K = forms.mass, forms.stiffness
    lumped2 = np.tile(forms.lumped_mass(), 2)
    diff = M.lincomb(K, 1.0 / dt, alpha)  # M/dt + alpha K

    def residual(u):
        u1, u2 = u[:n], u[n:]
        m1 = forms.midpoint_values(u1)
        m2 = forms.midpoint_values(u2)
        r1, r2 = brusselator_rhs((a, b, alpha), m1, m2)
        g1 = diff.matvec(u1) - M.matvec(state[:n]) / dt \
            - load_from_midpoint_values(forms, r1)
        g2 = diff.matvec(u2) - M.matvec(state[n:]) / dt \
            - load_from_midpoint_values(forms, r2)
        return np.concatenate([g1, g2]), m1, m2

    u = state.copy()
    history = []
    for it in range(max_iter + 1):
        G, m1, m2 = residual(u)
        rnorm = _scaled_residual_norm(G, lumped2)
        history.append(rnorm)
        if rnorm <= tol:
            return u
        if it == max_iter:
            break
        # reaction Jacobian coefficients at the midpoints
        W11 = forms.weighted_mass(2.0 * m1 * m2 - (b + 1.0))
        W12 = forms.weighted_mass(m1 ** 2)
        W21 = forms.weighted_mass(b - 2.0 * m1 * m2)
        W22 = forms.weighted_mass(-m1 ** 2)

        def jac(x):
            x1, x2 = x[:n], x[n:]
            y1 = diff.matvec(x1) - W11.matvec(x1) - W12.matvec(x2)
            y2 = diff.matvec(x2) - W21.matvec(x1) - W22.matvec(x2)
            return np.concatenate([y1, y2])

        # nodal 2x2 block Jacobi: each node's species block of the Jacobian
        # diagonal, inverted in closed form
        a11 = diff.diagonal() - W11.diagonal()
        a22 = diff.diagonal() - W22.diagonal()
        a12, a21 = -W12.diagonal(), -W21.diagonal()
        det = a11 * a22 - a12 * a21

        def precond(x):
            x1, x2 = x[:n], x[n:]
            return np.concatenate([(a22 * x1 - a12 * x2) / det,
                                   (a11 * x2 - a21 * x1) / det])

        try:
            d, _ = bicgstab_solve(jac, -G, tol=KRYLOV_TOL, precond=precond)
        except ConvergenceError as exc:
            raise ConvergenceError(
                f"Newton linear solve failed at iteration {it}: {exc}",
                residual=rnorm, iterations=it) from exc
        u += d
    raise ConvergenceError(
        "Newton did not reach the residual tolerance; history "
        + ", ".join(f"{r:.3e}" for r in history), residual=history[-1],
        iterations=max_iter)


def brusselator_step_rk2(forms, params, state, dt):
    """One explicit midpoint step of the mass-lumped semi-discrete system
    u' = R(u) - alpha * M_lumped^{-1} K u.  The caller keeps dt below the
    diffusion stability bound; a non-finite result raises immediately."""
    a, b, alpha = params
    n = forms.n_dofs
    K = forms.stiffness
    lumped = forms.lumped_mass()

    def rhs(u):
        u1, u2 = u[:n], u[n:]
        r1, r2 = brusselator_rhs((a, b, alpha), u1, u2)
        y1 = r1 - alpha * K.matvec(u1) / lumped
        y2 = r2 - alpha * K.matvec(u2) / lumped
        return np.concatenate([y1, y2])

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
    lumped system).  Failures are reported with the offending step index."""
    n = forms.n_dofs
    state0 = np.asarray(state0, dtype=float)
    values = np.zeros((grid.steps + 1, 2 * n))
    values[0] = state0
    u = state0.copy()
    times = grid.times()
    for k in range(1, grid.steps + 1):
        try:
            if scheme == "newton":
                u = brusselator_step_newton(forms, params, u, grid.dt,
                                            tol=newton_tol)
            elif scheme == "rk2":
                u = brusselator_step_rk2(forms, params, u, grid.dt)
            else:
                raise ValueError(f"unknown scheme {scheme!r}")
        except (ConvergenceError, FloatingPointError) as exc:
            raise RuntimeError(
                f"step {k} (t={times[k]:.6g}) of the {scheme} march failed: {exc}"
            ) from exc
        values[k] = u
    return FieldTrajectory(mesh=forms.mesh, grid=grid, values=values,
                           parameter=tuple(params))
