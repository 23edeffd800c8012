"""Time integrators: implicit Euler and Crank-Nicolson for the heat problem,
and Newton-implicit-Euler / explicit-midpoint steps for the two-species
reaction-diffusion system."""

from __future__ import annotations

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


def heat_backward_euler(forms, mu, f, u0, grid, cg_tol=1e-10):
    """Implicit Euler for du/dt = mu Laplace(u) + f with zero Dirichlet data.

    Each step solves (M + dt mu K) u = M u_prev + dt b(t) on the free dofs
    with a factor of the left-hand side built once per march; every step's
    relative residual must be at most ``cg_tol``.  f may be None for a
    source-free run."""
    values = _heat_march(forms, mu, f, u0, grid, cg_tol, scheme="euler")
    return FieldTrajectory(mesh=forms.mesh, grid=grid, values=values,
                           parameter=mu)


def heat_crank_nicolson(forms, mu, f, u0, grid, cg_tol=1e-10):
    """Trapezoidal stepping with the source evaluated at the half step:
    (M + dt/2 mu K) u = (M - dt/2 mu K) u_prev + dt b(t - dt/2), solved like
    ``heat_backward_euler`` with a left-hand side factored once per march."""
    values = _heat_march(forms, mu, f, u0, grid, cg_tol, scheme="cn")
    return FieldTrajectory(mesh=forms.mesh, grid=grid, values=values,
                           parameter=mu)


def _heat_march(forms, mu, f, u0, grid, cg_tol, scheme):
    u0 = np.asarray(u0, dtype=float)
    n = forms.n_dofs
    if u0.shape != (n,):
        raise ValueError(f"initial data has shape {u0.shape}, expected ({n},)")
    free = forms.free_dofs
    Mff = forms.mass_free()
    Kff = forms.stiffness_free()
    dt = grid.dt
    if scheme == "euler":
        lhs = Mff.lincomb(Kff, 1.0, dt * mu)
        rhs_mat = Mff
    else:
        lhs = Mff.lincomb(Kff, 1.0, 0.5 * dt * mu)
        rhs_mat = Mff.lincomb(Kff, 1.0, -0.5 * dt * mu)
    factor = BandFactor(lhs)

    values = np.zeros((grid.steps + 1, n))
    values[0] = u0
    uf = u0[free].copy()
    times = grid.times()
    for k in range(1, grid.steps + 1):
        t_src = times[k] if scheme == "euler" else times[k] - 0.5 * dt
        rhs = rhs_mat.matvec(uf)
        if f is not None:
            rhs = rhs + dt * forms.free_load(f, t_src)
        uf = factor.solve(rhs)
        res = lhs.matvec(uf) - rhs
        rnorm, bnorm = np.sqrt(res @ res), np.sqrt(rhs @ rhs)
        if not rnorm <= cg_tol * bnorm:
            raise RuntimeError(
                f"time step {k} (t={times[k]:.6g}): relative residual "
                f"{rnorm / bnorm:.3e} exceeds {cg_tol:.1e}")
        values[k, free] = uf
    return values


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
