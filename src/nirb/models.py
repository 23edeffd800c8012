"""Benchmark problems: a parameterized heat equation with a closed-form
reference solution, and the two-species autocatalytic reaction-diffusion
system."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def manufactured_u(t, x, y):
    """Closed-form solution of the unit-diffusivity heat problem: a polynomial
    bump, linear in time, vanishing on the boundary of the unit square."""
    return 10.0 * t * x ** 2 * (1.0 - x) ** 2 * y ** 2 * (1.0 - y) ** 2


def manufactured_f(t, x, y):
    """Source term matching manufactured_u for diffusivity one."""
    X = x ** 2 * (x - 1.0) ** 2
    Y = y ** 2 * (y - 1.0) ** 2
    return 10.0 * (X * Y - 2.0 * t * ((6.0 * x ** 2 - 6.0 * x + 1.0) * Y
                                      + (6.0 * y ** 2 - 6.0 * y + 1.0) * X))


def manufactured_grad(t, x, y):
    """Spatial gradient of manufactured_u."""
    X = x ** 2 * (1.0 - x) ** 2
    Y = y ** 2 * (1.0 - y) ** 2
    dX = 2.0 * x * (1.0 - x) * (1.0 - 2.0 * x)
    dY = 2.0 * y * (1.0 - y) * (1.0 - 2.0 * y)
    return 10.0 * t * dX * Y, 10.0 * t * X * dY


@dataclass(frozen=True)
class BrusselatorProblem:
    """Two-species reaction-diffusion system with equal diffusivities alpha
    and natural boundary conditions; fixed point at (a, b/a)."""

    a: float
    b: float
    alpha: float

    A_RANGE = (2.0, 4.0)
    B_RANGE = (1.0, 4.0)
    ALPHA_RANGE = (0.001, 0.05)

    @property
    def stable(self):
        """Linear stability of the homogeneous fixed point."""
        return self.b <= 1.0 + self.a ** 2

    def in_range(self):
        return (self.A_RANGE[0] <= self.a <= self.A_RANGE[1]
                and self.B_RANGE[0] <= self.b <= self.B_RANGE[1]
                and self.ALPHA_RANGE[0] <= self.alpha <= self.ALPHA_RANGE[1])

    def initial_state(self, mesh):
        """Stacked nodal initial data (2 + y/4, 1 + 4x/5)."""
        x = mesh.nodes[:, 0]
        y = mesh.nodes[:, 1]
        return np.concatenate([2.0 + 0.25 * y, 1.0 + 0.8 * x])


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
