"""Quadratic-in-time interpolation of a trajectory from one uniform grid onto
another sharing the same window."""

from __future__ import annotations

import numpy as np

from nirb.integrators import FieldTrajectory


def quadratic_time_interp(traj, target_grid):
    """Resample a trajectory onto ``target_grid`` with piecewise parabolas.

    For a target time in the source interval (t_{m-1}, t_m] the Lagrange
    parabola through the source knots m-2, m-1, m is evaluated; the first
    interval borrows the parabola through knots 0, 1, 2.  Targets are binned
    half-open on the left with the final time closed, and values at shared
    knots are reproduced exactly.  The source grid needs at least two steps
    and both grids must span the same window."""
    src = traj.grid
    if src.steps < 2:
        raise ValueError("quadratic interpolation needs at least two source steps")
    span = src.T - src.t0
    if (abs(target_grid.t0 - src.t0) > 1e-12 * span
            or abs(target_grid.T - src.T) > 1e-12 * span):
        raise ValueError(
            f"time windows differ: source [{src.t0}, {src.T}], "
            f"target [{target_grid.t0}, {target_grid.T}]")

    tt = src.times()
    tf = target_grid.times()
    w = (tf - src.t0) / src.dt
    m = np.clip(np.floor(w).astype(np.int64) + 1, 1, src.steps)
    mp = np.maximum(m, 2)

    ta, tb, tc = tt[mp - 2], tt[mp - 1], tt[mp]
    la = (tf - tb) * (tf - tc) / ((ta - tb) * (ta - tc))
    lb = (tf - ta) * (tf - tc) / ((tb - ta) * (tb - tc))
    lc = (tf - ta) * (tf - tb) / ((tc - ta) * (tc - tb))

    V = traj.values
    out = (la[:, None] * V[mp - 2] + lb[:, None] * V[mp - 1] + lc[:, None] * V[mp])
    return FieldTrajectory(mesh=traj.mesh, grid=target_grid, values=out,
                           parameter=traj.parameter)
