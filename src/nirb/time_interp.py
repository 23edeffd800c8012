"""Quadratic-in-time interpolation of a trajectory from one uniform grid onto
another sharing the same window."""

from __future__ import annotations

import numpy as np

from nirb.integrators import FieldTrajectory


def quadratic_weights(source, target):
    """The matrix W, shape (target.steps + 1, source.steps + 1), of
    piecewise-parabolic resampling from the uniform grid ``source`` onto
    ``target``: values at the source knots become W times them.

    For a target time in the source interval (t_{m-1}, t_m] row i holds the
    Lagrange weights of the parabola through the source knots m-2, m-1, m;
    the first interval borrows the parabola through knots 0, 1, 2.  Targets
    are binned half-open on the left with the final time closed, and values
    at shared knots are reproduced exactly.  The source grid needs at least
    two steps and both grids must span the same window."""
    if source.steps < 2:
        raise ValueError("quadratic interpolation needs at least two source steps")
    span = source.T - source.t0
    if (abs(target.t0 - source.t0) > 1e-12 * span
            or abs(target.T - source.T) > 1e-12 * span):
        raise ValueError(
            f"time windows differ: source [{source.t0}, {source.T}], "
            f"target [{target.t0}, {target.T}]")

    tt = source.times()
    tf = target.times()
    w = (tf - source.t0) / source.dt
    m = np.clip(np.floor(w).astype(np.int64) + 1, 1, source.steps)
    mp = np.maximum(m, 2)

    ta, tb, tc = tt[mp - 2], tt[mp - 1], tt[mp]
    W = np.zeros((tf.size, tt.size))
    rows = np.arange(tf.size)
    W[rows, mp - 2] = (tf - tb) * (tf - tc) / ((ta - tb) * (ta - tc))
    W[rows, mp - 1] = (tf - ta) * (tf - tc) / ((tb - ta) * (tb - tc))
    W[rows, mp] = (tf - ta) * (tf - tb) / ((tc - ta) * (tc - tb))
    return W


def quadratic_time_interp(traj, target_grid):
    """Resample a trajectory onto ``target_grid`` with piecewise parabolas:
    ``quadratic_weights(traj.grid, target_grid)`` times its values."""
    values = quadratic_weights(traj.grid, target_grid) @ traj.values
    return FieldTrajectory(mesh=traj.mesh, grid=target_grid, values=values,
                           parameter=traj.parameter)
