import numpy as np
import pytest

from nirb import mesh
from nirb.integrators import FieldTrajectory, TimeGrid
from nirb.time_interp import quadratic_time_interp


def make_traj(fn, grid, n_nodes=5, n_fields=1):
    m = mesh.build_structured(1, 1)
    t = grid.times()
    values = np.stack([np.full(4 * n_fields, fn(tk)) for tk in t])
    return FieldTrajectory(mesh=m, grid=grid, values=values, parameter=1.0)


def test_quadratic_polynomial_exact():
    src = TimeGrid(0.0, 1.0, 5)
    dst = TimeGrid(0.0, 1.0, 17)
    traj = make_traj(lambda t: 3.0 * t ** 2 - 2.0 * t + 0.25, src)
    out = quadratic_time_interp(traj, dst)
    want = 3.0 * dst.times() ** 2 - 2.0 * dst.times() + 0.25
    assert np.abs(out.values - want[:, None]).max() <= 1e-12


def test_constant_trajectory():
    src = TimeGrid(1.0, 2.0, 4)
    dst = TimeGrid(1.0, 2.0, 11)
    traj = make_traj(lambda t: 4.5, src)
    out = quadratic_time_interp(traj, dst)
    assert np.abs(out.values - 4.5).max() <= 1e-13


def test_shared_knots_reproduced():
    src = TimeGrid(0.0, 2.0, 4)
    dst = TimeGrid(0.0, 2.0, 8)
    traj = make_traj(lambda t: np.sin(t), src)
    out = quadratic_time_interp(traj, dst)
    assert out.values[::2] == pytest.approx(traj.values, abs=1e-13)


def test_first_interval_borrows_forward_parabola():
    # Targets below the second source knot use the parabola through the
    # first three knots, so a quadratic stays exact there too.
    src = TimeGrid(0.0, 1.0, 2)
    dst = TimeGrid(0.0, 1.0, 10)
    traj = make_traj(lambda t: (t - 0.3) ** 2, src)
    out = quadratic_time_interp(traj, dst)
    want = (dst.times() - 0.3) ** 2
    assert np.abs(out.values - want[:, None]).max() <= 1e-13


def test_cubic_error_third_order():
    errs = []
    steps = (4, 8, 16)
    for n in steps:
        src = TimeGrid(0.0, 1.0, n)
        dst = TimeGrid(0.0, 1.0, 4 * n)
        traj = make_traj(lambda t: t ** 3, src)
        out = quadratic_time_interp(traj, dst)
        errs.append(np.abs(out.values[:, 0] - dst.times() ** 3).max())
    slope = np.polyfit(np.log([1.0 / n for n in steps]), np.log(errs), 1)[0]
    assert slope == pytest.approx(3.0, abs=0.3)


def test_window_mismatch_rejected():
    traj = make_traj(lambda t: t, TimeGrid(0.0, 1.0, 4))
    with pytest.raises(ValueError, match="window"):
        quadratic_time_interp(traj, TimeGrid(0.0, 2.0, 4))


def test_single_step_source_rejected():
    traj = make_traj(lambda t: t, TimeGrid(0.0, 1.0, 1))
    with pytest.raises(ValueError):
        quadratic_time_interp(traj, TimeGrid(0.0, 1.0, 4))


def test_two_field_trajectory_resampled():
    src = TimeGrid(0.0, 1.0, 4)
    dst = TimeGrid(0.0, 1.0, 6)
    traj = make_traj(lambda t: t ** 2, src, n_fields=2)
    out = quadratic_time_interp(traj, dst)
    assert out.n_fields == 2
    assert out.values.shape == (7, 8)
    assert np.abs(out.values - dst.times()[:, None] ** 2).max() <= 1e-13
