"""The time weights W of the quadratic time interpolation: values at the
source knots resampled onto a target grid are W times them."""

import numpy as np
import pytest

from nirb.integrators import TimeGrid
from nirb.rectification import quadratic_weights


def knot_values(fn, grid, n_fields=1):
    """fn at every knot of ``grid``, repeated over four nodes per field."""
    return np.stack([np.full(4 * n_fields, fn(tk)) for tk in grid.times()])


def resample(values, src, dst):
    return quadratic_weights(src, dst) @ values


def test_quadratic_polynomial_exact():
    src = TimeGrid(0.0, 1.0, 5)
    dst = TimeGrid(0.0, 1.0, 17)
    out = resample(knot_values(lambda t: 3.0 * t ** 2 - 2.0 * t + 0.25, src),
                   src, dst)
    want = 3.0 * dst.times() ** 2 - 2.0 * dst.times() + 0.25
    assert np.abs(out - want[:, None]).max() <= 1e-12


def test_constant_trajectory():
    src = TimeGrid(1.0, 2.0, 4)
    dst = TimeGrid(1.0, 2.0, 11)
    out = resample(knot_values(lambda t: 4.5, src), src, dst)
    assert np.abs(out - 4.5).max() <= 1e-13


def test_shared_knots_reproduced():
    src = TimeGrid(0.0, 2.0, 4)
    dst = TimeGrid(0.0, 2.0, 8)
    values = knot_values(np.sin, src)
    out = resample(values, src, dst)
    assert out[::2] == pytest.approx(values, abs=1e-13)


def test_first_interval_borrows_forward_parabola():
    # Targets below the second source knot use the parabola through the
    # first three knots, so a quadratic stays exact there too.
    src = TimeGrid(0.0, 1.0, 2)
    dst = TimeGrid(0.0, 1.0, 10)
    out = resample(knot_values(lambda t: (t - 0.3) ** 2, src), src, dst)
    want = (dst.times() - 0.3) ** 2
    assert np.abs(out - want[:, None]).max() <= 1e-13


def test_cubic_error_third_order():
    errs = []
    steps = (4, 8, 16)
    for n in steps:
        src = TimeGrid(0.0, 1.0, n)
        dst = TimeGrid(0.0, 1.0, 4 * n)
        out = resample(knot_values(lambda t: t ** 3, src), src, dst)
        errs.append(np.abs(out[:, 0] - dst.times() ** 3).max())
    slope = np.polyfit(np.log([1.0 / n for n in steps]), np.log(errs), 1)[0]
    assert slope == pytest.approx(3.0, abs=0.3)


def test_window_mismatch_rejected():
    src = TimeGrid(0.0, 1.0, 4)
    with pytest.raises(ValueError, match="window"):
        resample(knot_values(lambda t: t, src), src, TimeGrid(0.0, 2.0, 4))


def test_single_step_source_rejected():
    src = TimeGrid(0.0, 1.0, 1)
    with pytest.raises(ValueError, match="two source steps"):
        resample(knot_values(lambda t: t, src), src, TimeGrid(0.0, 1.0, 4))


def test_two_field_trajectory_resampled():
    src = TimeGrid(0.0, 1.0, 4)
    dst = TimeGrid(0.0, 1.0, 6)
    out = resample(knot_values(lambda t: t ** 2, src, n_fields=2), src, dst)
    assert out.shape == (7, 8)
    assert np.abs(out - dst.times()[:, None] ** 2).max() <= 1e-13


def pointwise_lagrange(src, dst, values):
    """Each target knot's three Lagrange terms summed in turn: the formula
    of the resampling before it became one product with the weights."""
    tt, tf = src.times(), dst.times()
    m = np.clip(np.floor((tf - src.t0) / src.dt).astype(np.int64) + 1, 1,
                src.steps)
    mp = np.maximum(m, 2)
    ta, tb, tc = tt[mp - 2], tt[mp - 1], tt[mp]
    la = (tf - tb) * (tf - tc) / ((ta - tb) * (ta - tc))
    lb = (tf - ta) * (tf - tc) / ((tb - ta) * (tb - tc))
    lc = (tf - ta) * (tf - tb) / ((tc - ta) * (tc - tb))
    return (la[:, None] * values[mp - 2] + lb[:, None] * values[mp - 1]
            + lc[:, None] * values[mp])


GRID_PAIRS = [(TimeGrid(1.0, 2.0, 16), TimeGrid(1.0, 2.0, 32)),
              (TimeGrid(0.0, 1.0, 2), TimeGrid(0.0, 1.0, 10)),
              (TimeGrid(0.5, 2.0, 6), TimeGrid(0.5, 2.0, 19)),
              (TimeGrid(0.0, 3.0, 9), TimeGrid(0.0, 3.0, 4))]


@pytest.mark.parametrize("src, dst", GRID_PAIRS)
def test_weights_reproduce_quadratics_and_sum_to_one(src, dst):
    W = quadratic_weights(src, dst)
    assert W.shape == (dst.steps + 1, src.steps + 1)
    assert np.abs(W.sum(axis=1) - 1.0).max() <= 1e-14
    # three neighbouring knots per row
    assert ((W != 0).sum(axis=1) <= 3).all()
    ts, tf = src.times(), dst.times()
    for p in (lambda t: np.ones_like(t), lambda t: t,
              lambda t: 3.0 * t ** 2 - 2.0 * t + 0.25):
        assert np.abs(W @ p(ts) - p(tf)).max() <= 1e-13 * np.abs(p(tf)).max()


@pytest.mark.parametrize("src, dst", GRID_PAIRS)
def test_weights_match_the_pointwise_formula(rng, src, dst):
    values = rng.standard_normal((src.steps + 1, 40))
    want = pointwise_lagrange(src, dst, values)
    got = resample(values, src, dst)
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def test_weights_reject_mismatched_windows_and_short_sources():
    with pytest.raises(ValueError, match="time windows differ"):
        quadratic_weights(TimeGrid(0.0, 1.0, 4), TimeGrid(0.0, 2.0, 4))
    with pytest.raises(ValueError, match="time windows differ"):
        quadratic_weights(TimeGrid(0.0, 1.0, 4), TimeGrid(0.1, 1.0, 4))
    with pytest.raises(ValueError, match="two source steps"):
        quadratic_weights(TimeGrid(0.0, 1.0, 1), TimeGrid(0.0, 1.0, 4))
