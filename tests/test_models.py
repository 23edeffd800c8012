import re

import numpy as np
import pytest

from nirb import integrators, models, pipeline
from nirb.config import StudyConfig


class TestManufactured:
    def test_center_value(self):
        assert models.manufactured_u(1.0, 0.5, 0.5) == pytest.approx(0.0390625)

    def test_linear_in_time(self):
        assert models.manufactured_u(2.0, 0.5, 0.5) == pytest.approx(0.078125)

    def test_vanishes_on_boundary(self, rng):
        t = rng.uniform(0.0, 3.0, 20)
        s = rng.uniform(0.0, 1.0, 20)
        for edge in (models.manufactured_u(t, 0.0, s),
                     models.manufactured_u(t, 1.0, s),
                     models.manufactured_u(t, s, 0.0),
                     models.manufactured_u(t, s, 1.0)):
            assert np.abs(edge).max() == 0.0

    def test_forcing_corner_and_center(self):
        assert models.manufactured_f(3.0, 0.0, 0.0) == pytest.approx(0.0)
        assert models.manufactured_f(0.0, 0.5, 0.5) == pytest.approx(0.0390625)

    def test_forcing_residual_fd(self, rng):
        # f must equal u_t - Laplace(u); check with central differences at
        # random interior points.
        eps = 1e-4
        t = rng.uniform(0.1, 2.0, 50)
        x = rng.uniform(0.1, 0.9, 50)
        y = rng.uniform(0.1, 0.9, 50)
        u = models.manufactured_u
        ut = (u(t + eps, x, y) - u(t - eps, x, y)) / (2.0 * eps)
        lap = (u(t, x + eps, y) + u(t, x - eps, y) + u(t, x, y + eps)
               + u(t, x, y - eps) - 4.0 * u(t, x, y)) / eps ** 2
        res = models.manufactured_f(t, x, y) - (ut - lap)
        assert np.abs(res).max() <= 1e-5

    def test_gradient_fd(self, rng):
        eps = 1e-6
        t, x, y = 1.3, rng.uniform(0.1, 0.9, 30), rng.uniform(0.1, 0.9, 30)
        gx, gy = models.manufactured_grad(t, x, y)
        u = models.manufactured_u
        assert gx == pytest.approx((u(t, x + eps, y) - u(t, x - eps, y))
                                   / (2 * eps), abs=1e-6)
        assert gy == pytest.approx((u(t, x, y + eps) - u(t, x, y - eps))
                                   / (2 * eps), abs=1e-6)


class TestBrusselatorProblem:
    def test_stability_threshold(self):
        assert models.PROBLEMS["brusselator"].stable((2.0, 4.0, 0.01))
        assert not models.PROBLEMS["brusselator"].stable((2.0, 6.0, 0.01))

    def test_range(self):
        assert models.PROBLEMS["brusselator"].in_range((3.0, 2.0, 0.008))
        assert not models.PROBLEMS["brusselator"].in_range((5.0, 2.0, 0.008))
        assert not models.PROBLEMS["brusselator"].in_range((3.0, 2.0, 0.2))

    def test_initial_state(self):
        from nirb import mesh
        m = mesh.build_structured(2, 2)
        state = models.PROBLEMS["brusselator"].initial_state(m)
        u1, u2 = np.split(state, 2)
        assert u1 == pytest.approx(2.0 + 0.25 * m.nodes[:, 1])
        assert u2 == pytest.approx(1.0 + 0.8 * m.nodes[:, 0])


class TestBrusselatorRhs:
    def test_steady_state_for_all_parameters(self):
        for a in (2.0, 2.5, 3.0, 4.0):
            for b in (1.0, 2.0, 3.0, 4.0):
                r1, r2 = integrators.brusselator_rhs((a, b, 0.01),
                                                     [a, b / a])
                assert abs(r1) <= 1e-13 and abs(r2) <= 1e-13

    def test_species_one_extinct(self):
        r1, r2 = integrators.brusselator_rhs((3.0, 2.0, 0.01), [0.0, 1.5])
        assert (r1, r2) == (3.0, 0.0)

    def test_hand_value(self):
        r1, r2 = integrators.brusselator_rhs((3.0, 2.0, 0.01), [1.0, 1.0])
        assert (r1, r2) == pytest.approx((1.0, 1.0))

    def test_autocatalysis_is_quadratic_in_species_one(self):
        # At (1, 2) the correct rates are (2, 0); swapping the exponents onto
        # species two would give (4, -2) instead.
        r1, r2 = integrators.brusselator_rhs((3.0, 2.0, 0.01), [1.0, 2.0])
        assert (r1, r2) == pytest.approx((2.0, 0.0))

    def test_mass_budget(self, rng):
        u1 = rng.uniform(0.0, 4.0, 25)
        u2 = rng.uniform(0.0, 4.0, 25)
        r1, r2 = integrators.brusselator_rhs((2.5, 3.0, 0.02), [u1, u2])
        assert r1 + r2 == pytest.approx(2.5 - u1, abs=1e-12)

    def test_stacked_species_keep_their_shape(self, rng):
        # a species stack with any trailing axes gives rates of its shape,
        # each point's rates those of its own species pair
        params = (2.5, 3.0, 0.02)
        U = rng.uniform(0.0, 4.0, (2, 5, 3))
        R = integrators.brusselator_rhs(params, U)
        assert R.shape == U.shape
        for k in np.ndindex(5, 3):
            assert np.array_equal(R[(slice(None),) + k],
                                  integrators.brusselator_rhs(
                                      params, U[(slice(None),) + k]))

    def test_ode_attracts_to_fixed_point(self):
        # Midpoint integration of the pure reaction system from a perturbed
        # start must settle at (a, b/a). A model with the autocatalytic
        # nonlinearity attached to the wrong species settles elsewhere.
        state = np.array([2.0, 1.0])
        dt = 0.01
        for _ in range(4000):
            r = integrators.brusselator_rhs((3.0, 2.0, 0.0), state)
            mid = state + 0.5 * dt * r
            state = state + dt * integrators.brusselator_rhs((3.0, 2.0, 0.0),
                                                             mid)
        assert state == pytest.approx([3.0, 2.0 / 3.0], abs=1e-3)


@pytest.mark.parametrize("name, edit, key, wrong, label, tag, form", [
    ("heat", {}, 4.5, (3.0, 2.0, 0.003), "4.5", "mu4.5", "one number"),
    ("brusselator", {"t0": 0.0}, (3.0, 2.0, 0.003), 4.5, "(3, 2, 0.003)",
     "a3_b2_alpha0.003", "a triple (a, b, alpha) of numbers"),
])
def test_each_registered_problem_owns_its_keys(name, edit, key, wrong,
                                               label, tag, form):
    # the key form, its wrong-form message, the label and the file tag of a
    # key are the problem object's, picked by the config's problem name
    config = StudyConfig(problem=name, **edit).validate()
    problem = models.problem_of(config)
    assert problem is models.PROBLEMS[name]
    got = pipeline.check_bounds(config, key)
    assert got == key and type(got) is type(key)
    assert pipeline.check_bounds(config, got) == got
    with pytest.raises(ValueError, match=f"^parameter {re.escape(repr(wrong))}"
                                         f" is not {re.escape(form)}$"):
        pipeline.check_bounds(config, wrong)
    assert problem.label(got) == label
    assert problem.tag(got) == tag


def test_every_problem_is_registered_under_its_config_name():
    assert sorted(models.PROBLEMS) == ["brusselator", "heat"]
    with pytest.raises(ValueError, match="^unknown problem 'wave'$"):
        models.problem_of(StudyConfig(problem="wave"))
