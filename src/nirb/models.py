"""Benchmark problems, one object each in a registry keyed by the config's
problem name: a parameterized heat equation with a closed-form reference
solution, and the two-species autocatalytic reaction-diffusion system.

A problem object owns every choice that tells the workloads apart: boundary
condition, field count, fine and coarse runs on a ``pipeline.Discretization``
(the integrators looked up on their module at call time), the form, bounds,
label and file tag of a parameter key, training and test parameters,
validation rules and closed-form reference."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from nirb import integrators

logger = logging.getLogger(__name__)


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
class AnalyticReference:
    """Closed-form reference u(t, x, y) with its gradient grad(t, x, y).

    Error norms integrate the continuous difference by the midpoint rule;
    sampling the reference at the nodes would measure the superconvergent
    distance to the interpolant instead of the O(h) energy error."""

    u: object
    grad: object


class HeatProblem:
    """du/dt = mu Laplace(u) + manufactured_f with zero Dirichlet data,
    keyed by the diffusivity mu in [mu_min, mu_max]; every run, fine or
    coarse, starts from rest at t = 0, so the rectification is fitted on
    the kind of coarse run it is applied to."""

    bc, fields, form, axes = "dirichlet_zero", 1, "one number", ("train_mu",)

    def key(self, param):
        return float(param)

    def in_bounds(self, config, key):
        return config.mu_min <= key <= config.mu_max

    def training_parameters(self, config):
        return [float(mu) for mu in config.train_mu]

    def test_parameter(self, config):
        return float(config.test_mu)

    def validate(self, config):
        if not config.t0 > 0.0:
            raise ValueError(f"heat runs start from rest at t = 0, so the "
                             f"window needs t0 > 0, got t0={config.t0}")
        # zero Dirichlet data needs an interior node to solve for
        for which in ("fine", "coarse"):
            count = getattr(config, f"{which}_nx")
            if count < 2:
                raise ValueError(
                    f"{which}_nx = {count} leaves the heat problem's {which} "
                    f"mesh without an interior node; it needs at least 2 "
                    f"cells per direction")
        if not config.mu_min > 0.0:
            raise ValueError(f"mu_min = {config.mu_min} admits a diffusivity "
                             f"mu <= 0; the heat problem needs mu_min > 0")
        if not config.train_mu:
            raise ValueError("empty training set")
        for mu in config.train_mu:
            if not (config.mu_min <= mu <= config.mu_max):
                raise ValueError(f"training mu={mu} outside "
                                 f"[{config.mu_min}, {config.mu_max}]")

    def solve_fine(self, disc, param):
        return integrators.heat_backward_euler(
            disc.forms, float(param), manufactured_f, disc.grid)

    def solve_coarse(self, disc, param):
        return integrators.heat_crank_nicolson(
            disc.forms, float(param), manufactured_f, disc.grid)

    def analytic_reference(self, config, key):
        """The closed form at mu = 1 on the unit square, the only domain on
        whose boundary it vanishes, otherwise None."""
        if float(key) == 1.0 and tuple(config.domain) == (0.0, 1.0, 0.0, 1.0):
            return AnalyticReference(manufactured_u, manufactured_grad)
        return None

    def label(self, key):
        return f"{key:g}"

    def tag(self, key):
        return "mu" + self.label(key)


class BrusselatorProblem:
    """Two-species reaction-diffusion system with equal diffusivities alpha
    and natural boundary conditions, keyed by (a, b, alpha); fixed point at
    (a, b/a)."""

    A_RANGE = (2.0, 4.0)
    B_RANGE = (1.0, 4.0)
    ALPHA_RANGE = (0.001, 0.05)
    bc, fields = "neumann_natural", 2
    form = "a triple (a, b, alpha) of numbers"
    axes = ("train_a", "train_b", "train_alpha")

    def key(self, param):
        a, b, alpha = param
        return (float(a), float(b), float(alpha))

    def stable(self, key):
        """Linear stability of the homogeneous fixed point."""
        return key[1] <= 1.0 + key[0] ** 2

    def in_range(self, key):
        a, b, alpha = key
        return (self.A_RANGE[0] <= a <= self.A_RANGE[1]
                and self.B_RANGE[0] <= b <= self.B_RANGE[1]
                and self.ALPHA_RANGE[0] <= alpha <= self.ALPHA_RANGE[1])

    def in_bounds(self, config, key):
        return self.in_range(key)

    def training_parameters(self, config):
        """The full grid of the training axes, a-major."""
        return [(float(a), float(b), float(al)) for a in config.train_a
                for b in config.train_b for al in config.train_alpha]

    def test_parameter(self, config):
        return self.key((config.test_a, config.test_b, config.test_alpha))

    def validate(self, config):
        if config.t0 != 0.0:
            raise ValueError("the reaction-diffusion study starts at t0=0")
        if not (config.train_a and config.train_b and config.train_alpha):
            raise ValueError("empty training grid")
        for p in self.training_parameters(config):
            if not self.in_range(p):
                raise ValueError(f"training parameter {p} out of range")
            if not self.stable(p):
                logger.warning("training parameter %s is linearly unstable",
                               p)

    def initial_state(self, mesh):
        """Stacked nodal initial data (2 + y/4, 1 + 4x/5)."""
        x, y = mesh.nodes.T
        return np.concatenate([2.0 + 0.25 * y, 1.0 + 0.8 * x])

    def solve_fine(self, disc, param):
        return integrators.brusselator_trajectory(
            disc.forms, tuple(param), self.initial_state(disc.mesh),
            disc.grid, integrators.brusselator_step_newton)

    def solve_coarse(self, disc, param):
        return integrators.brusselator_trajectory(
            disc.forms, tuple(param), self.initial_state(disc.mesh),
            disc.grid, integrators.brusselator_step_rk2)

    def analytic_reference(self, config, key):
        return None

    def label(self, key):
        return "(" + ", ".join(f"{v:g}" for v in key) + ")"

    def tag(self, key):
        a, b, alpha = key
        return f"a{a:g}_b{b:g}_alpha{alpha:g}"


PROBLEMS = {"heat": HeatProblem(), "brusselator": BrusselatorProblem()}


def problem_of(config):
    """The problem object of a study: the one reader of ``config.problem``."""
    if config.problem not in PROBLEMS:
        raise ValueError(f"unknown problem {config.problem!r}")
    return PROBLEMS[config.problem]
