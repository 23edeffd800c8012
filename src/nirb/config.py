"""Flat key = value study configuration: parsing, validation, and a canonical
text form that round-trips."""

from __future__ import annotations

import logging
from dataclasses import dataclass, fields

from nirb import models

logger = logging.getLogger(__name__)


def _parse_bool(s):
    v = s.strip().lower()
    if v in ("true", "1", "yes", "on"):
        return True
    if v in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_tuple(s, kind):
    s = s.strip()
    if not s:
        return ()
    return tuple(kind(v) for v in s.split(","))


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(_fmt(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass
class StudyConfig:
    """Everything one study needs: problem choice, parameter ranges and
    training sets, both discretizations, basis and rectification knobs,
    solver tolerances, and output location.

    The defaults describe the heat study on the unit square over t in [1, 2].
    Multi-axis training sets (the reaction-diffusion case) are given per axis
    and expanded as a full grid, a-major."""

    problem: str = "heat"
    domain: tuple = (0.0, 1.0, 0.0, 1.0)
    t0: float = 1.0
    T: float = 2.0

    # heat parameters
    mu_min: float = 0.5
    mu_max: float = 9.5
    train_mu: tuple = tuple(round(0.5 * i, 4) for i in range(1, 20) if i != 2)
    test_mu: float = 1.0

    # reaction-diffusion parameters
    train_a: tuple = (2.0, 2.5, 4.0)
    train_b: tuple = (1.0, 3.0, 4.0)
    train_alpha: tuple = (0.001, 0.005, 0.01, 0.05)
    test_a: float = 3.0
    test_b: float = 2.0
    test_alpha: float = 0.008

    # discretization (cells per direction; 0 falls back to the x count)
    fine_nx: int = 32
    fine_ny: int = 0
    coarse_nx: int = 16
    coarse_ny: int = 0
    fine_steps: int = 32
    coarse_steps: int = 16

    # reduced basis; "pod" pools every training snapshot into one
    # H1-weighted POD, which keeps stiffness-heavy transient content that
    # the L2-driven selection loops truncate away
    rb_algorithm: str = "pod_greedy"
    n_max: int = 3
    pod_tol: float = 1e-6
    greedy_tol: float = 1e-8
    h1_reorthonormalize: bool = True

    # rectification
    delta_mode: str = "relative"
    delta_value: float = 1e-10

    # solvers: cg_tol is the relative residual every heat solve must meet
    # (each step of a march, lead-in steps included, and the Ritz
    # projection).  No heat solve iterates: the name is kept because
    # configs set it.  newton_tol is the reaction-diffusion Newton residual
    cg_tol: float = 1e-10
    newton_tol: float = 1e-10

    # studies
    study_levels: tuple = (8, 16, 32)
    study_coupling: str = "2h"

    strict_bounds: bool = True
    output_dir: str = "out"

    def validate(self):
        if self.problem not in ("heat", "brusselator"):
            raise ValueError(f"unknown problem {self.problem!r}")
        if len(self.domain) != 4 or not (self.domain[1] > self.domain[0]
                                         and self.domain[3] > self.domain[2]):
            raise ValueError(f"bad domain {self.domain}")
        if not self.T > self.t0:
            raise ValueError(f"empty time window [{self.t0}, {self.T}]")
        for name in ("fine_nx", "coarse_nx", "fine_steps", "coarse_steps"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.coarse_steps < 2:
            raise ValueError("the coarse grid needs at least two steps for "
                             "quadratic time interpolation")
        if self.n_max < 1:
            raise ValueError("n_max must be positive")
        if self.rb_algorithm not in ("pod_greedy", "greedy", "pod"):
            raise ValueError(f"unknown rb_algorithm {self.rb_algorithm!r}")
        if self.delta_mode not in ("relative", "absolute"):
            raise ValueError(f"unknown delta_mode {self.delta_mode!r}")
        if self.delta_value < 0:
            raise ValueError("delta_value must be nonnegative")
        if self.study_coupling not in ("2h", "sqrt"):
            raise ValueError(f"unknown study_coupling {self.study_coupling!r}")
        for name in ("cg_tol", "newton_tol"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), "
                                 f"got {getattr(self, name)}")
        if self.problem == "heat":
            # zero Dirichlet data needs an interior node to solve for
            for which in ("fine", "coarse"):
                for key, count in zip(("nx", "ny"), self.mesh_counts(which)):
                    if count < 2:
                        raise ValueError(
                            f"{which}_{key} = {count} leaves the heat "
                            f"problem's {which} mesh without an interior "
                            f"node; it needs at least 2 cells per direction")
            if not self.train_mu:
                raise ValueError("empty training set")
            for mu in self.train_mu:
                if not (self.mu_min <= mu <= self.mu_max):
                    raise ValueError(f"training mu={mu} outside "
                                     f"[{self.mu_min}, {self.mu_max}]")
        else:
            if self.t0 != 0.0:
                raise ValueError("the reaction-diffusion study starts at t0=0")
            if not (self.train_a and self.train_b and self.train_alpha):
                raise ValueError("empty training grid")
            for p in self.training_parameters():
                prob = models.BrusselatorProblem(*p)
                if not prob.in_range():
                    raise ValueError(f"training parameter {p} out of range")
                if not prob.stable:
                    logger.warning("training parameter %s is linearly "
                                   "unstable", p)
        return self

    def training_parameters(self):
        if self.problem == "heat":
            return [float(mu) for mu in self.train_mu]
        return [(float(a), float(b), float(al))
                for a in self.train_a for b in self.train_b
                for al in self.train_alpha]

    def test_parameter(self):
        if self.problem == "heat":
            return float(self.test_mu)
        return (float(self.test_a), float(self.test_b), float(self.test_alpha))

    def parameter_in_bounds(self, param):
        if self.problem == "heat":
            return self.mu_min <= float(param) <= self.mu_max
        return models.BrusselatorProblem(*param).in_range()

    def mesh_counts(self, which):
        if which == "fine":
            return self.fine_nx, (self.fine_ny or self.fine_nx)
        return self.coarse_nx, (self.coarse_ny or self.coarse_nx)

    def to_text(self):
        lines = ["# study configuration"]
        for f in fields(self):
            lines.append(f"{f.name} = {_fmt(getattr(self, f.name))}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        values = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
        return cls._from_mapping(values)

    @classmethod
    def _from_mapping(cls, values):
        known = {f.name: f for f in fields(cls)}
        kwargs = {}
        defaults = cls()
        for key, val in values.items():
            if key not in known:
                raise ValueError(f"unknown configuration key {key!r}")
            current = getattr(defaults, key)
            if isinstance(current, bool):
                kwargs[key] = _parse_bool(val)
            elif isinstance(current, int):
                kwargs[key] = int(val)
            elif isinstance(current, float):
                kwargs[key] = float(val)
            elif isinstance(current, tuple):
                # elements parse as the default's do: ints for study_levels
                kwargs[key] = _parse_tuple(val, type(current[0]))
            else:
                kwargs[key] = val
        return cls(**kwargs).validate()


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return StudyConfig.from_text(fh.read())
