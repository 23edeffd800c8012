"""Flat key = value study configuration: parsing, validation, and a canonical
text form that round-trips.  It holds every problem's fields; the study's
problem object (``models.problem_of``) reads its own and owns the
validation rules and the training and test parameters of its problem."""

from __future__ import annotations

import logging
from dataclasses import dataclass, fields

from nirb import models

logger = logging.getLogger(__name__)

# keys that pinned configs still carry but that select nothing, each with
# the one value it may still hold (None: any value, which is ignored).  A
# key at its value parses and is ignored with one warning per parse, any
# other value raises, so a changed default cannot silently change a pinned
# study; ``to_text`` omits them
RETIRED_KEYS = {
    "greedy_tol": None, "h1_reorthonormalize": None, "rb_algorithm": None,
    "pod_tol": None, "delta_mode": "relative", "cg_tol": 1e-10,
    "newton_tol": 1e-10, "fine_ny": 0, "coarse_ny": 0,
    "study_coupling": "2h", "strict_bounds": True,
}


def _parse_bool(s):
    v = s.strip().lower()
    if v in ("true", "1", "yes", "on"):
        return True
    if v in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse(text, like):
    """``text`` parsed as a value of the type of ``like``; a tuple's
    elements parse as its first element does (ints for study_levels)."""
    if isinstance(like, bool):
        return _parse_bool(text)
    if isinstance(like, tuple):
        parts = text.split(",") if text.strip() else []
        return tuple(_parse(v, like[0]) for v in parts)
    return type(like)(text)


def _parses_to(text, value):
    try:
        return _parse(text, value) == value
    except ValueError:
        return False


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
    training sets, both discretizations, basis and rectification knobs, and
    output location.

    The defaults describe the heat study on the unit square over t in [1, 2]."""

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

    # discretization: a mesh has *_nx cells in each direction
    fine_nx: int = 32
    coarse_nx: int = 16
    fine_steps: int = 32
    coarse_steps: int = 16

    # reduced basis: the mode count of the one H1 POD of every training
    # run's own H1 POD rows (reduced_basis.hierarchical_pod)
    n_max: int = 3

    # rectification: the Tikhonov parameter of each time index's fit is
    # delta_value times the trace of its normal matrix A^T A, ||A||_F^2
    delta_value: float = 1e-10

    # studies
    study_levels: tuple = (8, 16, 32)

    output_dir: str = "out"

    def validate(self):
        problem = models.problem_of(self)
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
        if self.delta_value < 0:
            raise ValueError("delta_value must be nonnegative")
        # runs are keyed by parameter, so a repeated value would train once
        # but be held out twice by leave-one-out
        for name in problem.axes:
            values = list(getattr(self, name))
            for v in values:
                if values.count(v) > 1:
                    raise ValueError(f"repeated value {v} in {name} {values}")
        problem.validate(self)
        return self

    def training_parameters(self):
        return models.problem_of(self).training_parameters(self)

    def test_parameter(self):
        return models.problem_of(self).test_parameter(self)

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
        known = {f.name for f in fields(cls)}
        defaults = cls()
        retired = [key for key in values if key in RETIRED_KEYS]
        for key in retired:
            fixed = RETIRED_KEYS[key]
            if fixed is not None and not _parses_to(values[key], fixed):
                raise ValueError(f"{key} is retired and fixed at "
                                 f"{_fmt(fixed)}")
        if retired:
            logger.warning("ignoring retired configuration keys: %s",
                           ", ".join(retired))
        kwargs = {}
        for key, val in values.items():
            if key in RETIRED_KEYS:
                continue
            if key not in known:
                raise ValueError(f"unknown configuration key {key!r}")
            kwargs[key] = _parse(val, getattr(defaults, key))
        return cls(**kwargs).validate()


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return StudyConfig.from_text(fh.read())
