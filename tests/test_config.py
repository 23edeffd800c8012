import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nirb.config import RETIRED_KEYS, StudyConfig

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                   allow_infinity=False)
positive = st.integers(min_value=1, max_value=512)
# a heat mesh needs an interior node
cells = st.integers(min_value=2, max_value=512)
text = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789_/.-",
               min_size=1, max_size=20)


@st.composite
def heat_configs(draw):
    mu_min = draw(st.floats(min_value=1e-3, max_value=10.0))
    mu_max = draw(st.floats(min_value=mu_min, max_value=100.0))
    train = draw(st.lists(st.floats(min_value=mu_min, max_value=mu_max),
                          min_size=1, max_size=6, unique=True))
    x0, y0 = draw(finite), draw(finite)
    t0 = draw(st.floats(min_value=0.0, max_value=10.0, exclude_min=True))
    return StudyConfig(
        problem="heat",
        domain=(x0, x0 + draw(st.floats(min_value=1e-3, max_value=10.0)),
                y0, y0 + draw(st.floats(min_value=1e-3, max_value=10.0))),
        t0=t0, T=t0 + draw(st.floats(min_value=1e-3, max_value=10.0)),
        mu_min=mu_min, mu_max=mu_max, train_mu=tuple(train),
        test_mu=draw(finite),
        train_a=tuple(draw(st.lists(finite, max_size=3))),
        fine_nx=draw(cells), coarse_nx=draw(cells),
        fine_steps=draw(positive),
        coarse_steps=draw(st.integers(min_value=2, max_value=512)),
        n_max=draw(positive),
        delta_value=draw(st.floats(min_value=0.0, max_value=1.0)),
        study_levels=tuple(draw(st.lists(positive, max_size=4))),
        output_dir=draw(text))


@st.composite
def brusselator_configs(draw):
    return StudyConfig(
        problem="brusselator", t0=0.0,
        T=draw(st.floats(min_value=1e-3, max_value=10.0)),
        train_a=tuple(draw(st.lists(st.floats(2.0, 4.0), min_size=1,
                                    max_size=3, unique=True))),
        train_b=tuple(draw(st.lists(st.floats(1.0, 4.0), min_size=1,
                                    max_size=3, unique=True))),
        train_alpha=tuple(draw(st.lists(st.floats(0.001, 0.05), min_size=1,
                                        max_size=3, unique=True))),
        test_a=draw(finite), test_b=draw(finite), test_alpha=draw(finite))


@settings(max_examples=150, deadline=None)
@given(st.one_of(heat_configs(), brusselator_configs()))
def test_text_round_trip(config):
    config.validate()
    assert StudyConfig.from_text(config.to_text()) == config


def test_defaults_round_trip():
    config = StudyConfig()
    assert StudyConfig.from_text(config.to_text()) == config


def test_tuple_elements_parse_as_the_default_elements():
    config = StudyConfig.from_text("study_levels = 4,8\ntrain_mu = 1,2\n")
    assert config.study_levels == (4, 8)
    assert all(type(v) is int for v in config.study_levels)
    assert config.train_mu == (1.0, 2.0)
    assert all(type(v) is float for v in config.train_mu)
    with pytest.raises(ValueError):
        StudyConfig.from_text("study_levels = 4.5\n")


@pytest.mark.parametrize("line", ["seed = 0", "presolve = implicit_euler",
                                  "no_such_key = 1"])
def test_unknown_keys_rejected(line):
    with pytest.raises(ValueError, match="unknown configuration key"):
        StudyConfig.from_text(line + "\n")


@pytest.mark.parametrize("edit", [
    {"problem": "wave"}, {"T": 0.5}, {"coarse_steps": 1}, {"n_max": 0},
    {"domain": (1.0, 0.0, 0.0, 1.0)}, {"fine_steps": 0},
    {"delta_value": -1.0}, {"train_mu": ()}, {"train_mu": (12.0,)},
    {"problem": "brusselator"}, {"t0": 0.0}, {"t0": -0.5},
    {"mu_min": 0.0, "train_mu": (0.0, 1.0)},
    {"mu_min": -1.0, "train_mu": (-1.0, 1.0)},
])
def test_invalid_values_rejected(edit):
    with pytest.raises(ValueError):
        dataclasses.replace(StudyConfig(), **edit).validate()


RD = {"problem": "brusselator", "t0": 0.0}


@pytest.mark.parametrize("t0", [0.0, -0.5])
def test_heat_window_from_rest_needs_positive_t0(t0):
    # at t0 = 0 every run's first knot is zero and the rectification fit is
    # rank deficient there; at t0 < 0 the lead-in from rest runs backwards
    with pytest.raises(ValueError, match=r"heat runs start from rest at "
                                         r"t = 0, so the window needs t0 > 0"):
        dataclasses.replace(StudyConfig(), t0=t0, T=2.0).validate()


@pytest.mark.parametrize("edit, message", [
    ({"train_mu": (0.5, 3.0, 3.0, 9.5)}, "repeated value 3.0 in train_mu"),
    ({**RD, "train_a": (2.0, 3.0, 2.0)}, "repeated value 2.0 in train_a"),
    ({**RD, "train_b": (3.0, 3.0)}, "repeated value 3.0 in train_b"),
    ({**RD, "train_alpha": (0.01, 0.001, 0.01)},
     "repeated value 0.01 in train_alpha"),
])
def test_repeated_training_value_rejected(edit, message):
    # runs are keyed by parameter: 0.5,3.0,3.0,9.5 would train on three runs
    # while leave-one-out held 3.0 out twice
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(StudyConfig(), **edit).validate()


@pytest.mark.parametrize("edit, key", [
    ({"coarse_nx": 1}, "coarse_nx = 1"), ({"fine_nx": 1}, "fine_nx = 1"),
])
def test_heat_mesh_without_interior_node_rejected(edit, key):
    with pytest.raises(ValueError, match=f"{key} leaves the heat problem's "
                                         f"\\w+ mesh without an interior node"):
        dataclasses.replace(StudyConfig(), **edit).validate()


def test_neumann_mesh_of_one_cell_accepted():
    dataclasses.replace(StudyConfig(), problem="brusselator", t0=0.0,
                        coarse_nx=1).validate()


@pytest.mark.parametrize("key", ["cg_tol", "newton_tol"])
@pytest.mark.parametrize("value", [0.0, -1e-10, 1.0, 2.0])
def test_tolerances_outside_unit_interval_rejected(key, value):
    # both tolerances are fixed at 1e-10, so any other value is rejected
    with pytest.raises(ValueError, match=f"{key} is retired and fixed at "
                                         f"1e-10"):
        StudyConfig.from_text(f"{key} = {value}\n")


@pytest.mark.parametrize("line", [
    "delta_mode = relative", "cg_tol = 1e-10", "newton_tol = 1.0e-10",
    "fine_ny = 0", "coarse_ny = 0", "study_coupling = 2h",
    "strict_bounds = true"])
def test_retired_key_at_its_value_sets_nothing(line, caplog):
    key = line.split(" = ")[0]
    assert RETIRED_KEYS[key] is not None
    with caplog.at_level("WARNING", logger="nirb.config"):
        config = StudyConfig.from_text("fine_nx = 12\n" + line + "\n")
    assert config == StudyConfig.from_text("fine_nx = 12\n")
    assert len(caplog.records) == 1
    assert key in caplog.records[0].getMessage()
    assert f"\n{key} = " not in config.to_text()


@pytest.mark.parametrize("line, fixed", [
    ("delta_mode = absolute", "relative"), ("cg_tol = 1e-8", "1e-10"),
    ("newton_tol = 1e-12", "1e-10"), ("fine_ny = 20", "0"),
    ("coarse_ny = 3", "0"), ("coarse_ny = x", "0"),
    ("study_coupling = sqrt", "2h"), ("strict_bounds = false", "true")])
def test_retired_key_at_another_value_rejected(line, fixed):
    # a pinned config that still asks for another value would otherwise
    # change its study without a word
    key = line.split(" = ")[0]
    with pytest.raises(ValueError, match=f"^{key} is retired and fixed at "
                                         f"{fixed}$"):
        StudyConfig.from_text(line + "\n")
