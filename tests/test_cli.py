import re
from pathlib import Path

import numpy as np
import pytest

from nirb import cli, pipeline
from nirb.config import load_config
from nirb.rectification import lift_coarse


@pytest.fixture
def config_path(small_heat_text, tmp_path):
    path = tmp_path / "study.cfg"
    path.write_text(small_heat_text + f"output_dir = {tmp_path / 'out'}\n")
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr()


def slug_of(err):
    line = err.strip().splitlines()[-1]
    assert line.startswith("nirb: error [")
    return line[len("nirb: error ["):line.index("]")]


def test_offline_then_online(config_path, capsys, tmp_path):
    code, out = run(capsys, "offline", config_path)
    assert code == 0, out.err
    assert "offline complete" in out.out
    assert (tmp_path / "out" / "artifacts.nirb").exists()
    code, out = run(capsys, "online", config_path, "--mu", "4.5")
    assert code == 0, out.err
    assert "trajectory written to" in out.out
    assert out.err == ""


def test_offline_reports_the_kept_and_first_dropped_singular_value(
        config_path, capsys):
    code, out = run(capsys, "offline", config_path)
    assert code == 0, out.err
    basis = pipeline.load_artifacts(load_config(config_path)).basis
    n, spectrum = basis.N, basis.provenance["spectrum"]
    line = re.search(rf"spectrum: sigma_{n}/sigma_1 = (\S+), first dropped "
                     rf"sigma_{n + 1}/sigma_1 = (\S+)\n", out.out)
    assert line
    assert float(line[1]) == pytest.approx(spectrum[n - 1] / spectrum[0],
                                           rel=1e-3)
    assert float(line[2]) == pytest.approx(spectrum[n] / spectrum[0],
                                           rel=1e-3)
    assert cli._spectrum_line([2.0, 1.0], 2) \
        == "spectrum: sigma_2/sigma_1 = 5.000e-01, nothing dropped"


def test_unreadable_config(capsys, tmp_path):
    code, out = run(capsys, "offline", str(tmp_path / "absent.cfg"))
    assert code == 1
    assert slug_of(out.err) == "bad-config"


def test_unknown_key(capsys, tmp_path, small_heat_text):
    path = tmp_path / "bad.cfg"
    path.write_text(small_heat_text + "seed = 0\n")
    code, out = run(capsys, "offline", str(path))
    assert code == 1
    assert slug_of(out.err) == "bad-config"
    assert "seed" in out.err


def test_two_values_on_heat(config_path, capsys):
    assert run(capsys, "offline", config_path)[0] == 0
    code, out = run(capsys, "online", config_path, "--mu", "1,2")
    assert code == 1
    assert slug_of(out.err) == "bad-parameter"


def test_two_values_on_rd(capsys, tmp_path, small_rd_text):
    # the parameter's form is judged by the pipeline, not counted here
    path = tmp_path / "rd.cfg"
    path.write_text(small_rd_text + f"output_dir = {tmp_path / 'out'}\n")
    assert run(capsys, "offline", str(path))[0] == 0
    for command in ("online", "errors"):
        code, out = run(capsys, command, str(path), "--mu", "1,2")
        assert code == 1
        assert slug_of(out.err) == "bad-parameter"
        assert "is not a triple (a, b, alpha) of numbers" in out.err


def test_online_before_offline(config_path, capsys):
    code, out = run(capsys, "online", config_path)
    assert code == 1
    assert slug_of(out.err) == "missing-artifacts"


def test_errors_out_of_bounds_fails_before_the_fine_solve(config_path, capsys,
                                                          monkeypatch):
    assert run(capsys, "offline", config_path)[0] == 0
    calls = []
    monkeypatch.setattr(pipeline, "solve_fine", lambda *a: calls.append(a))
    code, out = run(capsys, "errors", config_path, "--mu", "12")
    assert code == 1
    assert slug_of(out.err) == "bad-parameter"
    assert "outside the configured bounds" in out.err
    assert calls == []


def test_study_values_come_from_the_artifacts(capsys, tmp_path,
                                             small_heat_text):
    # the file only locates the artifacts: after its domain, bounds and
    # test parameter are edited, online and errors still read the study the
    # artifacts were built for, which has no closed form on (0, 2) x (0, 0.5)
    path = tmp_path / "study.cfg"
    tail = f"output_dir = {tmp_path / 'out'}\n"
    path.write_text(small_heat_text + "domain = 0,2,0,0.5\n" + tail)
    assert run(capsys, "offline", str(path))[0] == 0
    path.write_text(small_heat_text + "mu_max = 20\ntest_mu = 4.5\n" + tail)
    code, out = run(capsys, "online", str(path), "--mu", "1")
    assert code == 0, out.err
    assert "relative errors vs closed form" not in out.out
    assert "no closed-form reference" in out.out
    code, out = run(capsys, "online", str(path))
    assert code == 0, out.err
    assert (tmp_path / "out" / "online_rectified_mu1.traj").exists()
    assert not (tmp_path / "out" / "online_rectified_mu4.5.traj").exists()
    code, out = run(capsys, "errors", str(path), "--mu", "12")
    assert code == 1
    assert slug_of(out.err) == "bad-parameter"
    assert "outside the configured bounds" in out.err


def test_retired_key_at_another_value(capsys, tmp_path, small_heat_text):
    path = tmp_path / "lenient.cfg"
    path.write_text(small_heat_text + "strict_bounds = false\n")
    code, out = run(capsys, "offline", str(path))
    assert code == 1
    assert slug_of(out.err) == "bad-config"
    assert "strict_bounds is retired and fixed at true" in out.err


def read_csv(path):
    return [line.split(",") for line in path.read_text().splitlines()]


def assert_cells_equal(cells, values):
    # cells are written with 17 significant digits, so floats read back exactly
    assert len(cells) == len(values)
    for cell, value in zip(cells, values):
        if isinstance(value, str):
            assert cell == value
        elif np.isnan(value):
            assert cell == "nan"
        else:
            assert float(cell) == value


def test_errors_writes_the_pipeline_curves(config_path, capsys, tmp_path):
    assert run(capsys, "offline", config_path)[0] == 0
    code, out = run(capsys, "errors", config_path, "--mu", "4.5")
    assert code == 0, out.err
    rows = read_csv(tmp_path / "out" / "errors_mu4.5.csv")
    assert rows[0] == ["t", "err_coarse_l2", "err_coarse_h10", "err_nirb_l2",
                       "err_nirb_h10", "err_rect_l2", "err_rect_h10"]

    config = load_config(config_path)
    artifacts = pipeline.load_artifacts(config)
    fine, coarse = artifacts.fine, artifacts.coarse
    reference = pipeline.solve_fine(config, fine, 4.5)
    coarse_traj = pipeline.solve_coarse(config, coarse, 4.5)
    candidates = [lift_coarse(coarse_traj, coarse.forms, fine,
                              artifacts.time_weights)]
    candidates += [pipeline.online(artifacts, 4.5, mode=mode,
                                   coarse_traj=coarse_traj).trajectory
                   for mode in ("plain", "rectified")]
    reports = [pipeline.evaluate_errors(c, reference, fine.forms)
               for c in candidates]
    times = fine.grid.times()
    assert len(rows) == len(times) + 1
    for k, t in enumerate(times):
        want = [t]
        for report in reports:
            want += [report.l2_curve[k], report.energy_curve[k]]
        assert_cells_equal(rows[k + 1], want)


def test_loo_writes_the_pipeline_table(config_path, capsys, tmp_path):
    code, out = run(capsys, "loo", config_path)
    assert code == 0, out.err
    assert re.search(r"stage seconds: coarse runs \d+\.\d{3}, fine runs "
                     r"\d+\.\d{3}, basis selections \d+\.\d{3}, fits "
                     r"\d+\.\d{3}, scoring \d+\.\d{3}\n", out.out)
    rows = read_csv(tmp_path / "out" / "loo.csv")
    assert rows[0] == ["parameter", "err_rectified", "err_projection",
                       "err_coarse"]
    report = pipeline.leave_one_out(load_config(config_path))
    want = report.csv_rows()
    assert len(rows) == len(want) == len(report.rows) + 2
    for cells, values in zip(rows[1:], want[1:]):
        assert_cells_equal(cells, values)


def test_study_writes_the_pipeline_ladder(config_path, capsys, tmp_path):
    path = tmp_path / "ladder.cfg"
    path.write_text(Path(config_path).read_text() + "study_levels = 4,8\n")
    code, out = run(capsys, "study", str(path))
    assert code == 0, out.err
    rows = read_csv(tmp_path / "out" / "study_2h.csv")
    methods = ("fine", "coarse", "nirb", "rect")
    assert rows[0] == (["level", "h", "H", "dtF", "dtG"]
                       + [f"err_{m}_h1" for m in methods]
                       + [f"err_{m}_l2" for m in methods])
    report = pipeline.convergence_study(load_config(str(path)), "2h")
    want = report.csv_rows()
    assert len(rows) == len(want) == 4
    assert [int(r[0]) for r in rows[1:3]] == [4, 8]
    for cells, values in zip(rows[1:], want[1:]):
        assert_cells_equal(cells, values)
