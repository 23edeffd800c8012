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


def test_out_of_bounds_parameter_warns_once_per_command(small_heat_text,
                                                        tmp_path, capsys,
                                                        caplog):
    # errors checks --mu up front and reuses its coarse run for both online
    # modes, so the lenient bounds warning appears once, as for online
    path = tmp_path / "lenient.cfg"
    path.write_text(small_heat_text + "strict_bounds = false\n"
                    f"output_dir = {tmp_path / 'out'}\n")
    assert run(capsys, "offline", str(path))[0] == 0
    for command in ("errors", "online"):
        caplog.clear()
        code, out = run(capsys, command, str(path), "--mu", "12")
        assert code == 0, out.err
        warnings = [r for r in caplog.records
                    if "outside the configured bounds" in r.getMessage()]
        assert len(warnings) == 1, command


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
    candidates = [lift_coarse(coarse_traj, fine.mesh, fine.grid)]
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
