import pytest

from nirb import cli, pipeline


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
