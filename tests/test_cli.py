"""Tests for the `simulate` command-line interface."""

import pytest

from nematicflow.cli import main


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "dim = 2\nres = 32\nscenario = winding_director\nscenario.k = 1\n"
        f"t_max = 0.2\ndt = 0.05\noutput_dir = {tmp_path}\n")
    return path


def test_run_success(config_file, tmp_path, capsys):
    assert main(["run", "--config", str(config_file)]) == 0
    out = capsys.readouterr().out
    assert "halt_reason = t_max_reached" in out
    assert "monitor_accum" in out
    assert "gronwall_c" in out
    assert (tmp_path / "timeseries.csv").exists()


def test_run_with_overrides(config_file, capsys):
    code = main(["run", "--config", str(config_file),
                 "--set", "t_max=0.1", "--set", "scenario.k=2"])
    assert code == 0
    assert "final_time = 0.1" in capsys.readouterr().out


def test_missing_config_file(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "absent.cfg")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_invalid_config_value(config_file, capsys):
    assert main(["run", "--config", str(config_file), "--set", "dim=7"]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("override,key", [
    ("nu=inf", "nu"),
    ("length=inf", "length"),
    ("t_max=inf", "t_max"),
    ("dt=nan", "dt"),
    ("scenario.amplitude=inf", "scenario.amplitude"),
    ("scenario.amplitude=-1", "scenario.amplitude"),
])
def test_non_finite_or_negative_value_is_config_error(tmp_path, capsys,
                                                      override, key):
    # rejected before the run starts: never reported as a blow-up (exit 1)
    path = tmp_path / "tg.cfg"
    path.write_text("dim = 2\nres = 16\nscenario = taylor_green\n"
                    f"t_max = 0.01\ndt = 0.005\noutput_dir = {tmp_path}\n")
    assert main(["run", "--config", str(path), "--set", override]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert key in err
    assert not (tmp_path / "timeseries.csv").exists()


def test_foreign_scenario_parameter_is_config_error(tmp_path, capsys):
    # accepted at load, rejected when the run builds the scenario: still a
    # config error (exit 2), never a suspected blow-up (exit 1)
    path = tmp_path / "tg.cfg"
    path.write_text("dim = 2\nres = 16\nscenario = taylor_green\n"
                    f"t_max = 0.01\ndt = 0.005\noutput_dir = {tmp_path}\n")
    assert main(["run", "--config", str(path), "--set", "scenario.k=2"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "scenario.k" in err
    assert not (tmp_path / "timeseries.csv").exists()


@pytest.mark.parametrize("source", ["config", "env"])
@pytest.mark.parametrize("target", ["file", "under_file"])
def test_unusable_output_dir_is_config_error(tmp_path, capsys, monkeypatch,
                                             source, target):
    # an output_dir that cannot be created is bad input (exit 2), never a
    # suspected blow-up (exit 1)
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n")
    out_dir = blocker if target == "file" else blocker / "sub"
    path = tmp_path / "tg.cfg"
    path.write_text("dim = 2\nres = 16\nscenario = taylor_green\n"
                    "t_max = 0.01\ndt = 0.005\n")
    args = ["run", "--config", str(path)]
    if source == "env":
        monkeypatch.setenv("SIM_OUTPUT_DIR", str(out_dir))
    else:
        monkeypatch.delenv("SIM_OUTPUT_DIR", raising=False)
        args += ["--set", f"output_dir={out_dir}"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "output_dir" in err
    assert "Traceback" not in err
    assert blocker.read_text() == "not a directory\n"


@pytest.mark.parametrize("name", ["timeseries.csv", "snapshot_00000001.bin"])
def test_unwritable_output_file_is_config_error(tmp_path, capsys, monkeypatch,
                                                name):
    # a directory where an output file goes: exit 2 without a traceback,
    # never the exit 1 of a suspected blow-up
    monkeypatch.delenv("SIM_OUTPUT_DIR", raising=False)
    (tmp_path / name).mkdir()
    path = tmp_path / "tg.cfg"
    path.write_text("dim = 2\nres = 16\nscenario = taylor_green\n"
                    "t_max = 0.01\ndt = 0.005\nsnapshot_every = 1\n"
                    f"output_dir = {tmp_path}\n")
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "output_dir" in err and name in err
    assert "Traceback" not in err


def test_malformed_config_text(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("dim: 2\n")
    assert main(["run", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_empty_value_is_config_error(tmp_path, capsys):
    # `output_dir = #3` is a comment after the `=`, not a directory name:
    # a config error, never a run that writes elsewhere
    path = tmp_path / "run.cfg"
    path.write_text("dim = 2\nres = 32\nscenario = winding_director\n"
                    "t_max = 0.2\noutput_dir = #3\n")
    assert main(["run", "--config", str(path)]) == 2
    assert "empty value for output_dir" in capsys.readouterr().err


def test_verify_spectral_suite(capsys):
    assert main(["verify", "--suite", "spectral"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out
    assert "[FAIL]" not in out
    assert "checks passed" in out


def test_verify_rejects_unknown_suite():
    with pytest.raises(SystemExit):
        main(["verify", "--suite", "nonexistent"])


def test_missing_subcommand():
    with pytest.raises(SystemExit):
        main([])
