"""Tests for the `simulate` command-line interface."""

import pytest

from nematicflow import diagnostics, errors, runner, verify
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


def test_config_with_a_byte_order_mark(config_file, capsys):
    # as some editors save UTF-8: the mark is not part of the first key
    assert main(["run", "--config", str(config_file)]) == 0
    plain = capsys.readouterr().out
    config_file.write_bytes(b"\xef\xbb\xbf" + config_file.read_bytes())
    assert main(["run", "--config", str(config_file)]) == 0
    assert capsys.readouterr().out == plain


def test_missing_config_file(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "absent.cfg")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_invalid_config_value(config_file, capsys):
    assert main(["run", "--config", str(config_file), "--set", "dim=7"]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("override,key", [
    ("nu=inf", "nu"),
    ("length=inf", "length"),
    # a volume or |k|^2 outside the float range: an OverflowError or nan
    ("length=1e300", "length"),
    ("length=1e-300", "length"),
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


def test_grid_too_large_for_memory_is_config_error(config_file, capsys,
                                                  monkeypatch):
    # as numpy reports a failed allocation (dim 3, res 2048 asks for 192
    # GiB); never allocated for real, which an overcommitting host answers
    # by killing the process instead of raising
    def build_scenario(grid, spec):
        raise MemoryError("Unable to allocate 192. GiB for an array")

    monkeypatch.setattr(runner, "build_scenario", build_scenario)
    assert main(["run", "--config", str(config_file)]) == 2
    assert "config error: Unable to allocate" in capsys.readouterr().err


def test_foreign_scenario_parameter_is_config_error(tmp_path, capsys):
    # rejected at load, with the other scenario parameters: a config error
    # (exit 2), never a suspected blow-up (exit 1)
    path = tmp_path / "tg.cfg"
    path.write_text("dim = 2\nres = 16\nscenario = taylor_green\n"
                    f"t_max = 0.01\ndt = 0.005\noutput_dir = {tmp_path}\n")
    assert main(["run", "--config", str(path), "--set", "scenario.k=2"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "scenario.k" in err
    assert not (tmp_path / "timeseries.csv").exists()


def test_foreign_scenario_parameter_creates_no_output_dir(tmp_path, capsys,
                                                         monkeypatch):
    monkeypatch.delenv("SIM_OUTPUT_DIR", raising=False)
    out_dir = tmp_path / "new"
    path = tmp_path / "tg.cfg"
    path.write_text("dim = 2\nres = 16\nscenario = taylor_green\n"
                    f"t_max = 0.01\ndt = 0.005\noutput_dir = {out_dir}\n")
    assert main(["run", "--config", str(path), "--set", "scenario.k=2"]) == 2
    assert "scenario.k" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("scenario, overrides", [
    # |u|^2 overflows: max|u| is inf and the CFL step 0
    ("taylor_green", ["scenario.amplitude=1e160"]),
    ("taylor_green", ["scenario.amplitude=1e160", "dt=0.01"]),
    # the director's renormalization overflows while building
    ("random_smooth", ["scenario.amplitude=1e160", "dt=0.01"]),
    # the spectrum underflows, so u is scaled by amplitude / 0
    ("random_smooth", ["scenario.slope=1000"]),
    ("random_smooth", ["scenario.slope=1000", "dt=0.01"]),
])
def test_scenario_values_without_a_finite_start_are_config_error(
        tmp_path, capsys, monkeypatch, scenario, overrides):
    # the values are valid one by one, but the state they build is not
    # finite: bad input (exit 2), never a suspected blow-up (exit 1), found
    # without a RuntimeWarning (tier-1 makes them errors) and before the
    # output directory is created
    monkeypatch.delenv("SIM_OUTPUT_DIR", raising=False)
    out_dir = tmp_path / "new"
    path = tmp_path / "bad.cfg"
    path.write_text(f"dim = 2\nres = 16\nscenario = {scenario}\n"
                    f"t_max = 0.1\noutput_dir = {out_dir}\n")
    args = ["run", "--config", str(path)]
    for item in overrides:
        args += ["--set", item]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "scenario" in err
    assert "Traceback" not in err
    assert not out_dir.exists()


@pytest.mark.parametrize("scenario, override", [
    ("taylor_green", "dt=1e-300"),
    # the CFL step of a huge velocity, about 4e-151
    ("random_smooth", "scenario.amplitude=1e150")])
def test_step_that_cannot_advance_t_is_config_error(tmp_path, capsys,
                                                    monkeypatch, scenario,
                                                    override):
    # such a run would never end; it exits 2 at once, before the output
    # directory is created
    monkeypatch.delenv("SIM_OUTPUT_DIR", raising=False)
    out_dir = tmp_path / "new"
    path = tmp_path / "tiny.cfg"
    path.write_text(f"dim = 2\nres = 8\nscenario = {scenario}\n"
                    f"t_max = 0.01\noutput_dir = {out_dir}\n")
    assert main(["run", "--config", str(path), "--set", override]) == 2
    assert "config error: dt: " in capsys.readouterr().err
    assert not out_dir.exists()


def test_fixed_step_that_moves_too_far_is_config_error(tmp_path, capsys,
                                                        monkeypatch):
    # a first step of about 2.5e137 cells would overflow at once; it exits
    # 2, without a RuntimeWarning and before the output directory is
    # created, never 1 as a suspected blow-up
    monkeypatch.delenv("SIM_OUTPUT_DIR", raising=False)
    out_dir = tmp_path / "new"
    path = tmp_path / "far.cfg"
    path.write_text("dim = 2\nres = 16\nscenario = random_smooth\n"
                    "scenario.amplitude = 1e140\ndt = 1e-3\nt_max = 0.01\n"
                    f"output_dir = {out_dir}\n")
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config error: dt: a first step of 0.001 moves 2.55e+137 cells" \
        in err
    assert "Traceback" not in err
    assert not out_dir.exists()


@pytest.mark.parametrize("exc, reason", [
    ("NumericalOverflowError", runner.HALT_OVERFLOW),
    ("DegenerateDirectorError", runner.HALT_DEGENERATE)])
def test_solver_failure_exits_1(config_file, capsys, monkeypatch, exc,
                                reason):
    def failing_step(*args, **kwargs):
        raise getattr(errors, exc)("injected failure")

    monkeypatch.delenv("SIM_OUTPUT_DIR", raising=False)
    monkeypatch.setattr(runner, "step", failing_step)
    assert main(["run", "--config", str(config_file)]) == 1
    assert f"halt_reason = {reason}\n" in capsys.readouterr().out


def test_undefined_envelope_is_printed_and_exits_0(config_file, capsys,
                                                   monkeypatch):
    def undefined(history):
        raise errors.EnvelopeUndefinedError("injected")

    monkeypatch.delenv("SIM_OUTPUT_DIR", raising=False)
    monkeypatch.setattr(diagnostics, "gronwall_envelope", undefined)
    assert main(["run", "--config", str(config_file)]) == 0
    assert "gronwall_c = undefined\n" in capsys.readouterr().out


def test_empty_output_dir_variable_is_config_error(tmp_path, capsys,
                                                   monkeypatch):
    # an empty SIM_OUTPUT_DIR is no directory, not the working directory
    monkeypatch.setenv("SIM_OUTPUT_DIR", "")
    monkeypatch.chdir(tmp_path)
    configured = tmp_path / "configured"
    path = tmp_path / "tg.cfg"
    path.write_text("dim = 2\nres = 16\nscenario = taylor_green\n"
                    f"t_max = 0.01\ndt = 0.005\noutput_dir = {configured}\n")
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "output_dir" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tg.cfg"]


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


def test_verify_suites_join_their_checks(monkeypatch, capsys):
    # canned component checks: each suite's order and hand-offs, and the
    # CLI's count and exit status, without running a simulation
    handed = {}
    reports, winding = {"taylor_green": object()}, object()

    for name, result in (
            ("check_navier_stokes_reduction", [("ns", True, "canned")]),
            ("check_harmonic_map_reduction", [("hm", True, "canned")]),
            ("check_temporal_convergence", [("tc", False, "canned")]),
            ("check_energy_identity", ([("ei", True, "canned")], reports)),
            ("check_monitor", ([("mo", True, "canned")], winding)),
            ("check_lemma_norms", [("ln", True, "canned")])):
        monkeypatch.setattr(verify, name, lambda result=result: result)
    for name, label in (("check_constraint", "cc"),
                        ("check_envelope", "en")):
        def check(got, name=name, label=label):
            handed[name] = got
            return [(label, True, "canned")]
        monkeypatch.setattr(verify, name, check)

    names = {suite: [name for name, _, _ in verify.SUITES[suite]()]
             for suite in ("dynamics", "energy", "monitor")}
    assert names == {"dynamics": ["ns", "hm", "tc"], "energy": ["ei", "cc"],
                     "monitor": ["mo", "ln", "en"]}
    assert handed == {"check_constraint": reports, "check_envelope": winding}

    capsys.readouterr()
    assert main(["verify", "--suite", "dynamics"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] tc: canned" in out
    assert out.endswith("2/3 checks passed\n")
    assert main(["verify", "--suite", "monitor"]) == 0
    assert capsys.readouterr().out.endswith("3/3 checks passed\n")


def test_verify_rejects_unknown_suite():
    with pytest.raises(SystemExit):
        main(["verify", "--suite", "nonexistent"])


def test_missing_subcommand():
    with pytest.raises(SystemExit):
        main([])
