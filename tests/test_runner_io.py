"""Tests for the simulation loop, CSV time series and binary snapshots."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nematicflow.config import SimulationConfig, load_config
from nematicflow.errors import (ConfigRangeError, EnvelopeUndefinedError,
                               SnapshotFormatError)
from nematicflow.runner import (CSV_HEADER, HALT_DEGENERATE, HALT_MONITOR,
                                HALT_OVERFLOW, HALT_TMAX, SNAPSHOT_MAGIC,
                                read_snapshot, read_timeseries, run,
                                write_snapshot, write_timeseries)
from nematicflow.scenarios import random_smooth, taylor_green, winding_director
from nematicflow.spectral import Grid


def config_for(tmp_path, scenario, t_max=0.5, **kwargs):
    text = (f"dim = 2\nres = 32\nscenario = {scenario}\nt_max = {t_max}\n"
            f"output_dir = {tmp_path}\n")
    overrides = [f"{k}={v}" for k, v in kwargs.items()]
    return load_config(text, overrides=overrides)


class TestRun:
    def test_winding_run_reaches_t_max(self, tmp_path):
        config = config_for(tmp_path, "winding_director", t_max=2.0,
                            record_every=1, **{"scenario.k": 1})
        report = run(config)
        assert report.halt_reason == HALT_TMAX
        assert abs(report.final_time - 2.0) < 1e-12
        # stationary: B(t) = k^2 t
        assert abs(report.final_record.monitor_accum - 2.0) < 1e-8
        assert report.gronwall_c == 0.0
        assert (tmp_path / "timeseries.csv").exists()

    def test_decaying_run_has_zero_monitor(self, tmp_path):
        # constant director: the 2-D integrand is identically zero, so even
        # a tiny threshold never trips
        config = config_for(tmp_path, "taylor_green", t_max=0.2,
                            monitor_max=1e-6, dt=0.01)
        report = run(config)
        assert report.halt_reason == HALT_TMAX
        assert report.final_record.monitor_accum == 0.0

    def test_monitor_halt(self, tmp_path):
        config = config_for(tmp_path, "winding_director", t_max=5.0,
                            monitor_max=0.5, dt=0.05)
        report = run(config)
        assert report.halt_reason == HALT_MONITOR
        assert report.final_time < 1.0
        assert report.final_record.monitor_accum > 0.5
        # the crossing step itself is always recorded
        assert report.history[-1].t == report.final_time

    def test_history_is_recorded_and_final_state_included(self, tmp_path):
        config = config_for(tmp_path, "random_smooth", t_max=0.1, dt=0.01,
                            record_every=3)
        report = run(config)
        assert report.halt_reason == HALT_TMAX
        assert report.history[0].t == 0.0
        assert abs(report.history[-1].t - 0.1) < 1e-12
        times = [r.t for r in report.history]
        assert times == sorted(times)
        assert math.isfinite(report.energy_residual)

    def test_snapshots_written(self, tmp_path):
        config = config_for(tmp_path, "taylor_green", t_max=0.05, dt=0.01,
                            snapshot_every=2)
        run(config)
        files = sorted(tmp_path.glob("snapshot_*.bin"))
        assert [f.name for f in files] == ["snapshot_00000002.bin",
                                           "snapshot_00000004.bin"]
        snap = read_snapshot(files[0])
        assert abs(snap.t - 0.02) < 1e-12

    @pytest.mark.parametrize("name", ["timeseries.csv",
                                      "snapshot_00000002.bin"])
    def test_unwritable_output_file_is_config_error(self, tmp_path, name):
        # an output name taken by a directory is bad input, never a halt
        (tmp_path / name).mkdir()
        config = config_for(tmp_path, "taylor_green", t_max=0.05, dt=0.01,
                            snapshot_every=2)
        with pytest.raises(ConfigRangeError) as info:
            run(config)
        assert info.value.key == "output_dir"
        assert name in str(info.value)
        assert (tmp_path / name).is_dir()

    def test_output_dir_env_override(self, tmp_path, monkeypatch):
        other = tmp_path / "redirected"
        monkeypatch.setenv("SIM_OUTPUT_DIR", str(other))
        run(config_for(tmp_path / "ignored", "taylor_green", t_max=0.02,
                       dt=0.01))
        assert (other / "timeseries.csv").exists()
        assert not (tmp_path / "ignored" / "timeseries.csv").exists()

    def test_identical_configs_give_identical_output(self, tmp_path):
        a = run(config_for(tmp_path / "a", "random_smooth", t_max=0.1,
                           dt=0.01, record_every=1, **{"scenario.seed": 5}))
        b = run(config_for(tmp_path / "b", "random_smooth", t_max=0.1,
                           dt=0.01, record_every=1, **{"scenario.seed": 5}))
        assert a.history == b.history
        assert ((tmp_path / "a" / "timeseries.csv").read_text()
                == (tmp_path / "b" / "timeseries.csv").read_text())

    @pytest.mark.parametrize("scenario, overrides", [
        ("taylor_green", {"dt": 1e-300}),
        # the CFL step of a huge velocity, about 4e-151
        ("random_smooth", {"scenario.amplitude": 1e150})])
    def test_step_that_cannot_advance_t_is_refused(self, tmp_path, scenario,
                                                   overrides):
        # a step below half an ulp of t_max leaves t where it is: the run
        # would never end, so it is refused before output_dir is created
        out_dir = tmp_path / "new"
        with pytest.raises(ConfigRangeError) as err:
            run(config_for(out_dir, scenario, t_max=0.01, res=8,
                           **overrides))
        assert err.value.key == "dt"
        assert "max|u|" in str(err.value)
        assert not out_dir.exists()

    def test_fixed_step_that_moves_too_far_is_refused(self, tmp_path):
        # dt max(max|u|, max|grad d|, 1) / dx above 1000 cells: refused
        # before output_dir is created, naming the number of cells
        out_dir = tmp_path / "new"
        with pytest.raises(ConfigRangeError) as err:
            run(config_for(out_dir, "random_smooth", t_max=0.01, res=16,
                           dt=1e-3, **{"scenario.amplitude": 1e140}))
        assert err.value.key == "dt"
        assert "moves 2.55e+137 cells" in str(err.value)
        assert "max|u| = 1e+140" in str(err.value)
        assert not out_dir.exists()

    @pytest.mark.parametrize("amplitude, refused", [(390, False),
                                                    (400, True)])
    def test_first_step_cell_bound(self, tmp_path, amplitude, refused):
        # taylor_green's max|u| is its amplitude, so a step of 0.5 at 32^2
        # moves 2.55 amplitude cells: 993 starts the run (which may then
        # halt), 1019 is refused
        config = config_for(tmp_path, "taylor_green", t_max=0.5, dt=0.5,
                            **{"scenario.amplitude": amplitude})
        if refused:
            with pytest.raises(ConfigRangeError, match="moves 1.02e[+]03"):
                run(config)
        else:
            assert run(config).halt_reason in (HALT_TMAX, HALT_OVERFLOW,
                                               HALT_DEGENERATE)

    @pytest.mark.parametrize("exc,reason", [
        ("NumericalOverflowError", HALT_OVERFLOW),
        ("DegenerateDirectorError", HALT_DEGENERATE),
    ])
    def test_solver_failures_become_halt_reasons(self, tmp_path, monkeypatch,
                                                 exc, reason):
        import nematicflow.errors as errors
        import nematicflow.runner as runner_mod

        real_step = runner_mod.step
        calls = {"n": 0}

        def failing_step(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] >= 3:
                raise getattr(errors, exc)("injected failure")
            return real_step(*args, **kwargs)

        monkeypatch.setattr(runner_mod, "step", failing_step)
        config = config_for(tmp_path, "random_smooth", t_max=1.0, dt=0.01,
                            record_every=1)
        report = run(config)
        assert report.halt_reason == reason
        assert abs(report.final_time - 0.02) < 1e-12
        # the time series is flushed even on failure
        assert (tmp_path / "timeseries.csv").exists()
        assert len(read_timeseries(tmp_path / "timeseries.csv")) == 3


class TestTimeseries:
    def test_header_exact(self):
        assert CSV_HEADER == (
            "t,u_l2,grad_d_l2,omega_l2,omega_linf,grad_d_linf,hess_d_l2,"
            "energy,dissipation,monitor_integrand,monitor_accum,"
            "sphere_norm_err,sphere_identity_err")

    def test_round_trip_is_exact(self, tmp_path):
        config = config_for(tmp_path, "random_smooth", t_max=0.05, dt=0.01,
                            record_every=1)
        report = run(config)
        loaded = read_timeseries(tmp_path / "timeseries.csv")
        assert len(loaded) == len(report.history)
        for orig, back in zip(report.history, loaded):
            # repr round-trips doubles exactly
            assert back.as_tuple() == orig.as_tuple()

    def test_write_then_read(self, tmp_path):
        config = config_for(tmp_path, "taylor_green", t_max=0.02, dt=0.01)
        report = run(config)
        path = tmp_path / "copy.csv"
        write_timeseries(report.history, path)
        assert path.read_text().splitlines()[0] == CSV_HEADER
        assert read_timeseries(path) == list(report.history)

    def test_read_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,value\n0,1\n")
        with pytest.raises(ValueError):
            read_timeseries(path)

    @pytest.mark.parametrize("fields", [12, 14])
    def test_read_rejects_a_row_of_the_wrong_width(self, tmp_path, fields):
        # a truncated last line (12 fields) and a row with one field too
        # many: a ValueError naming the file and the line, as for a foreign
        # header, not the TypeError of the record's constructor
        path = tmp_path / "ragged.csv"
        row = ",".join(["0.5"] * 13)
        path.write_text(f"{CSV_HEADER}\n{row}\n\n"
                        + ",".join(["0.25"] * fields) + "\n")
        with pytest.raises(ValueError,
                           match=rf"ragged\.csv, line 4: {fields} fields"):
            read_timeseries(path)

    def test_read_rejects_a_field_that_is_not_a_number(self, tmp_path):
        # a ValueError naming the file and the line, not float()'s bare
        # "could not convert string to float"
        path = tmp_path / "garbled.csv"
        row = ",".join(["0.5"] * 13)
        path.write_text(f"{CSV_HEADER}\n{row}\n{row[:-3]}x\n")
        with pytest.raises(ValueError,
                           match=r"garbled\.csv, line 3: .*'x'"):
            read_timeseries(path)


class TestSnapshots:
    def test_round_trip_bit_identity(self, tmp_path):
        s = random_smooth(Grid(2, 32), seed=3)
        path = tmp_path / "state.bin"
        write_snapshot(s, path)
        back = read_snapshot(path)
        assert back.grid == s.grid
        assert back.t == s.t
        assert np.array_equal(back.u.phys, s.u.phys)
        assert np.array_equal(back.d.phys, s.d.phys)

    def test_round_trip_3d(self, tmp_path):
        s = taylor_green(Grid(3, 16))
        path = tmp_path / "state3.bin"
        write_snapshot(s, path)
        back = read_snapshot(path)
        assert back.grid.dim == 3
        assert np.array_equal(back.u.phys, s.u.phys)

    def test_size_formula(self, tmp_path):
        for grid in (Grid(2, 16), Grid(3, 8)):
            s = winding_director(grid, k=1)
            path = tmp_path / f"size{grid.dim}.bin"
            write_snapshot(s, path)
            header = 4 + 1 + 1 + 4 + 8 + 8
            expected = header + (grid.dim + 3) * grid.res**grid.dim * 8
            assert path.stat().st_size == expected

    def test_header_layout(self, tmp_path):
        s = winding_director(Grid(2, 16), k=1)
        path = tmp_path / "hdr.bin"
        write_snapshot(s, path)
        blob = path.read_bytes()
        assert blob[:4] == SNAPSHOT_MAGIC
        version, dim, res, length, t = struct.unpack("<BBIdd", blob[4:26])
        assert (version, dim, res) == (1, 2, 16)
        assert length == s.grid.length
        assert t == 0.0

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"JUNK" + bytes(100))
        with pytest.raises(SnapshotFormatError):
            read_snapshot(path)

    def test_truncated_payload_rejected(self, tmp_path):
        s = winding_director(Grid(2, 16), k=1)
        path = tmp_path / "trunc.bin"
        write_snapshot(s, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(SnapshotFormatError):
            read_snapshot(path)

    def test_unsupported_version_rejected(self, tmp_path):
        s = winding_director(Grid(2, 16), k=1)
        path = tmp_path / "ver.bin"
        write_snapshot(s, path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotFormatError):
            read_snapshot(path)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("offset", [18, 26, -8])  # t, first, last value
    def test_non_finite_value_rejected(self, tmp_path, value, offset):
        s = winding_director(Grid(2, 16), k=1)
        path = tmp_path / "nonfinite.bin"
        write_snapshot(s, path)
        blob = bytearray(path.read_bytes())
        start = offset % len(blob)
        blob[start:start + 8] = struct.pack("<d", value)
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotFormatError, match="non-finite"):
            read_snapshot(path)

    @pytest.mark.parametrize("length", [1e300, 1e-300])
    def test_length_out_of_float_range_rejected(self, tmp_path, length):
        # the grid's volume or |k|^2 is not a normal float
        s = winding_director(Grid(2, 16), k=1)
        path = tmp_path / "length.bin"
        write_snapshot(s, path)
        blob = bytearray(path.read_bytes())
        blob[10:18] = struct.pack("<d", length)
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotFormatError, match="length"):
            read_snapshot(path)


@pytest.fixture(scope="module")
def valid_snapshot(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "valid.bin"
    write_snapshot(random_smooth(Grid(2, 8), seed=1), path)
    return path


_FUZZ_VALUES = 5 * 8 * 8  # u and d values of the 2-D res-8 snapshot


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["header", "values", "truncate"]), data=st.data())
def test_corrupted_snapshot_fails_cleanly_or_reads_valid(valid_snapshot, kind,
                                                         data):
    # corrupted header bytes, corrupted values (NaN and inf among them) or
    # a truncation: either SnapshotFormatError or a finite state on the grid
    # the header names, never another exception
    blob = bytearray(valid_snapshot.read_bytes())
    if kind == "header":
        for index, byte in data.draw(st.lists(st.tuples(
                st.integers(0, 25), st.integers(0, 255)), min_size=1,
                max_size=4)):
            blob[index] = byte
    elif kind == "values":
        for index, value in data.draw(st.lists(st.tuples(
                st.integers(0, _FUZZ_VALUES - 1), st.floats()), min_size=1,
                max_size=2)):
            blob[26 + 8 * index:34 + 8 * index] = struct.pack("<d", value)
    else:
        blob = blob[:data.draw(st.integers(0, len(blob) - 1))]
    path = valid_snapshot.with_name("fuzzed.bin")
    path.write_bytes(bytes(blob))
    try:
        s = read_snapshot(path)
    except SnapshotFormatError:
        return
    grid = s.grid
    assert math.isfinite(s.t)
    assert s.u.phys.shape == (grid.dim,) + grid.shape
    assert s.d.phys.shape == (3,) + grid.shape
    assert np.isfinite(s.u.phys).all() and np.isfinite(s.d.phys).all()


class TestReportFields:
    def test_envelope_none_is_possible_contractually(self, tmp_path,
                                                     monkeypatch):
        # normal runs produce a defined envelope; an undefined one is None
        # in the report, never an exception from run()
        import nematicflow.diagnostics as diagnostics

        def undefined(history):
            raise EnvelopeUndefinedError("injected")

        monkeypatch.setattr(diagnostics, "gronwall_envelope", undefined)
        config = config_for(tmp_path, "taylor_green", t_max=0.02, dt=0.01)
        report = run(config)
        assert report.gronwall_c is None
        assert report.halt_reason == HALT_TMAX

    def test_config_round_trip_through_builders(self, tmp_path):
        config = config_for(tmp_path, "winding_director", t_max=1.0,
                            dt=0.05, **{"scenario.k": 2})
        assert isinstance(config, SimulationConfig)
        assert config.policy().dt == 0.05
        assert config.scenario.parameters == {"k": 2}
