"""Simulation loop orchestration, time-series CSV and binary snapshots.

Halt reasons: t_max_reached, monitor_exceeded, overflow or
degenerate_director.  Solver failures become halt reasons, never crashes;
the time series is always flushed completely before the report is
returned, so a blow-up is never silently swallowed.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import diagnostics
from .config import SimulationConfig
from .diagnostics import DiagnosticsRecord
from .dynamics import _pass, _speed, step, suggest_dt
from .errors import (ConfigRangeError, DegenerateDirectorError,
                     EnvelopeUndefinedError, NumericalOverflowError,
                     ParameterRangeError, SnapshotFormatError)
from .scenarios import ScenarioSpec, build_scenario
from .spectral import Field, Grid
from .state import FluidState

__all__ = ["RunReport", "run", "write_timeseries", "read_timeseries",
           "write_snapshot", "read_snapshot", "FAILURE_HALTS",
           "HALT_TMAX", "HALT_MONITOR", "HALT_OVERFLOW", "HALT_DEGENERATE"]

HALT_TMAX = "t_max_reached"
HALT_MONITOR = "monitor_exceeded"
HALT_OVERFLOW = "overflow"
HALT_DEGENERATE = "degenerate_director"

# a step's failure -> the halt it ends the run with (exit 1 at the CLI)
FAILURE_HALTS = {NumericalOverflowError: HALT_OVERFLOW,
                 DegenerateDirectorError: HALT_DEGENERATE}

CSV_HEADER = ",".join(DiagnosticsRecord.field_names())

# a fixed dt whose first step moves more cells than this is refused
_MAX_FIRST_STEP_CELLS = 1000

SNAPSHOT_MAGIC = b"ELCF"
SNAPSHOT_VERSION = 1
# magic, version, dim, res, length, t
SNAPSHOT_HEADER = struct.Struct("<4sBBIdd")


@dataclass(frozen=True)
class RunReport:
    """Summary of a completed (or halted) run."""

    halt_reason: str
    final_time: float
    final_record: DiagnosticsRecord
    gronwall_c: float | None
    energy_residual: float
    history: tuple


def run(config: SimulationConfig) -> RunReport:
    """Build the scenario, advance to t_max or an early halt, record
    diagnostics and write outputs."""
    out_dir = os.environ.get("SIM_OUTPUT_DIR", config.output_dir)
    if not out_dir:  # Path("") would be the working directory
        raise ConfigRangeError("output_dir", "SIM_OUTPUT_DIR is set but empty")
    out_dir = Path(out_dir)

    grid = config.grid()
    params = config.params()
    policy = config.policy()
    try:
        state = build_scenario(grid, config.scenario)
    except (DegenerateDirectorError, ParameterRangeError) as exc:
        raise _bad_scenario(config.scenario, exc) from exc

    # Each state is transformed once, by its first consumer among
    # suggest_dt, blowup_integrand and measure; the next step's first stage
    # reuses that pass.
    oversample = config.oversample_linf
    dt = suggest_dt(state, policy)
    integrand = diagnostics.blowup_integrand(state, oversample=oversample)
    memo = _pass(state)  # of the calls above; non-finite where u or d is
    speeds = f"max|u| = {memo.u_max:.3g}, max|grad d| = {memo.grad_d_max:.3g}"
    if not np.isfinite(memo.u_max + memo.grad_d_max):
        raise _bad_scenario(config.scenario, speeds)
    if policy.t_max + dt == policy.t_max:  # t would never reach t_max
        raise ConfigRangeError("dt", f"a step of {dt:.3g} does not advance "
                               f"t_max = {policy.t_max:.6g} ({speeds})")
    # an adaptive step moves at most cfl_factor cells
    cells = dt * _speed(state) / grid.dx
    if cells > _MAX_FIRST_STEP_CELLS:
        raise ConfigRangeError("dt", f"a first step of {dt:.3g} moves "
                               f"{cells:.3g} cells, more than "
                               f"{_MAX_FIRST_STEP_CELLS} ({speeds})")
    # created only once the start is known to be usable
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigRangeError(
            "output_dir", f"cannot create directory {out_dir}: {exc}") from exc

    accum = 0.0
    history = [diagnostics.measure(state, accum, oversample=oversample)]
    halt = HALT_TMAX
    step_index = 0

    while state.t < policy.t_max - 1e-14 * policy.t_max:
        try:
            state = step(state, params, dt, integrator=policy.integrator)
        except tuple(FAILURE_HALTS) as exc:
            halt = FAILURE_HALTS[type(exc)]
            break
        step_index += 1
        taken, dt = dt, suggest_dt(state, policy)
        prev_integrand = integrand
        integrand = diagnostics.blowup_integrand(state, oversample=oversample)
        accum = diagnostics.accumulate_monitor(accum, prev_integrand,
                                               integrand, taken)

        if step_index % config.record_every == 0:
            history.append(diagnostics.measure(state, accum,
                                               oversample=oversample))
        if config.snapshot_every and step_index % config.snapshot_every == 0:
            _write_output(write_snapshot, state,
                          out_dir / f"snapshot_{step_index:08d}.bin")
        if accum > config.monitor_max:
            halt = HALT_MONITOR
            break

    if history[-1].t < state.t:
        # the final state is always recorded, whatever the halt reason
        history.append(diagnostics.measure(state, accum,
                                           oversample=oversample))

    _write_output(write_timeseries, history, out_dir / "timeseries.csv")

    try:
        gronwall_c = diagnostics.gronwall_envelope(history)
    except EnvelopeUndefinedError:
        gronwall_c = None
    residual = diagnostics.energy_residual(history)

    return RunReport(
        halt_reason=halt,
        final_time=state.t,
        final_record=history[-1],
        gronwall_c=gronwall_c,
        energy_residual=residual,
        history=tuple(history),
    )


def _bad_scenario(spec: ScenarioSpec, problem) -> ConfigRangeError:
    """Bad scenario values: exit 2, never the exit 1 of a suspected blow-up."""
    return ConfigRangeError("scenario", f"{spec} does not build a usable "
                            f"initial state: {problem}")


def _write_output(writer, data, path: Path) -> None:
    """`writer(data, path)`; a name in output_dir that cannot be written
    (a directory, say) is bad input, never a halt of the run."""
    try:
        writer(data, path)
    except OSError as exc:
        raise ConfigRangeError(
            "output_dir", f"cannot write {path}: {exc}") from exc


def write_timeseries(history, path) -> None:
    """Write diagnostics records as CSV with full-precision decimal floats."""
    lines = [CSV_HEADER]
    for rec in history:
        lines.append(",".join(repr(float(v)) for v in rec.as_tuple()))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_timeseries(path) -> list:
    """Inverse of write_timeseries.  Raises ValueError naming the path on a
    foreign header, and the path and line on a row whose field count is not
    the header's or whose field is not a number."""
    text = Path(path).read_text(encoding="utf-8")
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), 1) if ln]
    if not lines or lines[0][1] != CSV_HEADER:
        raise ValueError(f"unexpected CSV header in {path}")
    records = []
    for number, line in lines[1:]:
        row = line.split(",")
        try:
            if len(row) != len(DiagnosticsRecord.field_names()):
                raise ValueError(f"{len(row)} fields, the header has "
                                 f"{CSV_HEADER.count(',') + 1}")
            records.append(DiagnosticsRecord(*map(float, row)))
        except ValueError as exc:
            raise ValueError(f"{path}, line {number}: {exc}") from exc
    return records


def write_snapshot(s: FluidState, path) -> None:
    """Bit-exact binary field snapshot.

    Layout: magic `ELCF`, version byte, then little-endian dim (u8),
    res (u32), length (f64), t (f64), followed by the u components and the
    3 d components as res^dim f64 values each, row-major.
    """
    grid = s.grid
    header = SNAPSHOT_HEADER.pack(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, grid.dim,
                                  grid.res, grid.length, s.t)
    payload = np.ascontiguousarray(s.u.phys, dtype="<f8").tobytes() + \
        np.ascontiguousarray(s.d.phys, dtype="<f8").tobytes()
    Path(path).write_bytes(header + payload)


def read_snapshot(path) -> FluidState:
    """Read a snapshot written by write_snapshot; exact inverse."""
    blob = Path(path).read_bytes()
    if len(blob) < SNAPSHOT_HEADER.size or blob[:4] != SNAPSHOT_MAGIC:
        raise SnapshotFormatError(f"{path}: not a field snapshot")
    _, version, dim, res, length, t = SNAPSHOT_HEADER.unpack_from(blob)
    if version != SNAPSHOT_VERSION:
        raise SnapshotFormatError(f"{path}: unsupported version {version}")
    try:
        grid = Grid(int(dim), int(res), float(length))
    except ValueError as exc:
        raise SnapshotFormatError(f"{path}: {exc}") from exc
    npoints = res**dim
    expected = SNAPSHOT_HEADER.size + (dim + 3) * npoints * 8
    if len(blob) != expected:
        raise SnapshotFormatError(
            f"{path}: expected {expected} bytes, got {len(blob)}"
        )
    data = np.frombuffer(blob, dtype="<f8", offset=SNAPSHOT_HEADER.size)
    if not (np.isfinite(t) and np.isfinite(data).all()):
        raise SnapshotFormatError(f"{path}: non-finite time or field values")
    u = data[: dim * npoints].reshape((dim,) + grid.shape).astype(np.float64)
    d = data[dim * npoints:].reshape((3,) + grid.shape).astype(np.float64)
    return FluidState(grid, Field.from_phys(grid, u),
                      Field.from_phys(grid, d), t=float(t))
