"""Simulation configuration: line-based `key = value` text format.

Rules: one `key = value` per line, `#` at the start of a line or after
whitespace starts a comment (so `runs/#3` is a value), blank lines are
ignored, and empty values, unknown and duplicate keys are rejected.
The keys are SimulationConfig's fields, each parsed as its field's type,
plus the scenario parameters of `scenarios`, under dotted keys
(scenario.k, scenario.amplitude, scenario.seed, scenario.slope).  The
fields without a default are required.  CLI overrides are applied after
the file parses, with the same validation.  The environment variable
SIM_OUTPUT_DIR overrides output_dir at run time.
"""

from __future__ import annotations

import math
import re
from dataclasses import MISSING, dataclass, fields
from typing import get_type_hints

from .dynamics import StepPolicy
from .errors import (ConfigParseError, ConfigRangeError, ParameterRangeError,
                     check_range)
from .scenarios import _PARAMETERS, ScenarioSpec, check_scenario
from .spectral import Grid
from .state import PhysicsParams

__all__ = ["SimulationConfig", "load_config", "parse_pairs"]

# a comment runs from a `#` at the start of a line or after whitespace
_COMMENT = re.compile(r"(^|\s)#.*")


@dataclass(frozen=True)
class SimulationConfig:
    """Fully validated run configuration."""

    dim: int
    res: int
    scenario: ScenarioSpec
    t_max: float
    length: float = 2.0 * math.pi
    nu: float = 1.0
    dt: float | None = None
    cfl_factor: float = 0.5
    integrator: str = "IF-RK4"
    monitor_max: float = 1e18
    record_every: int = 10
    snapshot_every: int = 0
    output_dir: str = "."
    oversample_linf: bool = False

    def __post_init__(self):
        """Range-check every value.  Grid, physics, step policy and scenario
        values are checked by their own types; a scenario parameter's
        error is renamed to its dotted config key."""
        grid = self.grid()
        self.params()
        self.policy()
        try:
            check_scenario(grid, self.scenario)
        except ParameterRangeError as exc:
            raise ParameterRangeError(f"scenario.{exc.name}", exc.expected,
                                      exc.value) from exc
        check_range("monitor_max", self.monitor_max, self.monitor_max > 0,
                    "positive")
        check_range("record_every", self.record_every, self.record_every >= 1,
                    ">= 1")
        check_range("snapshot_every", self.snapshot_every,
                    self.snapshot_every >= 0, ">= 0")

    def grid(self) -> Grid:
        return Grid(self.dim, self.res, self.length)

    def params(self) -> PhysicsParams:
        return PhysicsParams(nu=self.nu)

    def policy(self) -> StepPolicy:
        return StepPolicy(self.t_max, self.dt, self.cfl_factor, self.integrator)


# a key parses as its field's type (every annotation of the class is a
# field), except that a scenario is given by its name and dt (float | None)
# as a float; then the dotted scenario parameters
_KEY_TYPES = {**get_type_hints(SimulationConfig), "scenario": str, "dt": float,
              **{f"scenario.{name}": kind
                 for name, (kind, _) in _PARAMETERS.items()}}

_REQUIRED = [f.name for f in fields(SimulationConfig) if f.default is MISSING]


def _parse_value(key: str, raw: str, lineno=None):
    kind = _KEY_TYPES[key]
    raw = raw.strip()
    if not raw:
        raise ConfigParseError(f"empty value for {key}", lineno)
    try:
        if kind is bool:
            lowered = raw.lower()
            if lowered in ("true", "1", "yes", "on"):
                return True
            if lowered in ("false", "0", "no", "off"):
                return False
            raise ValueError(f"expected a boolean, got {raw!r}")
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigParseError(f"bad value for {key}: {exc}", lineno) from exc


def parse_pairs(text: str) -> dict:
    """Parse config text into a raw key -> value dict; rejects malformed
    lines, unknown keys and duplicates with the offending line number."""
    values = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = _COMMENT.sub("", raw_line).strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigParseError(f"expected `key = value`, got {line!r}", lineno)
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in _KEY_TYPES:
            raise ConfigParseError(f"unknown key {key!r}", lineno)
        if key in values:
            raise ConfigParseError(f"duplicate key {key!r}", lineno)
        values[key] = _parse_value(key, raw, lineno)
    return values


def from_values(values: dict) -> SimulationConfig:
    """Validate a raw key dict and build a SimulationConfig.  Every range is
    checked once, by the object that owns the value; a violation becomes a
    ConfigRangeError naming the config key."""
    for key in _REQUIRED:
        if key not in values:
            raise ConfigRangeError(key, "required key missing")
    # scenario parameters in the scenario table's order, not the file's
    params = {name: values[f"scenario.{name}"] for name in _PARAMETERS
              if f"scenario.{name}" in values}
    others = {key: value for key, value in values.items()
              if key.partition(".")[0] != "scenario"}
    try:
        return SimulationConfig(
            scenario=ScenarioSpec(values["scenario"], params), **others)
    except ParameterRangeError as exc:
        raise ConfigRangeError(
            exc.name, f"must be {exc.expected}, got {exc.value}") from exc


def load_config(text: str, overrides=()) -> SimulationConfig:
    """Parse config text, apply `key=value` override strings, validate."""
    values = parse_pairs(text)
    for item in overrides:
        if "=" not in item:
            raise ConfigParseError(f"override must be key=value, got {item!r}")
        key, _, raw = item.partition("=")
        key = key.strip()
        if key not in _KEY_TYPES:
            raise ConfigParseError(f"unknown key {key!r} in override")
        values[key] = _parse_value(key, raw)
    return from_values(values)
