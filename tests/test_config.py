"""Tests for the key = value configuration format."""

import inspect
import math
from dataclasses import fields
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nematicflow.config import (_REQUIRED, SimulationConfig, load_config,
                                parse_pairs)
from nematicflow.runner import run
from nematicflow.scenarios import _BUILDERS, ScenarioSpec
from nematicflow.errors import (ConfigError, ConfigParseError,
                                ConfigRangeError, ParameterRangeError)

MINIMAL = """
dim = 2
res = 64
scenario = taylor_green
t_max = 1.0
"""


class TestParsePairs:
    def test_comments_and_blanks(self):
        text = "# full-line comment\n\ndim = 2  # trailing comment\nres=32\n"
        assert parse_pairs(text) == {"dim": 2, "res": 32}

    def test_hash_inside_a_value_is_kept(self):
        # a comment starts only at a line start or after whitespace
        assert parse_pairs("output_dir = runs/#3\n") == \
            {"output_dir": "runs/#3"}
        assert parse_pairs("output_dir = runs/#3 # run 3\n#dim = 3\n") == \
            {"output_dir": "runs/#3"}

    @pytest.mark.parametrize("line", ["output_dir = #3", "output_dir =",
                                      "scenario = \t# none"])
    def test_empty_value_rejected(self, line):
        with pytest.raises(ConfigParseError) as err:
            parse_pairs(f"dim = 2\n{line}\n")
        assert "empty value" in str(err.value)
        assert "line 2" in str(err.value)

    def test_empty_override_rejected(self):
        with pytest.raises(ConfigParseError):
            load_config(MINIMAL, ["output_dir="])

    def test_override_is_parsed_as_a_line_without_comments(self):
        # an override is one `key=value` string: a ` #` in it is kept
        config = load_config(MINIMAL, ["output_dir=runs/ #3"])
        assert config.output_dir == "runs/ #3"
        with pytest.raises(ConfigParseError) as err:
            load_config(MINIMAL, ["dim 3"])
        assert err.value.lineno is None
        assert "line" not in str(err.value)

    def test_typed_values(self):
        values = parse_pairs(
            "dt = 1e-3\nintegrator = IF-RK2\noversample_linf = true\n"
            "scenario.seed = 9\n")
        assert values == {"dt": 1e-3, "integrator": "IF-RK2",
                          "oversample_linf": True, "scenario.seed": 9}

    def test_unknown_key(self):
        with pytest.raises(ConfigParseError) as err:
            parse_pairs("dim = 2\nviscosity = 1\n")
        assert "viscosity" in str(err.value)
        assert "line 2" in str(err.value)

    def test_duplicate_key(self):
        with pytest.raises(ConfigParseError) as err:
            parse_pairs("dim = 2\ndim = 3\n")
        assert "duplicate" in str(err.value)

    def test_missing_equals(self):
        with pytest.raises(ConfigParseError):
            parse_pairs("dim 2\n")

    def test_bad_value_type(self):
        with pytest.raises(ConfigParseError):
            parse_pairs("res = sixty-four\n")
        with pytest.raises(ConfigParseError):
            parse_pairs("oversample_linf = maybe\n")


class TestLoadConfig:
    def test_minimal_with_defaults(self):
        config = load_config(MINIMAL)
        assert config.dim == 2
        assert config.res == 64
        assert config.scenario.name == "taylor_green"
        assert config.t_max == 1.0
        assert config.length == 2 * math.pi
        assert config.nu == 1.0
        assert config.dt is None
        assert config.cfl_factor == 0.5
        assert config.integrator == "IF-RK4"
        assert config.monitor_max == 1e18
        assert config.record_every == 10
        assert config.snapshot_every == 0
        assert config.output_dir == "."
        assert config.oversample_linf is False

    def test_missing_required_key(self):
        with pytest.raises(ConfigRangeError) as err:
            load_config("dim = 2\nres = 64\nscenario = taylor_green\n")
        assert "t_max" in str(err.value)

    @pytest.mark.parametrize("override,key", [
        ("dim=4", "dim"),
        ("res=48", "res"),
        ("res=4", "res"),
        ("nu=0", "nu"),
        ("t_max=-1", "t_max"),
        ("dt=0", "dt"),
        ("cfl_factor=1.5", "cfl_factor"),
        ("integrator=AB2", "integrator"),
        ("monitor_max=0", "monitor_max"),
        ("record_every=0", "record_every"),
        ("snapshot_every=-1", "snapshot_every"),
        ("scenario=unknown_one", "scenario"),
    ])
    def test_range_violation_names_key(self, override, key):
        with pytest.raises(ConfigRangeError) as err:
            load_config(MINIMAL, overrides=[override])
        assert key in str(err.value)

    def test_scenario_parameters(self):
        config = load_config(
            "dim = 2\nres = 32\nscenario = winding_director\n"
            "scenario.k = 2\nt_max = 1\n")
        assert config.scenario.parameters == {"k": 2}

    @pytest.mark.parametrize("scenario,override,key", [
        ("winding_director", "scenario.k=0", "scenario.k"),
        ("winding_director", "scenario.k=22", "scenario.k"),  # res/3 at 64
        ("random_smooth", "scenario.slope=2", "scenario.slope"),
        ("random_smooth", "scenario.seed=-1", "scenario.seed"),
        ("random_smooth", "scenario.amplitude=nan", "scenario.amplitude"),
    ])
    def test_scenario_parameter_checked_at_load(self, scenario, override, key):
        with pytest.raises(ConfigRangeError) as err:
            load_config(MINIMAL, overrides=[f"scenario={scenario}", override])
        assert err.value.key == key

    def test_foreign_scenario_parameter_rejected_at_load(self):
        with pytest.raises(ConfigRangeError, match="scenario.k"):
            load_config(MINIMAL, overrides=["scenario.k=2"])

    def test_overrides_win_over_file(self):
        config = load_config(MINIMAL, overrides=["res=32", "nu=0.1"])
        assert config.res == 32
        assert config.nu == 0.1

    def test_malformed_override(self):
        with pytest.raises(ConfigParseError):
            load_config(MINIMAL, overrides=["res"])
        with pytest.raises(ConfigParseError):
            load_config(MINIMAL, overrides=["resolution=32"])

    def test_errors_share_base_class(self):
        with pytest.raises(ConfigError):
            load_config("bogus line\n")
        with pytest.raises(ConfigError):
            load_config(MINIMAL, overrides=["dim=7"])


class TestBuilders:
    def test_grid_and_params(self):
        config = load_config(MINIMAL, overrides=["nu=0.25", "length=3.14"])
        grid = config.grid()
        assert (grid.dim, grid.res, grid.length) == (2, 64, 3.14)
        assert config.params().nu == 0.25

    def test_policy_prefers_fixed_dt(self):
        config = load_config(MINIMAL, overrides=["dt=0.01", "cfl_factor=0.9"])
        policy = config.policy()
        assert policy.dt == 0.01
        assert policy.cfl_factor == 0.9

    def test_policy_cfl_when_no_dt(self):
        policy = load_config(MINIMAL, overrides=["cfl_factor=0.25"]).policy()
        assert policy.dt is None
        assert policy.cfl_factor == 0.25
        assert policy.t_max == 1.0

    def test_frozen(self):
        config = load_config(MINIMAL)
        with pytest.raises(AttributeError):
            config.res = 128
        assert isinstance(config, SimulationConfig)


class TestLibraryTypes:
    # the config parser hands SimulationConfig ints, floats, bools and
    # non-empty strings; a library caller may not, and a float count, a
    # bool count (bool subclasses int, so True would count as 1), a truthy
    # string, a bool or str real (True would pass as 1.0, and `<` refuses a
    # str with a bare TypeError) or an empty or non-path output_dir is
    # refused
    @pytest.mark.parametrize("key, value", [
        ("record_every", 1.5), ("snapshot_every", 0.5),
        ("oversample_linf", "no"), ("record_every", True),
        ("snapshot_every", True), ("snapshot_every", False),
        ("length", True), ("length", "2"), ("nu", True), ("nu", "1"),
        ("t_max", True), ("dt", True), ("dt", "0.1"), ("cfl_factor", True),
        ("monitor_max", True), ("monitor_max", "1e3"),
        ("output_dir", ""), ("output_dir", 3), ("output_dir", None)])
    def test_wrong_type_names_the_field(self, key, value):
        values = {"dim": 2, "res": 16, "scenario": ScenarioSpec(
            "taylor_green"), "t_max": 1.0}
        with pytest.raises(ParameterRangeError) as err:
            SimulationConfig(**{**values, key: value})
        assert err.value.name == key

    def test_numpy_integers_build(self):
        config = SimulationConfig(
            dim=2, res=16, scenario=ScenarioSpec("taylor_green"), t_max=1.0,
            record_every=np.int64(3), snapshot_every=np.int32(2))
        assert (config.record_every, config.snapshot_every) == (3, 2)

    def test_bool_scenario_parameter_names_its_key(self):
        with pytest.raises(ParameterRangeError) as err:
            SimulationConfig(dim=2, res=16, scenario=ScenarioSpec(
                "winding_director", {"k": True}), t_max=1.0)
        assert err.value.name == "scenario.k"

    def test_numpy_reals_build(self):
        config = SimulationConfig(
            dim=2, res=16, scenario=ScenarioSpec("taylor_green"),
            t_max=np.float32(1.0), length=np.int64(3), nu=np.float64(0.5),
            monitor_max=np.int32(10))
        assert (config.t_max, config.length, config.nu) == (1.0, 3, 0.5)

    def test_path_output_dir_runs_and_an_empty_variable_is_refused(
            self, tmp_path, monkeypatch):
        monkeypatch.delenv("SIM_OUTPUT_DIR", raising=False)
        config = SimulationConfig(
            dim=2, res=8, scenario=ScenarioSpec("taylor_green"),
            t_max=0.01, dt=0.005, output_dir=tmp_path / "out")
        run(config)
        assert (tmp_path / "out" / "timeseries.csv").is_file()
        # the run's own empty check sees only the environment variable
        monkeypatch.setenv("SIM_OUTPUT_DIR", "")
        with pytest.raises(ConfigRangeError, match="SIM_OUTPUT_DIR") as err:
            run(config)
        assert err.value.key == "output_dir"


class TestTablesInStep:
    """The key table, the required keys and the scenario registry are
    derived from SimulationConfig and the builders; these checks fail if
    one of them drifts from its source."""

    def test_every_field_loads_with_its_type(self):
        hints = get_type_hints(SimulationConfig)
        full = load_config(MINIMAL, overrides=["dt=0.01"])  # no None left
        for field in fields(SimulationConfig):
            value = getattr(full, field.name)
            raw = value.name if field.name == "scenario" else value
            config = load_config(MINIMAL, overrides=[f"{field.name}={raw}"])
            assert getattr(config, field.name) == value, field.name
            assert isinstance(getattr(config, field.name),
                              hints[field.name]), field.name

    def test_required_keys_are_the_fields_without_a_default(self):
        parameters = inspect.signature(SimulationConfig).parameters.values()
        required = {p.name for p in parameters if p.default is p.empty}
        assert set(_REQUIRED) == required
        for key in required:
            text = "".join(line + "\n" for line in MINIMAL.splitlines()
                           if not line.startswith(f"{key} "))
            with pytest.raises(ConfigRangeError) as err:
                load_config(text)
            assert err.value.key == key

    @pytest.mark.parametrize("name", sorted(_BUILDERS))
    def test_registered_parameters_are_the_builders_keywords(self, name):
        builder, taken = _BUILDERS[name]
        signature = inspect.signature(builder).parameters
        assert set(taken) == set(signature) - {"grid"}
        for param in taken:
            default = signature[param].default
            config = load_config(MINIMAL, overrides=[
                f"scenario={name}", f"scenario.{param}={default!r}"])
            assert config.scenario == ScenarioSpec(name, {param: default})
            assert type(config.scenario.parameters[param]) is type(default)


def _positive_floats(**kwargs):
    return st.floats(allow_nan=False, allow_infinity=False,
                     exclude_min=True, **kwargs)


@st.composite
def _valid_values(draw):
    """A valid config as a key -> value dict, scenario parameters under
    their dotted keys."""
    dim = draw(st.sampled_from([2, 3]))
    res = draw(st.sampled_from([8, 16, 32, 64, 128]))
    values = {"dim": dim, "res": res,
              "t_max": draw(_positive_floats(min_value=0.0)),
              "scenario": draw(st.sampled_from(["taylor_green",
                                                "winding_director",
                                                "random_smooth"]))}
    optional = {
        # the volume, cell volume and |k|^2 of every grid drawn here are
        # normal floats (`Grid`)
        "length": st.floats(1e-90, 1e90),
        "nu": _positive_floats(min_value=0.0),
        "dt": _positive_floats(min_value=0.0),
        "cfl_factor": _positive_floats(min_value=0.0, max_value=1.0),
        "integrator": st.sampled_from(["IF-RK2", "IF-RK4"]),
        "monitor_max": _positive_floats(min_value=0.0),
        "record_every": st.integers(1, 10**6),
        "snapshot_every": st.integers(0, 10**6),
        # a `#` after the `= ` would start a comment
        "output_dir": st.text(st.characters(
            whitelist_categories=("L", "N"), whitelist_characters="/._-#"),
            min_size=1, max_size=20).filter(lambda v: v[0] != "#"),
        "oversample_linf": st.booleans(),
    }
    scenario = {
        "taylor_green": {
            "scenario.amplitude": _positive_floats(min_value=0.0)},
        # 0 < |k| < res/3
        "winding_director": {"scenario.k": st.integers(
            -((res - 1) // 3), (res - 1) // 3).filter(bool)},
        "random_smooth": {
            "scenario.seed": st.integers(0, 2**32),
            "scenario.slope": st.floats(dim / 2 + 1, 50.0, exclude_min=True),
            "scenario.amplitude": _positive_floats(min_value=0.0)},
    }[values["scenario"]]
    for key, strategy in {**optional, **scenario}.items():
        if draw(st.booleans()):
            values[key] = draw(strategy)
    return values


class TestRoundTrip:
    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(values=_valid_values())
    def test_written_values_load_back(self, values):
        # every value written as `key = repr(value)` (strings as they
        # are: the format has no quoting) loads back exactly
        text = "".join(
            f"{key} = {value if isinstance(value, str) else repr(value)}\n"
            for key, value in values.items())
        config = load_config(text)
        params = {key.split(".", 1)[1]: value for key, value in values.items()
                  if key.startswith("scenario.")}
        assert config.scenario == ScenarioSpec(values["scenario"], params)
        for key, value in values.items():
            if key != "scenario" and not key.startswith("scenario."):
                assert getattr(config, key) == value, key
                assert type(getattr(config, key)) is type(value), key
