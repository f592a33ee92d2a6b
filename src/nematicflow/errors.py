"""Exception types shared across the solver."""


class NematicFlowError(Exception):
    """Base class for all solver-specific errors."""


class DegenerateDirectorError(NematicFlowError):
    """Director magnitude fell below the resolution-loss threshold somewhere."""


class NumericalOverflowError(NematicFlowError):
    """Non-finite values appeared during time stepping (suspected blow-up
    or loss of resolution)."""


class ParameterRangeError(NematicFlowError, ValueError):
    """A model or run parameter is outside its allowed range; carries the
    parameter's name, the allowed range and the offending value."""

    def __init__(self, name, expected, value):
        super().__init__(f"{name} must be {expected}, got {value!r}")
        self.name = name
        self.expected = expected
        self.value = value


def check_range(name, value, ok, expected) -> None:
    """Raise ParameterRangeError for `name` unless `ok`."""
    if not ok:
        raise ParameterRangeError(name, expected, value)


class UnderResolvedError(ParameterRangeError):
    """Requested scenario content is not resolved by the grid."""


class EnvelopeUndefinedError(NematicFlowError, ValueError):
    """Exponential envelope fit is undefined: the accumulated monitor is
    identically zero while the monitored norms grew."""


class ConfigError(NematicFlowError, ValueError):
    """Base class for configuration problems (exit code 2 at the CLI)."""


class ConfigParseError(ConfigError):
    """Malformed config text; carries the offending line number."""

    def __init__(self, message, lineno=None):
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)
        self.lineno = lineno


class ConfigRangeError(ConfigError):
    """A config value is outside its allowed range; carries the key name."""

    def __init__(self, key, message):
        super().__init__(f"{key}: {message}")
        self.key = key


class SnapshotFormatError(NematicFlowError, ValueError):
    """Snapshot file is not a valid field snapshot (bad magic, version,
    or truncated payload)."""
