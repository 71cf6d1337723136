"""The error contract: every deliberate error carries its exit code and stderr prefix."""


class QuantshiftError(Exception):
    """A deliberate error of this package; subclasses set ``exit_code`` and ``prefix``."""

    exit_code: int
    prefix: str


class ConfigError(QuantshiftError, ValueError):
    """An experiment configuration field is missing, malformed, or invalid."""

    exit_code = 1
    prefix = "configuration error"


class NumericalFailure(QuantshiftError):
    """A valid configuration whose computation cannot deliver its result."""

    exit_code = 2
    prefix = "numerical failure"
