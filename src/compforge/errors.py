"""Exception types shared across the package.

Each type carries the process exit code the CLI returns for it:
configuration problems exit with 2, data and stage problems with 3.
"""

from __future__ import annotations


class CompforgeError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 3


class ConfigError(CompforgeError):
    """Invalid parameters, flags, or run configuration."""

    exit_code = 2


class DataError(CompforgeError):
    """Malformed input data.

    Carries the offending path/line when known so error messages point at
    the record that broke.
    """

    def __init__(self, message: str, *, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f" [{path}" + (f":{line}" if line is not None else "") + "]"
        super().__init__(message + where)


def require_int(name: str, value, least: int | None = None, optional: bool = False) -> None:
    """The rule for an integer parameter: ConfigError unless `value` is an int
    other than a bool (or None, if `optional`) and, if `least` is given, at
    least `least`. The message names the parameter: "`name` must be an
    integer[ or null], got ..." or "`name` must be at least `least`, got ..."."""
    if optional and value is None:
        return
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{name} must be an integer{' or null' if optional else ''}, "
                          f"got {value!r}")
    if least is not None and value < least:
        raise ConfigError(f"{name} must be at least {least}, got {value}")


class StageError(CompforgeError):
    """A pipeline stage aborted; names the stage and keeps the cause."""

    def __init__(self, stage: str, message: str):
        self.stage = stage
        super().__init__(f"stage '{stage}': {message}")
