"""Exception hierarchy shared across the package.

The classes map onto the CLI exit codes: input/schema problems exit 2,
configuration problems exit 3, numeric failures exit 4; an OSError exits 5.
"""


class TourvalError(Exception):
    """Base class for all errors raised by this package."""


class InputError(TourvalError):
    """Malformed or inconsistent input data (bad rows, unknown ids, ...)."""

    exit_code = 2


class OutOfRangeError(InputError):
    """A value lies outside the source range it was declared to be in."""


class ConfigError(TourvalError):
    """Invalid configuration: bad parameter values, weight-sum violations,
    unknown method tags, missing referenced files."""

    exit_code = 3


class NumericError(TourvalError):
    """A numeric procedure failed: it did not converge, or a sum overflowed
    the largest float."""

    exit_code = 4


def require_choice(value, choices: tuple[str, ...], name: str,
                   error: type[Exception] = ConfigError) -> None:
    """The rule of every setting that names one of a few ``choices``."""
    if value not in choices:
        raise error(f"{name} must be {' or '.join(map(repr, choices))}, got {value!r}")
