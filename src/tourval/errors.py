"""Exception hierarchy shared across the package.

The classes map onto the CLI exit codes: input/schema problems exit 2,
configuration problems exit 3, numeric failures exit 4; an OSError exits 5.
"""

import sys
from collections.abc import Iterable
from numbers import Real


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


def _is_number(value) -> bool:
    # Python reads true as 1, and keeps a JSON integer past the float range exact
    return (isinstance(value, Real) and not isinstance(value, bool)
            and not (isinstance(value, int) and abs(value) > sys.float_info.max))


def require_number(value, name: str) -> None:
    """The rule of every numeric setting: a real number, numpy's included,
    but no ``bool`` and no integer past the float range."""
    if not _is_number(value):
        raise ConfigError(f"{name} must be a number within the float range, got {value!r}")


def require_numbers(values, name: str) -> tuple:
    """The rule of every setting that is a list of numbers: ``values`` as a
    tuple, each item a number as ``require_number`` has it."""
    if not isinstance(values, Iterable) or not all(map(_is_number, numbers := tuple(values))):
        raise ConfigError(f"{name} must be a list of numbers within the float range, "
                          f"got {values!r}")
    return numbers
