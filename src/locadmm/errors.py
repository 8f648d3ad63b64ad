"""Exception types raised across the package, and the checks on arguments
that raise them."""

import math
import numbers
import os

import numpy as np


class LocadmmError(Exception):
    """Base class for all package errors."""


class InvalidParameter(LocadmmError):
    """A numeric or structural argument is out of its admissible range."""


class ConnectivityFailure(LocadmmError):
    """Layout resampling exhausted its retry budget without a connected graph."""


class DisconnectedGraph(LocadmmError):
    """A solver was handed a graph that is not a single connected component."""


class MissingPosition(LocadmmError):
    """A node is missing from a position map that must cover it."""


class MissingNode(LocadmmError):
    """A per-node collection does not cover every node of the graph."""


class EmptyFreeSet(LocadmmError):
    """A metric over non-anchor nodes was requested but every node is an anchor."""


class ParseError(LocadmmError):
    """A network file violates the schema; the message names the offending field."""


class SchemaVersionMismatch(LocadmmError):
    """A network file declares a schema version this package does not read."""


class InvalidInitSpec(LocadmmError):
    """An initialization spec is malformed or incomplete."""


class InvalidInit(InvalidInitSpec):
    """Positional initialization is missing required per-node data."""


class MissingMessage(LocadmmError):
    """An expected neighbor payload is absent or mis-addressed."""


class NonFiniteValue(LocadmmError):
    """A state coordinate or recorded metric became NaN or infinite."""


class SingularSystem(LocadmmError):
    """A dense reference solve hit a singular KKT system."""


# The argument contract: every public entry point checks its scalar and
# object arguments here. NumPy scalars count as the Python type, a boolean is
# no number.


def is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_integer(name: str, value, least: int) -> int:
    """``value``, an integer of at least ``least``, as an ``int``."""
    if not is_integer(value):
        raise InvalidParameter(f"{name} must be an integer, got {value!r:.40}")
    if value < least:
        raise InvalidParameter(f"{name} must be >= {least}, got {value}")
    return int(value)


def check_real(name: str, value, error=InvalidParameter):
    """``value``, a real number with a float value; the caller bounds its range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{name} must be a number, got {value!r:.40}")
    try:
        float(value)
    except OverflowError:
        raise error(f"{name} is too large for a float") from None
    return value


def check_choice(name: str, value, choices: tuple, error=InvalidParameter):
    """The one of ``choices``, strings or integers, that ``value`` is; a value
    of another type, such as an array, is refused without a comparison."""
    for choice in choices:
        same_type = is_integer(value) if isinstance(choice, int) else isinstance(value, str)
        if same_type and value == choice:
            return choice
    spelled = ", ".join(map(repr, choices[:-1])) + f" or {choices[-1]!r}"
    raise error(f"{name} must be {spelled}, got {value!r:.40}")


def check_type(name: str, value, kind: type):
    """``value``, an instance of ``kind``: an object argument of another
    type, such as ``None``, is refused before any of its attributes is read."""
    if not isinstance(value, kind):
        raise InvalidParameter(f"{name} must be a {kind.__name__}, got {value!r:.40}")
    return value


def check_path(path):
    """``path``, a file path: a ``str``, ``bytes`` or ``os.PathLike``. Any
    other value is refused, an integer above all, which ``open()`` would
    take as a file descriptor to read and close."""
    if not isinstance(path, (str, bytes, os.PathLike)):
        raise InvalidParameter(f"path must be a str, bytes or os.PathLike, got {path!r:.40}")
    return path


def check_seed(seed) -> None:
    """A seed is a non-negative integer, the only kind NumPy's generators take."""
    if not is_integer(seed) or seed < 0:
        raise InvalidParameter(f"seed must be a non-negative integer, got {seed!r:.40}")


def check_penalty(name: str, value) -> None:
    """A penalty is a positive finite real number."""
    if not (check_real(name, value) > 0.0 and math.isfinite(value)):
        raise InvalidParameter(f"{name} must be positive and finite, got {value}")


def check_numbers(name: str, value, error=InvalidParameter) -> np.ndarray:
    """A float copy of ``value``, an array of numbers."""
    try:
        return np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise error(f"{name} must be numbers") from None
