"""Semantic exception hierarchy shared by all modules, and the one place
an argument's integer, real-number or choice rule is written and a
caller's array is read as floats.

:func:`check_int`, :func:`check_real` and :func:`check_choice` test the
type as well as the range, so a float where an integer belongs (``m=1.7``)
or a bool where a number belongs (``reps=True``) is refused, not truncated
or counted, and a real argument must be finite.  A failure is an
:class:`InvalidInputError` naming the argument; a pass returns the value
unchanged.  :func:`as_real_array` converts the points and responses.
"""

import math
import numbers

import numpy as np


class ManifoldXiError(Exception):
    """Base class for every error raised by this package."""


class InvalidInputError(ManifoldXiError, ValueError):
    """An argument violates a documented precondition (domain, shape, size)."""


class DuplicatePointsError(InvalidInputError):
    """Duplicate predictor rows under ``xi_n(strict=True)`` or in the asymptotic test."""


class TieError(InvalidInputError):
    """Exactly tied responses under ``xi_n(strict=True)`` or in the asymptotic test."""


class DegenerateInputError(InvalidInputError):
    """The input is degenerate (e.g. a constant response) and the requested
    procedure has no meaningful answer for it."""


class DatasetFormatError(ManifoldXiError, ValueError):
    """A dataset or configuration file could not be parsed."""


def check_int(name: str, value, minimum: int):
    """``value`` if it is an integer (not a bool) of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise InvalidInputError(f"{name} must be >= {minimum}, got {value}")
    return value


def check_real(name: str, value, minimum: float):
    """``value`` if it is a finite real number (not a bool) of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidInputError(f"{name} must be a real number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        finite = False
    if not finite:
        raise InvalidInputError(f"{name} must be finite, got {value}")
    if value < minimum:
        raise InvalidInputError(f"{name} must be >= {minimum}, got {value}")
    return value


def check_choice(name: str, value, choices: tuple):
    """``value`` if it is one of the strings in ``choices``."""
    if not isinstance(value, str) or value not in choices:
        raise InvalidInputError(f"{name} must be one of {choices}, got {value!r}")
    return value


def as_real_array(name: str, value) -> np.ndarray:
    """``value`` as an array of floats, the array itself if it is one.

    A value numpy cannot read as real numbers (text, ragged rows, a
    mapping) raises :class:`InvalidInputError` naming ``name``, not numpy's
    ``ValueError`` or ``TypeError``, and so does a complex value, whose
    imaginary part a cast to float would drop.
    """
    try:
        arr = np.asarray(value)
        if arr.dtype.kind != "c" and not (arr.dtype == object and any(
                isinstance(v, (complex, np.complexfloating)) for v in arr.flat)):
            return arr.astype(float, copy=False)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"{name} must hold real numbers: {exc}") from exc
    raise InvalidInputError(f"{name} must hold real numbers, got complex values")
