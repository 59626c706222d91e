"""Boundary checks shared by every public entry point.

Each helper returns the checked value or raises a ValueError that names
the field, so an invalid input fails where it enters rather than as a
NaN or a numpy error further down.
"""

import math
import numbers
import sys

import numpy as np


def _is_integer(value):
    """Whether value is an integer, not a bool; an exact int skips the ABC check."""
    return type(value) is int or (not isinstance(value, bool)
                                  and isinstance(value, numbers.Integral))


def _is_finite_real(value):
    """Whether value is a finite real number, not a bool.

    An exact float or int skips the ABC check. A number beyond float range,
    such as 10**400, is not finite here: math.isfinite raises OverflowError
    on it, and the library computes in float64.
    """
    if type(value) not in (float, int) and (isinstance(value, bool)
                                            or not isinstance(value, numbers.Real)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def shown(value):
    """repr(value) for an error message, or a description when repr refuses.

    Python writes no int of more than sys.get_int_max_str_digits() digits
    in decimal, so repr refuses such an int and any value that holds one,
    such as a Fraction or a tuple.
    """
    try:
        return repr(value)
    except ValueError:
        huge = f"an integer of more than {sys.get_int_max_str_digits()} digits"
        return huge if isinstance(value, int) else f"a {type(value).__name__} holding {huge}"


def check_real(name, value, minimum=None, strict=False, maximum=None):
    """value if it is a finite real number (not a bool) in range.

    The range is at or above minimum (strictly above it when strict is
    true) and at or below maximum; either bound may be None.
    """
    if not _is_finite_real(value):
        raise ValueError(f"{name} must be a finite number, got {shown(value)}")
    if minimum is not None and (value <= minimum if strict else value < minimum):
        raise ValueError(f"{name} must be {'>' if strict else '>='} {minimum}, got {shown(value)}")
    if maximum is not None and value > maximum:
        raise ValueError(f"{name} must be <= {maximum}, got {shown(value)}")
    return value


def check_int(name, value, minimum=1):
    """value as an int if it is an integer (not a bool) at or above minimum."""
    if not _is_integer(value) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {shown(value)}")
    return int(value)


def is_index(value, indices):
    """Whether value is an integer (not a bool) in the range indices."""
    return _is_integer(value) and value in indices


def finite_array(name, values):
    """values as a float array if every entry is finite."""
    try:
        values = np.asarray(values, dtype=float)
    except OverflowError:  # an int beyond float range
        raise ValueError(f"{name} must be finite, got a number beyond float range") from None
    finite = np.isfinite(values)
    if not finite.all():
        raise ValueError(f"{name} must be finite, got {values[~finite][0]}")
    return values


def finite_grid(name, values):
    """values as a 1-d float array if every entry is finite; a scalar is one point."""
    values = finite_array(name, values)
    if values.ndim > 1:
        raise ValueError(f"{name} must be a scalar or a 1-d grid, got shape {values.shape}")
    return values.reshape(-1)
