"""Boundary checks shared by every public entry point.

Each helper returns the checked value or raises a ValueError that names
the field, so an invalid input fails where it enters rather than as a
NaN or a numpy error further down.
"""

import math
import numbers

import numpy as np


def check_real(name, value, minimum=None, strict=False, maximum=None):
    """value if it is a finite real number (not a bool) in range.

    The range is at or above minimum (strictly above it when strict is
    true) and at or below maximum; either bound may be None.
    """
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value)):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    if minimum is not None and (value <= minimum if strict else value < minimum):
        raise ValueError(f"{name} must be {'>' if strict else '>='} {minimum}, got {value!r}")
    if maximum is not None and value > maximum:
        raise ValueError(f"{name} must be <= {maximum}, got {value!r}")
    return value


def check_int(name, value, minimum=1):
    """value as an int if it is an integer (not a bool) at or above minimum."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def is_index(value, indices):
    """Whether value is an integer (not a bool) in the range indices."""
    return not isinstance(value, bool) and isinstance(value, numbers.Integral) and value in indices


def finite_array(name, values):
    """values as a float array if every entry is finite."""
    values = np.asarray(values, dtype=float)
    finite = np.isfinite(values)
    if not finite.all():
        raise ValueError(f"{name} must be finite, got {values[~finite][0]}")
    return values
