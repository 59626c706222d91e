"""The boundary checks of spinkey._checks: the exact-type fast path and huge numbers."""

import math
import numbers
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from spinkey._checks import check_int, check_real, finite_array, is_index, shown
from spinkey.field_servo import ServoConfig, allan_deviation, ramsey_probability
from spinkey.ion_sim import (ExperimentConfig, NoiseModel, angle_scan, detuning_scan, run,
                             time_series)
from spinkey.protocols import (DESIGN_ANGLES, PSK, OracleSpec, Pulse, PulseSequence,
                               psk3_sequence)

# Every kind of value the checks meet; none is beyond float range.
VALUES = [True, np.True_, 0, -1, 2 ** 63, 1.5, -0.0, math.nan, math.inf, -math.inf,
          np.float64(2), np.int64(3), Fraction(1, 2), Decimal("1"), "1", None, 1j]


def _abc_real(value):
    """check_real's rule by the numbers ABCs alone, with no exact-type test."""
    return (not isinstance(value, bool) and isinstance(value, numbers.Real)
            and math.isfinite(value))


def _abc_integer(value):
    """check_int's and is_index's integer rule by the numbers ABCs alone."""
    return not isinstance(value, bool) and isinstance(value, numbers.Integral)


def _outcome(check, *args):
    try:
        result = check(*args)
    except ValueError:
        return "refused"
    return type(result), result


@pytest.mark.parametrize("value", VALUES, ids=repr)
def test_fast_path_checks_agree_with_the_abc_rule(value):
    assert _outcome(check_real, "x", value) == (
        (type(value), value) if _abc_real(value) else "refused")
    for minimum in (-10, 0):
        assert _outcome(check_int, "n", value, minimum) == (
            (int, int(value)) if _abc_integer(value) and value >= minimum else "refused")
    assert is_index(value, range(5)) == (_abc_integer(value) and value in range(5))


@pytest.mark.parametrize("value", [10 ** 400, -10 ** 400, 2 ** 1024, Fraction(10 ** 400, 3)],
                         ids=["10**400", "-10**400", "2**1024", "Fraction"])
def test_a_number_beyond_float_range_is_not_finite(value):
    with pytest.raises(ValueError, match="x must be a finite number"):
        check_real("x", value)
    if isinstance(value, int):
        assert check_int("n", value, minimum=-10 ** 500) == value


def test_the_largest_float_range_integer_is_still_finite():
    assert check_real("x", 2 ** 1023) == 2 ** 1023


@pytest.mark.parametrize("build, field", [
    (lambda: NoiseModel(detuning_hz=10 ** 400), "detuning_hz"),
    (lambda: ExperimentConfig(rabi_freq=10 ** 400), "rabi_freq"),
    (lambda: Pulse(1, "x", "rf", 10 ** 400, 0.0), "pulse theta"),
], ids=["noise", "config", "pulse"])
def test_api_refuses_an_integer_beyond_float_range_naming_the_field(build, field):
    with pytest.raises(ValueError, match=f"{field} must be a finite number"):
        build()


@pytest.mark.parametrize("build, field", [
    (lambda: NoiseModel(detuning_hz=10 ** 5000), "detuning_hz"),
    (lambda: ServoConfig(shots=10 ** 5000), "shots"),
    (lambda: ExperimentConfig(init_level=10 ** 5000), "init_level"),
    (lambda: ExperimentConfig(couple_pair=(10 ** 5000, 6)), "couple_pair"),
    (lambda: Pulse(1, 10 ** 5000, "rf", 1.0, 0.0), "pulse label"),
    (lambda: PulseSequence("x", PSK, (), {0: 10 ** 5000}), "readout_map[0]"),
    (lambda: OracleSpec(PSK, DESIGN_ANGLES, 10 ** 5000), "hidden index"),
], ids=["noise", "servo", "config", "pair", "label", "readout-map", "oracle"])
def test_an_integer_too_long_to_write_is_refused_naming_the_field(build, field):
    """Python refuses to write an int of more than 4300 digits (its default
    limit) in decimal; the message describes it instead of failing on its
    repr."""
    with pytest.raises(ValueError) as refused:
        build()
    assert str(refused.value).startswith(field), refused.value
    assert f"more than {sys.get_int_max_str_digits()} digits" in str(refused.value)


def test_shown_is_repr_when_repr_writes_the_value():
    for value in (1.5, 10 ** 4000, Fraction(1, 3), (2, 6), "x"):
        assert shown(value) == repr(value)
    assert shown(Fraction(10 ** 5000, 3)) == (
        f"a Fraction holding an integer of more than {sys.get_int_max_str_digits()} digits")


@pytest.mark.parametrize("values", [[10 ** 400], [0.5, -10 ** 400], (1, 2 ** 1024)],
                         ids=["10**400", "-10**400", "2**1024"])
def test_finite_array_refuses_an_integer_beyond_float_range(values):
    """numpy raises OverflowError converting such an int to float64."""
    with pytest.raises(ValueError, match="angles must be finite, got a number beyond float range"):
        finite_array("angles", values)


@pytest.mark.parametrize("values", ["x", 1j, {"a": 1}, [1.0, [2.0, 3.0]], ["1.0", "y"]],
                         ids=["string", "complex", "dict", "ragged", "string-list"])
def test_finite_array_names_its_field_for_values_numpy_reads_as_no_floats(values):
    """numpy raises ValueError or TypeError converting these to float64."""
    with pytest.raises(ValueError, match="^angles must be real numbers"):
        finite_array("angles", values)


@pytest.mark.parametrize("call, field", [
    (lambda z: angle_scan(psk3_sequence(), z), "angles"),
    (lambda z: detuning_scan(psk3_sequence(), z), "detunings_hz"),
    (lambda z: ramsey_probability(z, 1e-3, 1), "delta_hz"),
    (lambda z: allan_deviation(z, [1, 2]), "y"),
], ids=["angle_scan", "detuning_scan", "ramsey_probability", "allan_deviation"])
@pytest.mark.parametrize("values", [
    np.array([1j, 0.5 + 2j]), np.array([1.0, 2.0, 3.0, 4.0], dtype=complex),
    np.complex128(0.5), [np.complex64(0.5), 0.25],
], ids=["complex-array", "zero-imaginary", "complex-scalar", "list"])
def test_complex_values_are_refused_naming_the_field(call, field, values):
    """numpy converts complex values to float64 by dropping the imaginary
    part, with only a ComplexWarning; every entry point refuses them."""
    with pytest.raises(ValueError, match=f"^{field} must be real numbers"):
        call(values)


_LONG_LASERS = ExperimentConfig(laser_time_s=1e308)


@pytest.mark.parametrize("call", [
    lambda: run(psk3_sequence(), 0, config=_LONG_LASERS),
    lambda: angle_scan(psk3_sequence(), [0.1], _LONG_LASERS),
    lambda: detuning_scan(psk3_sequence(), [0.0], _LONG_LASERS),
    lambda: time_series(psk3_sequence(), 0, 3, _LONG_LASERS),
    lambda: time_series(psk3_sequence(), 0, 3, ExperimentConfig(rabi_freq=1e-320)),
], ids=["run", "angle_scan", "detuning_scan", "time_series", "time_series-slow-drive"])
def test_a_program_duration_beyond_float_range_is_refused(call):
    """Valid config fields can sum to an infinite program duration, which is
    refused by name rather than returned as NaN probabilities."""
    with np.errstate(all="ignore"), pytest.raises(
            ValueError, match="pulse_gap_s, laser_time_s and rabi_freq"):
        call()
