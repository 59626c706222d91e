import math

import numpy as np
import pytest

from spinkey.field_servo import (
    CARRIER_HZ,
    HZ_PER_GAUSS,
    DriftModel,
    ServoConfig,
    ServoTrace,
    allan_deviation,
    detuning_error_budget,
    ramsey_probability,
    simulate_servo,
)


def test_ramsey_fringe_center_and_quadrature():
    assert ramsey_probability(0.0, 5e-3, +1) == pytest.approx(0.5)
    assert ramsey_probability(0.0, 5e-3, -1) == pytest.approx(0.5)
    # Delta = 1/(4T) = 50 Hz puts the two sides at the fringe extremes.
    assert ramsey_probability(50.0, 5e-3, +1) == pytest.approx(1.0, abs=1e-12)
    assert ramsey_probability(50.0, 5e-3, -1) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        ramsey_probability(0.0, 5e-3, 2)


@pytest.mark.parametrize("args, field", [
    ((0.0, 5e-3, True), "phase_sign"),
    ((0.0, 5e-3, 1.0), "phase_sign"),
    ((math.nan, 5e-3, 1), "delta_hz"),
    ((math.inf, 5e-3, 1), "delta_hz"),
    ((np.array([0.0, -math.inf]), 5e-3, 1), "delta_hz"),
    ((0.0, math.nan, 1), "interrogation_s"),
    ((0.0, math.inf, -1), "interrogation_s"),
    ((0.0, -5e-3, 1), "interrogation_s"),
    (("abc", 5e-3, 1), "delta_hz"),
    ((1j, 5e-3, 1), "delta_hz"),
    (([0.0, [1.0, 2.0]], 5e-3, 1), "delta_hz"),
])
def test_ramsey_probability_rejects_bad_arguments(args, field):
    with pytest.raises(ValueError, match=rf"^{field} must be"):
        ramsey_probability(*args)


def test_ramsey_probability_takes_a_list_and_keeps_float32():
    deltas = [0.0, 10.0, -25.0]
    expected = ramsey_probability(np.array(deltas), 5e-3, 1)
    np.testing.assert_array_equal(ramsey_probability(deltas, 5e-3, 1), expected)
    np.testing.assert_array_equal(ramsey_probability(tuple(deltas), 5e-3, 1), expected)
    assert ramsey_probability(10, 5e-3, -1) == ramsey_probability(10.0, 5e-3, -1)
    single = np.array(deltas, dtype=np.float32)
    assert ramsey_probability(single, 5e-3, 1).dtype == np.float32
    assert ramsey_probability(single[1], 5e-3, 1).dtype == np.float32


def test_two_sided_difference_is_odd():
    deltas = np.linspace(-40, 40, 41)
    diff = (ramsey_probability(deltas, 5e-3, +1)
            - ramsey_probability(deltas, 5e-3, -1))
    np.testing.assert_allclose(diff, -diff[::-1], atol=1e-12)
    # Monotonic through zero within the first fringe.
    inner = diff[np.abs(deltas) < 50]
    assert np.all(np.diff(inner) > 0)


def test_allan_constant_series_is_zero():
    sigma = allan_deviation(np.full(256, 3.3e-7), [1.0, 2.0, 8.0])
    np.testing.assert_allclose(sigma, 0.0, atol=1e-20)


def test_allan_offset_invariance():
    rng = np.random.default_rng(1)
    y = rng.normal(0, 1e-6, 512)
    taus = [1.0, 4.0, 16.0]
    np.testing.assert_allclose(
        allan_deviation(y, taus), allan_deviation(y + 5e-5, taus), rtol=1e-12
    )


def test_allan_input_validation():
    with pytest.raises(ValueError, match="shorter"):
        allan_deviation(np.ones(10), [8.0])
    with pytest.raises(ValueError, match="multiple"):
        allan_deviation(np.ones(100), [1.5], dt=1.0)
    for args, field in (((np.ones(10), [1.0], 0.0), "dt"), ((np.ones(10), [1.0], -1.0), "dt"),
                        ((np.ones(10), [1.0], math.nan), "dt"), ((np.ones(10), [math.nan]), "taus"),
                        ((np.ones(10), [1.0, math.inf]), "taus"),
                        (([0.0, math.nan, 0.0, 0.0], [1.0]), "y"),
                        ((np.ones(10), [[1.0, 2.0]]), "taus"),
                        ((np.ones((10, 10)), [1.0]), "y"),
                        ((np.ones(10), "x"), "taus"),
                        ((["a"] * 10, [1.0]), "y")):
        with pytest.raises(ValueError, match=rf"^{field} must be"):
            allan_deviation(*args)


def test_white_fm_slope():
    _, y = DriftModel(white_sigma1=1e-6).generate(4096, seed=1)
    taus = np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 100.0])
    sigma = allan_deviation(y, taus)
    slope = np.polyfit(np.log(taus), np.log(sigma), 1)[0]
    assert abs(slope + 0.5) < 0.1
    # Amplitude calibration: sigma_y(1 s) is the configured value.
    assert sigma[0] == pytest.approx(1e-6, rel=0.05)


def test_random_walk_fm_slope():
    _, y = DriftModel(rw_sigma10=1e-6).generate(4096, seed=2)
    taus = np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 100.0])
    sigma = allan_deviation(y, taus)
    slope = np.polyfit(np.log(taus), np.log(sigma), 1)[0]
    assert abs(slope - 0.5) < 0.1
    assert allan_deviation(y, [10.0])[0] == pytest.approx(1e-6, rel=0.1)


def test_paper_drift_preset_stability():
    _, y = DriftModel.lab().generate(4000, seed=3)
    sigma10 = allan_deviation(y, [10.0])[0]
    assert sigma10 <= 2e-7


def test_drift_validation():
    with pytest.raises(ValueError):
        DriftModel(white_sigma1=-1e-7)


def test_field_to_frequency_conversion():
    # 20 uG of field wander maps to the 30 Hz detuning budget within 20%.
    assert 20e-6 * HZ_PER_GAUSS == pytest.approx(30.0, rel=0.2)
    assert CARRIER_HZ == 8.6e6


def test_servo_steps_are_quantized():
    trace = simulate_servo(DriftModel.lab(), ServoConfig(), 60, seed=5)
    steps = np.diff(trace.applied_freq_hz)
    assert set(np.round(np.unique(steps), 9)).issubset({-5.0, 0.0, 5.0})


def test_paper_servo_containment():
    trace = simulate_servo(DriftModel.lab(), ServoConfig.lab(), 600, seed=7)
    res = trace.residual_hz
    assert np.mean(np.abs(res) <= 30.0) >= 0.99


def test_budget_zero_residuals():
    assert detuning_error_budget(np.zeros(32)) <= 1e-4


def test_budget_uniform_residuals_below_percent():
    rng = np.random.default_rng(5)
    assert detuning_error_budget(rng.uniform(-30, 30, 500)) <= 0.01


def test_budget_paper_preset_band():
    trace = simulate_servo(DriftModel.lab(), ServoConfig.lab(), 600, seed=7)
    budget = detuning_error_budget(trace.residual_hz)
    assert 0.001 <= budget <= 0.006


def _dense_budget(residuals_hz, grid_step_hz=5.0):
    """detuning_error_budget interpolated on every multiple of the step out to
    max(40 Hz, 1.1 max|residual|)."""
    from dataclasses import replace

    from spinkey.ion_sim import default_config, detuning_scan
    from spinkey.protocols import psk3_sequence

    seq = psk3_sequence()
    config = replace(default_config(seq), laser_time_s=200e-6)
    n_side = math.ceil(max(40.0, 1.1 * np.max(np.abs(residuals_hz))) / grid_step_hz)
    curve = detuning_scan(seq, np.arange(-n_side, n_side + 1) * grid_step_hz, config=config)
    return float(np.mean(1.0 - np.interp(residuals_hz, curve[:, 0], curve[:, 1])))


@pytest.mark.parametrize("seed, duration_s", [(0, 300), (1, 900), (2, 1800), (3, 2700), (4, 3600)])
def test_budget_matches_a_dense_grid(seed, duration_s):
    trace = simulate_servo(DriftModel.lab(), ServoConfig.lab(), duration_s, seed=seed)
    budget = detuning_error_budget(trace.residual_hz)
    assert budget == pytest.approx(_dense_budget(trace.residual_hz), rel=0, abs=1e-15)


@pytest.mark.parametrize("kwargs", [{"residuals_hz": [1e9]}], ids=["far-residual"])
def test_budget_grid_grows_with_the_residuals_not_their_range(kwargs):
    budget = detuning_error_budget(**kwargs)
    assert math.isfinite(budget) and 0.0 <= budget <= 1.0


def test_servo_config_rejects_bad_shots():
    for bad in (0, -1, 2.5, "50", True, 2**63, 10**21, None):
        with pytest.raises(ValueError, match="shots"):
            ServoConfig(shots=bad)
    assert ServoConfig(shots=np.int64(1)).shots == 1
    # The largest count one binomial draw takes.
    assert ServoConfig(shots=2**63 - 1).shots == 2**63 - 1


@pytest.mark.parametrize("field, bad", [
    ("miscalibration_hz", math.nan), ("miscalibration_hz", -math.inf),
])
def test_servo_config_rejects_bad_floats(field, bad):
    with pytest.raises(ValueError, match=field):
        ServoConfig(**{field: bad})


@pytest.mark.parametrize("field, bad", [
    ("white_sigma1", math.nan), ("white_sigma1", -1e-7), ("rw_sigma10", math.inf),
])
def test_drift_model_rejects_bad_fields(field, bad):
    with pytest.raises(ValueError, match=field):
        DriftModel(**{field: bad})


@pytest.mark.parametrize("kwargs, field", [
    ({"duration_s": math.inf}, "duration_s"),
    ({"duration_s": math.nan}, "duration_s"),
    ({"duration_s": -1.0}, "duration_s"),
    ({"duration_s": "20"}, "duration_s"),
    ({"seed": "0"}, "seed"),
    ({"seed": -1}, "seed"),
    ({"seed": 1.5}, "seed"),
    ({"seed": True}, "seed"),
    ({"seed": None}, "seed"),
    ({"duration_s": 1e300}, "duration_s"),
])
def test_simulate_servo_rejects_bad_arguments(kwargs, field):
    args = {"duration_s": 20.0, **kwargs}
    with pytest.raises(ValueError, match=field):
        simulate_servo(DriftModel.lab(), ServoConfig(), **args)


@pytest.mark.parametrize("kwargs, field", [
    ({"duration_s": math.inf}, "duration_s"),
    ({"duration_s": math.nan}, "duration_s"),
    ({"duration_s": -1.0}, "duration_s"),
    ({"duration_s": "20"}, "duration_s"),
    ({"duration_s": True}, "duration_s"),
    ({"duration_s": None}, "duration_s"),
    ({"duration_s": 10.0, "seed": "0"}, "seed"),
    ({"duration_s": 10.0, "seed": -1}, "seed"),
    ({"duration_s": 10.0, "seed": 1.5}, "seed"),
    ({"duration_s": 10.0, "seed": True}, "seed"),
    ({"duration_s": 10.0, "seed": None}, "seed"),
    ({"duration_s": 1e300}, "duration_s"),
    ({"duration_s": 5e18}, "duration_s"),
    # One second more than one float64 array can hold.
    ({"duration_s": float(np.iinfo(np.intp).max // 8 + 1)}, "duration_s"),
])
def test_drift_generate_rejects_bad_arguments(kwargs, field):
    with pytest.raises(ValueError, match=field):
        DriftModel.lab().generate(**kwargs)


def test_budget_rejects_empty_residuals():
    with pytest.raises(ValueError, match="empty"):
        detuning_error_budget([])


@pytest.mark.parametrize("kwargs, field", [
    ({"residuals_hz": [0.0, math.nan]}, "residuals_hz"),
    ({"residuals_hz": [math.inf]}, "residuals_hz"),
])
def test_budget_rejects_bad_arguments(kwargs, field):
    with pytest.raises(ValueError, match=field):
        detuning_error_budget(**kwargs)


def _reference_servo(drift, servo, duration_s, seed=0):
    """The servo loop written with numpy scalars: per period, two
    ramsey_probability calls clipped to [0, 1], and one binomial draw per
    fringe side, plus side first."""
    n = int(round(duration_s / servo.period_s))
    _, y = drift.generate(duration_s, seed=seed)
    resonance = y * drift.carrier_hz
    rng = np.random.default_rng(seed + 0x5EED)
    applied = np.zeros(n)
    level = 0.0
    for k in range(n):
        applied[k] = level
        delta = (resonance[k] + servo.miscalibration_hz) - level
        p_plus = float(np.clip(ramsey_probability(delta, servo.interrogation_s, +1), 0, 1))
        p_minus = float(np.clip(ramsey_probability(delta, servo.interrogation_s, -1), 0, 1))
        diff = (rng.binomial(servo.shots, p_plus)
                - rng.binomial(servo.shots, p_minus)) / servo.shots
        if diff > 0:
            level += servo.step_hz
        elif diff < 0:
            level -= servo.step_hz
    return ServoTrace(t=np.arange(n) * servo.period_s, true_freq_hz=resonance,
                      applied_freq_hz=applied)


@pytest.mark.parametrize("drift, servo, duration_s", [
    (DriftModel.lab(), ServoConfig(shots=1), 600),
    (DriftModel.lab(), ServoConfig(shots=50), 3600),
    (DriftModel.lab(), ServoConfig.lab(), 3600),
    # numpy's BTPE branch, taken when shots * min(p, 1 - p) > 30.
    (DriftModel.lab(), ServoConfig(shots=10**6), 600),
    (DriftModel.lab(), ServoConfig(shots=np.iinfo(np.int64).max), 60),
    (DriftModel.lab(), ServoConfig(shots=np.int64(50)), 600),
    # A drift of about 340 Hz per period sweeps the fringe sides out to 0 and 1.
    (DriftModel(white_sigma1=4e-5), ServoConfig.lab(), 600),
    (DriftModel.lab(), ServoConfig(miscalibration_hz=-15.0), 600),
], ids=["one-shot", "shots50", "lab", "btpe", "int64-max-shots", "numpy-int-shots",
        "fringe-extremes", "negative-miscal"])
@pytest.mark.parametrize("seed", [0, 7, 123, 2**31 - 1])
def test_servo_trace_is_bitwise_the_reference_loop(drift, servo, duration_s, seed):
    trace = simulate_servo(drift, servo, duration_s, seed=seed)
    ref = _reference_servo(drift, servo, duration_s, seed=seed)
    assert trace.applied_freq_hz.shape == (round(duration_s / servo.period_s),)
    assert np.array_equal(trace.applied_freq_hz, ref.applied_freq_hz)
    assert np.array_equal(trace.true_freq_hz, ref.true_freq_hz)
    assert np.array_equal(trace.t, ref.t)
