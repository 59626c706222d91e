"""Magnetic-field drift, the Ramsey feed-forward servo, and Allan analysis.

The resonance frequency of the processing manifold drifts with the field.
A clock-style servo measures the drive's detuning between repetitions with
two Ramsey interrogations on opposite fringe sides and steps the drive
frequency back toward resonance in fixed increments. This module simulates
the drift (white and random-walk fractional-frequency noise), the servo
loop, the overlapping Allan deviation used to characterize both, and the
mapping of the residual detuning distribution into an algorithm error
budget.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from ._checks import check_int, check_real, finite_array

# Nominal splitting of the processing manifold driven by the rf antenna.
CARRIER_HZ = 8.6e6

# Field-to-frequency conversion stored as one constant, fixed by the paired
# stability figures (30 Hz of detuning per 20 uG of field).
HZ_PER_GAUSS = 1.5e6


@dataclass(frozen=True)
class DriftModel:
    """Fractional-frequency noise of the resonance.

    white_sigma1 is the white-FM Allan deviation at 1 s (slope -1/2);
    rw_sigma10 the random-walk-FM Allan deviation at 10 s (slope +1/2).
    Either may be zero; both must be finite and >= 0. carrier_hz is the
    resonance the fractional noise scales into hertz, finite and > 0.
    """

    white_sigma1: float = 0.0
    rw_sigma10: float = 0.0
    carrier_hz: float = CARRIER_HZ

    def __post_init__(self):
        check_real("white_sigma1", self.white_sigma1, 0.0)
        check_real("rw_sigma10", self.rw_sigma10, 0.0)
        check_real("carrier_hz", self.carrier_hz, 0.0, strict=True)

    @classmethod
    def white(cls, sigma1):
        return cls(white_sigma1=sigma1)

    @classmethod
    def random_walk(cls, sigma10):
        return cls(rw_sigma10=sigma10)

    @classmethod
    def lab(cls):
        """Composite calibrated so sigma_y(10 s) is below 2e-7 with the
        random walk taking over beyond roughly ten seconds."""
        return cls(white_sigma1=4.0e-7, rw_sigma10=1.1e-7)

    def generate(self, duration_s, dt=1.0, seed=0):
        """Sample the fractional-frequency series y(t).

        Returns (t, y) with t in seconds and y dimensionless. The white
        component has per-sample deviation sigma1/sqrt(dt); the random-walk
        step size reproduces rw_sigma10 at tau = 10 s through the exact
        discrete Allan variance of a random walk. duration_s must be
        finite and >= 0, dt finite and > 0.
        """
        check_real("duration_s", duration_s, 0.0)
        check_real("dt", dt, 0.0, strict=True)
        n = int(round(duration_s / dt))
        rng = np.random.default_rng(seed)
        y = np.zeros(n)
        if self.white_sigma1 > 0:
            y += rng.normal(0.0, self.white_sigma1 / math.sqrt(dt), n)
        if self.rw_sigma10 > 0:
            m = max(1, int(round(10.0 / dt)))
            # sigma_y^2(m dt) = step^2 (2m/3 + 1/(3m)) / 2 for a random walk
            scale = math.sqrt((2.0 * m / 3.0 + 1.0 / (3.0 * m)) / 2.0)
            step = self.rw_sigma10 / scale
            y += np.cumsum(rng.normal(0.0, step, n))
        return np.arange(n) * dt, y


@dataclass(frozen=True)
class ServoConfig:
    """Feed-forward loop parameters.

    interrogation_s is the Ramsey free-evolution time per fringe side,
    step_hz the fixed frequency increment, period_s the repetition
    interval, and shots the detections per fringe side, an integer >= 1
    (None means noiseless probabilities). The atom is interrogated at its
    light-shifted frequency and the calibrated light-shift offset is
    subtracted from every measurement again, so a correct calibration
    cancels exactly and needs no parameter. miscalibration_hz models an
    imperfect offset calibration: the servo converges to that residual
    detuning. Every float field is finite; interrogation_s, step_hz and
    period_s are > 0.
    """

    interrogation_s: float = 5e-3
    step_hz: float = 5.0
    period_s: float = 1.0
    shots: int = 50
    miscalibration_hz: float = 0.0

    def __post_init__(self):
        for name in ("interrogation_s", "step_hz", "period_s"):
            check_real(name, getattr(self, name), 0.0, strict=True)
        check_real("miscalibration_hz", self.miscalibration_hz)
        if self.shots is not None:
            check_int("shots", self.shots)

    @classmethod
    def lab(cls):
        """Defaults plus the residual offset miscalibration that dominates
        the measured detuning budget."""
        return cls(miscalibration_hz=15.0)


def ramsey_probability(delta_hz, interrogation_s, phase_sign):
    """Transfer probability of one Ramsey interrogation.

    Two half-rotations separated by free evolution; the closing pulse is
    phase-shifted so the two fringe sides read (1 +/- sin(2 pi delta T))/2,
    making their difference monotonic in the detuning near resonance.
    """
    if phase_sign not in (1, -1):
        raise ValueError("phase_sign must be +1 or -1")
    return 0.5 * (1.0 + phase_sign * np.sin(2.0 * np.pi * delta_hz * interrogation_s))


@dataclass(frozen=True)
class ServoTrace:
    """Time-stamped record of one servo run."""

    t: np.ndarray
    true_freq_hz: np.ndarray
    applied_freq_hz: np.ndarray

    @property
    def residual_hz(self):
        """Detuning seen by the algorithm: applied minus true resonance."""
        return self.applied_freq_hz - self.true_freq_hz


def simulate_servo(drift, servo, duration_s, seed=0, initial_offset_hz=0.0):
    """Run the feed-forward loop against a drifting resonance.

    Each period the loop measures both fringe sides of the current
    detuning (plus the light-shift offset, of which the calibrated part is
    subtracted again), and steps the drive by +/- step_hz toward resonance.
    The residual recorded for a period is the detuning the algorithm
    experiences during it, before that period's correction.

    Each period evaluates the two fringe sides of ramsey_probability,
    0.5 * (1 +/- sin(2 pi delta T)), on plain floats; they lie in [0, 1]
    without clipping. With shots, each side is one binomial draw, plus side
    first. duration_s must be finite and >= 0, initial_offset_hz finite.
    """
    check_real("initial_offset_hz", initial_offset_hz)
    t, y = drift.generate(duration_s, dt=servo.period_s, seed=seed)
    resonance = y * drift.carrier_hz + initial_offset_hz

    rng = np.random.default_rng(None if seed is None else seed + 0x5EED)
    applied = []
    level = 0.0
    for freq in resonance.tolist():
        applied.append(level)
        # The atom responds at its shifted frequency during interrogation;
        # the calibrated offset is subtracted in software, leaving only the
        # miscalibrated part.
        delta = (freq + servo.miscalibration_hz) - level
        s = math.sin(2.0 * math.pi * delta * servo.interrogation_s)
        p_plus = 0.5 * (1.0 + s)
        p_minus = 0.5 * (1.0 - s)
        if servo.shots is None:
            diff = p_plus - p_minus
        else:
            diff = (rng.binomial(servo.shots, p_plus)
                    - rng.binomial(servo.shots, p_minus)) / servo.shots
        if diff > 0:
            level += servo.step_hz
        elif diff < 0:
            level -= servo.step_hz
    return ServoTrace(t=t, true_freq_hz=resonance, applied_freq_hz=np.array(applied))


def allan_deviation(y, taus, dt=1.0):
    """Overlapping two-sample deviation of fractional-frequency data.

    Parameters
    ----------
    y : array_like
        Uniformly sampled fractional-frequency values at interval dt.
    taus : array_like
        Averaging times; each must be a multiple of dt with 2*tau fitting
        in the series.
    dt : float
        Sample period, finite and > 0. y and taus must be finite.

    Returns
    -------
    np.ndarray
        sigma_y(tau) for each requested tau.
    """
    check_real("dt", dt, 0.0, strict=True)
    y = finite_array("y", y)
    n = y.size
    taus = np.atleast_1d(finite_array("taus", taus))
    cum = np.concatenate([[0.0], np.cumsum(y)])
    out = np.empty(taus.size)
    for i, tau in enumerate(taus):
        m = int(round(tau / dt))
        if m < 1 or abs(m * dt - tau) > 1e-9 * max(dt, tau):
            raise ValueError(f"tau = {tau} is not a multiple of the sample period {dt}")
        if n < 2 * m:
            raise ValueError(f"series of {n} samples is shorter than 2*tau = {2 * m} samples")
        means = (cum[m:] - cum[:-m]) / m
        d = means[m:] - means[:-m]
        out[i] = math.sqrt(0.5 * float(np.mean(d * d)))
    return out


def detuning_error_budget(residuals_hz, seq=None, config=None, grid_step_hz=5.0):
    """Mean algorithm inaccuracy implied by a residual-detuning series.

    Maps each residual through the simulated accuracy-versus-detuning curve
    of the discrimination sequence and averages the inaccuracy. By default
    the curve is computed for the phase-keyed sequence with the composite
    laser blocks given their physical duration (200 us per block); the
    instantaneous-laser default would understate the dephasing a real trial
    accumulates. residuals_hz must be non-empty and finite, grid_step_hz
    finite and > 0.
    """
    from .ion_sim import default_config, detuning_scan
    from .protocols import psk3_sequence

    residuals_hz = finite_array("residuals_hz", residuals_hz)
    if residuals_hz.size == 0:
        raise ValueError("residuals_hz is empty: the budget is a mean over residuals")
    check_real("grid_step_hz", grid_step_hz, 0.0, strict=True)
    if seq is None:
        seq = psk3_sequence()
    if config is None:
        config = replace(default_config(seq), laser_time_s=200e-6)

    lim = max(40.0, float(np.max(np.abs(residuals_hz))) * 1.1)
    n_side = int(math.ceil(lim / grid_step_hz))
    grid = np.linspace(-n_side * grid_step_hz, n_side * grid_step_hz, 2 * n_side + 1)
    curve = detuning_scan(seq, grid, config=config)
    acc = np.interp(residuals_hz, curve[:, 0], curve[:, 1])
    return float(np.mean(1.0 - acc))
