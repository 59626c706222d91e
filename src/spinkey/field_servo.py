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

from ._checks import check_int, check_real, finite_array, finite_grid, is_index, shown

# Nominal splitting of the processing manifold driven by the rf antenna.
CARRIER_HZ = 8.6e6

# Field-to-frequency conversion stored as one constant, fixed by the paired
# stability figures (30 Hz of detuning per 20 uG of field).
HZ_PER_GAUSS = 1.5e6

# detuning_error_budget interpolates the accuracy curve between multiples of this.
_GRID_STEP_HZ = 5.0


@dataclass(frozen=True)
class DriftModel:
    """Fractional-frequency noise of the resonance.

    white_sigma1 is the white-FM Allan deviation at 1 s (slope -1/2);
    rw_sigma10 the random-walk-FM Allan deviation at 10 s (slope +1/2).
    Either may be zero; both must be finite and >= 0. The fractional noise
    scales into hertz on the carrier, a class constant, not a field.
    """

    white_sigma1: float = 0.0
    rw_sigma10: float = 0.0
    carrier_hz = CARRIER_HZ

    def __post_init__(self):
        check_real("white_sigma1", self.white_sigma1, 0.0)
        check_real("rw_sigma10", self.rw_sigma10, 0.0)

    @classmethod
    def lab(cls):
        """Composite calibrated so sigma_y(10 s) is below 2e-7 with the
        random walk taking over beyond roughly ten seconds."""
        return cls(white_sigma1=4.0e-7, rw_sigma10=1.1e-7)

    def generate(self, duration_s, seed=0):
        """Sample the fractional-frequency series y(t), once per second.

        Returns (t, y) with t in seconds and y dimensionless. The white
        component has per-sample deviation white_sigma1; the random-walk
        step size reproduces rw_sigma10 at tau = 10 s through the exact
        discrete Allan variance of a random walk. duration_s must be
        finite and >= 0, with no more seconds than one float64 array can
        hold (np.iinfo(np.intp).max bytes), and seed an integer >= 0.
        """
        check_real("duration_s", duration_s, 0.0)
        check_int("seed", seed, minimum=0)
        n = int(round(duration_s))
        if n > np.iinfo(np.intp).max // 8:
            raise ValueError(f"duration_s = {duration_s!r} is more seconds than one float64 "
                             f"array can hold ({np.iinfo(np.intp).max // 8})")
        rng = np.random.default_rng(seed)
        y = np.zeros(n)
        if self.white_sigma1 > 0:
            y += rng.normal(0.0, self.white_sigma1, n)
        if self.rw_sigma10 > 0:
            m = 10
            # sigma_y^2(m s) = step^2 (2m/3 + 1/(3m)) / 2 for a random walk
            scale = math.sqrt((2.0 * m / 3.0 + 1.0 / (3.0 * m)) / 2.0)
            y += np.cumsum(rng.normal(0.0, self.rw_sigma10 / scale, n))
        return np.arange(n, dtype=float), y


@dataclass(frozen=True)
class ServoConfig:
    """Feed-forward loop parameters.

    shots is the detections per fringe side, an integer from 1 to
    np.iinfo(np.int64).max, the most one binomial draw takes. The atom is
    interrogated at its light-shifted frequency and the calibrated
    light-shift offset is subtracted from every measurement again, so a
    correct calibration cancels exactly and needs no parameter.
    miscalibration_hz, finite, models an imperfect offset calibration: the
    servo converges to that residual detuning. The Ramsey free-evolution
    time per fringe side, the fixed frequency increment and the repetition
    interval are class constants, not fields: 5 ms, 5 Hz and 1 s.
    """

    shots: int = 50
    miscalibration_hz: float = 0.0
    interrogation_s = 5e-3
    step_hz = 5.0
    period_s = 1.0

    def __post_init__(self):
        check_real("miscalibration_hz", self.miscalibration_hz)
        if check_int("shots", self.shots) > np.iinfo(np.int64).max:
            raise ValueError(f"shots must be <= {np.iinfo(np.int64).max}, the most one binomial "
                             f"draw takes, got {shown(self.shots)}")

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
    delta_hz, a scalar or an array, must be finite, interrogation_s finite
    and >= 0, and phase_sign the integer +1 or -1 (not a bool).
    """
    # Checked, not converted: the formula takes delta_hz as given (a float32
    # stays float32), so the check never changes a result.
    finite_array("delta_hz", delta_hz)
    check_real("interrogation_s", interrogation_s, 0.0)
    if not is_index(phase_sign, (1, -1)):
        raise ValueError(f"phase_sign must be the integer +1 or -1, got {shown(phase_sign)}")
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


def simulate_servo(drift, servo, duration_s, seed=0):
    """Run the feed-forward loop against a drifting resonance.

    Each period the loop measures both fringe sides of the current
    detuning (plus the light-shift offset, of which the calibrated part is
    subtracted again), and steps the drive by +/- step_hz toward resonance.
    The residual recorded for a period is the detuning the algorithm
    experiences during it, before that period's correction.

    Each period evaluates the two fringe sides of ramsey_probability,
    0.5 * (1 +/- sin(2 pi delta T)), on plain floats; they lie in [0, 1]
    without clipping. Each side is one binomial draw of servo.shots, plus
    side first. The draws take shots and the two sides through 0-d int64
    and float64 arrays made once and rewritten in place, which numpy reads
    as the same int64 and double a Python int and float would give, at
    less conversion cost per call. The resonance starts at the drive
    frequency, so the drift alone moves it. duration_s (finite and >= 0)
    and seed (an integer >= 0) are checked by DriftModel.generate.
    """
    t, y = drift.generate(duration_s, seed=seed)
    resonance = y * drift.carrier_hz

    binomial = np.random.default_rng(seed + 0x5EED).binomial
    sin, two_pi = math.sin, 2.0 * math.pi
    miscal, interrogation, step = servo.miscalibration_hz, servo.interrogation_s, servo.step_hz
    shots = np.array(servo.shots, dtype=np.int64)
    p_plus, p_minus = np.empty(()), np.empty(())
    applied = []
    record = applied.append
    level = 0.0
    for freq in resonance.tolist():
        record(level)
        # The atom responds at its shifted frequency during interrogation;
        # the calibrated offset is subtracted in software, leaving only the
        # miscalibrated part.
        s = sin(two_pi * ((freq + miscal) - level) * interrogation)
        p_plus[()] = 0.5 * (1.0 + s)
        p_minus[()] = 0.5 * (1.0 - s)
        plus = binomial(shots, p_plus)
        minus = binomial(shots, p_minus)
        if plus != minus:
            level += step if plus > minus else -step
    return ServoTrace(t=t, true_freq_hz=resonance, applied_freq_hz=np.array(applied))


def allan_deviation(y, taus, dt=1.0):
    """Overlapping two-sample deviation of fractional-frequency data.

    Parameters
    ----------
    y : array_like
        Uniformly sampled fractional-frequency values at interval dt, a
        1-d series.
    taus : array_like
        Averaging times, a scalar or a 1-d list; each must be a multiple
        of dt with 2*tau fitting in the series.
    dt : float
        Sample period, finite and > 0. y and taus must be finite.

    Returns
    -------
    np.ndarray
        sigma_y(tau) for each requested tau.
    """
    check_real("dt", dt, 0.0, strict=True)
    y = finite_array("y", y)
    if y.ndim != 1:
        raise ValueError(f"y must be a 1-d series, got shape {y.shape}")
    n = y.size
    taus = finite_grid("taus", taus)
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


def detuning_error_budget(residuals_hz, seq=None, config=None):
    """Mean algorithm inaccuracy implied by a residual-detuning series.

    Maps each residual through the simulated accuracy-versus-detuning curve
    of the discrimination sequence and averages the inaccuracy. The curve is
    interpolated linearly between multiples of 5 Hz and computed only at
    the multiples that bracket a residual, at most two per residual.
    By default the curve is computed for the phase-keyed sequence with the
    composite laser blocks given their physical duration (200 us per
    block); the instantaneous-laser default would understate the dephasing
    a real trial accumulates. residuals_hz must be non-empty and finite.
    """
    from .ion_sim import default_config, detuning_scan
    from .protocols import psk3_sequence

    residuals_hz = finite_array("residuals_hz", residuals_hz)
    if residuals_hz.size == 0:
        raise ValueError("residuals_hz is empty: the budget is a mean over residuals")
    if seq is None:
        seq = psk3_sequence()
    if config is None:
        config = replace(default_config(seq), laser_time_s=200e-6)

    nodes = np.unique(np.floor(residuals_hz / _GRID_STEP_HZ))
    grid = np.union1d(nodes, nodes + 1) * _GRID_STEP_HZ
    curve = detuning_scan(seq, grid, config=config)
    acc = np.interp(residuals_hz, curve[:, 0], curve[:, 1])
    return float(np.mean(1.0 - acc))
