"""Single-ion simulation: 8-level state, noisy pulses, shelving, readout.

The state space is six metastable sublevels (indices 0..5, m = +5/2 down
to -5/2) followed by two ground sublevels (6: m = +1/2, 7: m = -1/2). rf
pulses drive the whole metastable block through the spin-5/2 generators;
laser pulses swap one metastable sublevel with one ground sublevel and are
modeled as instantaneous two-level rotations with a scalar failure
probability. Readout is the three-stage fluorescence cascade: detect the
ground manifold, then deshelve and detect each metastable readout level in
turn; whatever norm remains is leakage.

One interpreter runs every pulse program. A (sequence, config, noise,
signal angles) tuple compiles once into a list of segments (rf pulse,
laser swap, free precession), and run, angle_scan, detuning_scan,
time_series and run_qubit_reduction apply those segments to a whole
(N, 8) batch of grid points at once. rf segments are closed-form
rotations from one cached eigendecomposition of Jx: a resonant pulse turns
about an equatorial axis, a detuned one about an axis tilted out of the
equator by the detuning. The readout cascade is linear in the level
populations, so it is one (4, 8) matrix per (noise, config) applied to
|psi|^2 of the batch.

The laser coupling and readout sublevels are configuration. The defaults
were frozen from noiseless simulation of the built-in sequences: the
phase-keyed table is exact when the laser couples m = +1/2 (branches end on
m = -1/2 and m = +1/2), and the amplitude-keyed table wants m = +5/2
(branches end on m = +5/2 and m = -5/2).
"""

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .protocols import (
    ASK,
    DESIGN_ANGLES,
    LASER,
    ORACLE,
    OracleSpec,
    PSK,
    resolve_oracle_pulse,
)
from .spin_algebra import rotation, spin_operators, two_level_rotation, z_frame

D_DIM = 6
DIM = 8
S_LEVELS = (6, 7)

_J6 = spin_operators(6)
_M6 = np.diag(_J6.jz).real


@dataclass(frozen=True)
class NoiseModel:
    """Error channels applied during a run; everything defaults to ideal.

    detuning_hz is the rf offset from the Zeeman resonance (constant within
    a run), rf_amp_error a fractional Rabi-frequency error (> -1),
    laser_pi_error the failure probability of one laser pi-swap, spam_error
    the flip probability of each binary fluorescence detection, and
    leakage_rate a uniform non-negative per-second rate of leaving the
    readout space.
    """

    detuning_hz: float = 0.0
    rf_amp_error: float = 0.0
    laser_pi_error: float = 0.0
    spam_error: float = 0.0
    leakage_rate: float = 0.0

    def __post_init__(self):
        for name in ("detuning_hz", "rf_amp_error", "leakage_rate"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if self.rf_amp_error <= -1.0:
            raise ValueError(f"rf_amp_error must be > -1, got {self.rf_amp_error}")
        if self.leakage_rate < 0.0:
            raise ValueError(f"leakage_rate must be non-negative, got {self.leakage_rate}")
        for name in ("laser_pi_error", "spam_error"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability, got {p}")

    @classmethod
    def lab(cls):
        """Preset reproducing the measured 0.21% prep/detection/laser budget.

        The combined budget is split across the roughly two in-sequence
        laser pulses, one readout deshelve, and three detections of a
        typical run.
        """
        return cls(laser_pi_error=5e-4, spam_error=2e-4)


IDEAL = NoiseModel()


@dataclass(frozen=True)
class ExperimentConfig:
    """Pulse timing and level assignments.

    rabi_freq fixes the rf pi-time (55 us by default). couple_pair is the
    (metastable, ground) index pair driven by in-sequence laser pulses;
    readout_pairs are the deshelving pairs for readout states 1 and 2, in
    detection order. Readout state 0 is the ground manifold itself. Every
    pair is (metastable level 0-5, ground level 6-7), and init_level is a
    ground level.
    """

    rabi_freq: float = math.pi / 55e-6
    pulse_gap_s: float = 0.0
    laser_time_s: float = 0.0
    init_level: int = 6
    couple_pair: tuple = (2, 6)
    readout_pairs: tuple = ((3, 6), (2, 6))
    # Non-default alternative: drive zero-angle oracle pulses for a full
    # pi-time at zero amplitude so every query takes the same wall time.
    oracle_fixed_length: bool = False

    def __post_init__(self):
        if self.rabi_freq <= 0:
            raise ValueError("rabi_freq must be positive")
        if not _is_level(self.init_level, S_LEVELS):
            raise ValueError(f"init_level must be a ground level 6 or 7, got {self.init_level!r}")
        readout = self.readout_pairs
        if not (isinstance(readout, (tuple, list)) and len(readout) == 2):
            raise ValueError(f"readout_pairs must hold two level pairs, got {readout!r}")
        for name, pair in (("couple_pair", self.couple_pair),
                           ("readout_pairs[0]", readout[0]), ("readout_pairs[1]", readout[1])):
            if not (isinstance(pair, (tuple, list)) and len(pair) == 2
                    and _is_level(pair[0], range(D_DIM)) and _is_level(pair[1], S_LEVELS)):
                raise ValueError(
                    f"{name} must be a (metastable 0-5, ground 6-7) level pair, got {pair!r}")

    @property
    def pi_time(self):
        return math.pi / self.rabi_freq

    @property
    def laser_pairs(self):
        """Named coupling map used by apply_laser_pi."""
        return {
            "couple": self.couple_pair,
            "readout1": self.readout_pairs[0],
            "readout2": self.readout_pairs[1],
        }


def _is_level(index, levels):
    return isinstance(index, numbers.Integral) and index in levels


_SEQUENCE_CONFIGS = {
    PSK: ExperimentConfig(couple_pair=(2, 6), readout_pairs=((3, 6), (2, 6))),
    ASK: ExperimentConfig(couple_pair=(0, 6), readout_pairs=((0, 6), (5, 7))),
}


def default_config(seq):
    """Frozen level assignment for a sequence's encoding."""
    return _SEQUENCE_CONFIGS[seq.encoding]


@dataclass(frozen=True)
class ReadoutResult:
    """Probabilities over (state0, state1, state2, leakage), plus a sampled
    outcome when a seed was supplied (3 denotes leakage)."""

    probabilities: np.ndarray
    outcome: int = None
    seed: int = None

    @property
    def leakage(self):
        return float(self.probabilities[3])


def init_state(config=None):
    """All amplitude on the configured ground sublevel."""
    config = config or ExperimentConfig()
    state = np.zeros(DIM, dtype=complex)
    state[config.init_level] = 1.0
    return state


def rf_unitary(theta, phi, noise=IDEAL, config=None, duration=None, detuning_hz=None):
    """Propagator of one rf pulse on the metastable block, or a stack of them.

    A negative rotation angle is driven as a positive-duration pulse about
    the opposite axis. The detuning enters as 2*pi*detuning*Jz alongside
    the (1 + amp_error)-scaled drive. The duration is theta/rabi_freq
    unless an explicit duration is given, in which case the drive amplitude
    is rescaled to produce the same rotation angle in that time.

    theta, phi, duration and detuning_hz (default: noise.detuning_hz) may
    be arrays with one value per pulse; they broadcast, and the (6, 6)
    propagators stack along their broadcast shape. Resonant pulses are the
    closed form Rz(phi) Rx(theta * (1 + amp_error)) Rz(-phi) of rotation().
    When any detuning is nonzero, each pulse's generator turned to the x
    axis, angle * Jx + z * Jz, is a rotation by r = hypot(angle, z) about
    an axis tilted beta = arctan2(angle, z) from z, so the propagator is
    Rz(phi) d(beta) exp(-i r Jz) d(beta)^T Rz(-phi) with the real Wigner
    matrix d(beta) = exp(-i beta Jy).
    """
    if duration is None:
        duration = np.abs(theta) / (config or ExperimentConfig()).rabi_freq
    if detuning_hz is None:
        detuning_hz = noise.detuning_hz
    angle = np.multiply(theta, 1.0 + noise.rf_amp_error)
    z_phase = 2.0 * math.pi * np.multiply(detuning_hz, duration)
    if not np.any(z_phase):
        return rotation(D_DIM, angle, phi)
    d = rotation(D_DIM, np.arctan2(angle, z_phase), math.pi / 2.0).real
    spin = np.exp(-1j * np.multiply.outer(np.hypot(angle, z_phase), _M6))
    return z_frame((d * spin[..., None, :]) @ np.swapaxes(d, -1, -2), phi)


def apply_rf(state, theta, phi, noise=IDEAL, config=None, duration=None):
    """Apply one rf pulse; the ground block is untouched."""
    out = state.copy()
    out[:D_DIM] = rf_unitary(theta, phi, noise, config, duration) @ state[:D_DIM]
    return out


def _laser_angle(noise):
    """Two-level rotation angle of a pi-swap that transfers 1 - laser_pi_error."""
    return 2.0 * math.asin(math.sqrt(1.0 - noise.laser_pi_error))


def apply_laser_pi(state, pair, noise=IDEAL, config=None):
    """Population swap of the pair; with error p, a fraction p stays behind.

    pair is either a (metastable, ground) index tuple or the name of an
    entry in the config's coupling map ("couple", "readout1", "readout2").
    The imperfect swap is unitary: the transfer probability is 1 - p, so
    applying it twice is the identity on populations only in the ideal
    case.
    """
    if isinstance(pair, str):
        pairs = (config or ExperimentConfig()).laser_pairs
        if pair not in pairs:
            raise ValueError(f"unknown laser pair {pair!r}; expected one of {sorted(pairs)}")
        pair = pairs[pair]
    return two_level_rotation(DIM, pair, _laser_angle(noise)) @ state


def apply_oracle(state, oracle, noise=IDEAL, config=None, phase_offset=math.pi):
    """Apply the hidden channel once.

    Phase keying drives a fixed-length pi-pulse about the encoded axis plus
    the sequence's phase offset; amplitude keying drives the encoded angle
    about the y axis.
    """
    if oracle.encoding == PSK:
        return apply_rf(state, math.pi, oracle.hidden_angle + phase_offset,
                        noise, config)
    return apply_rf(state, oracle.hidden_angle, math.pi / 2.0, noise, config)


class _Segment(NamedTuple):
    """One step of a compiled pulse program.

    kind is "rf", "laser" or "free" (precession only). duration is the wall
    time; angle is the rf pulse's nominal rotation angle or the laser's
    two-level rotation angle; phi is the rf drive axis; pair is the laser's
    (metastable, ground) pair. Each number is a scalar or one value per
    grid point.
    """

    kind: str
    duration: object
    angle: object = 0.0
    phi: object = 0.0
    pair: tuple = None


def _compile(seq, config, noise, signal_angles):
    """The pulse program as segments, for a scalar or an array of signal angles.

    This is the only place that knows the program's rules: a free gap
    between consecutive pulses, the in-sequence laser on the couple pair
    followed by its laser time, oracle resolution, and the fixed-length
    option for amplitude-keyed oracles.
    """
    laser_angle = _laser_angle(noise)
    segments = []
    for n, pulse in enumerate(seq.pulses):
        if n > 0 and config.pulse_gap_s > 0.0:
            segments.append(_Segment("free", config.pulse_gap_s))
        if pulse.channel == LASER:
            segments.append(_Segment("laser", config.laser_time_s, laser_angle,
                                     pair=config.couple_pair))
            continue
        theta, phi = pulse.theta, pulse.phi
        duration = None
        if pulse.channel == ORACLE:
            theta, phi = resolve_oracle_pulse(pulse, seq.encoding, signal_angles)
            if config.oracle_fixed_length and seq.encoding == ASK:
                duration = config.pi_time
        if duration is None:
            duration = np.abs(theta) / config.rabi_freq
        segments.append(_Segment("rf", duration, theta, phi))
    return segments


def _advance(states, segment, noise, detuning_hz, tau=None, dim=D_DIM):
    """Apply the first tau seconds of a segment (all of it by default).

    states is an (N, dim + grounds) batch whose first dim entries are the
    spin block; detuning_hz and tau are scalars or one value per row. The
    six-level block takes the noisy rf_unitary; the ideal two-level
    reduction (dim = 2) takes plain rotations. Returns a new array.
    """
    scale = 1.0
    if tau is None:
        tau = segment.duration
    else:
        scale = tau / segment.duration
    if segment.kind == "laser":
        # The swap is instantaneous; the laser time after it only precesses.
        states = states @ two_level_rotation(states.shape[1], segment.pair, segment.angle).T
    else:
        states = states.copy()
    block = states[:, :dim]
    if segment.kind == "rf":
        theta = segment.angle * scale
        if dim == D_DIM:
            u = rf_unitary(theta, segment.phi, noise, duration=tau, detuning_hz=detuning_hz)
        else:
            u = rotation(dim, theta, segment.phi)
        states[:, :dim] = (u @ block[..., None])[..., 0]
    elif np.any(detuning_hz):
        z_phase = 2.0 * math.pi * np.multiply.outer(np.multiply(detuning_hz, tau), _M6)
        states[:, :dim] = block * np.exp(-1j * z_phase)
    return states


def _readout_matrix(noise, config):
    """(4, 8) map from the 8 level populations to outcome probabilities.

    Right after each projection one side of the next laser pair is empty,
    so the swap moves population without interference and the whole
    cascade is linear in |psi|^2. Column k is the cascade run on all
    population in level k.
    """
    s = noise.spam_error
    ground = np.isin(np.arange(DIM), S_LEVELS)
    pops = np.eye(DIM)
    rows = []
    for stage in range(3):
        if stage:
            pair = config.readout_pairs[stage - 1]
            pops = np.abs(two_level_rotation(DIM, pair, _laser_angle(noise))) ** 2 @ pops
        rows.append((1.0 - s) * pops[ground].sum(axis=0) + s * pops[~ground].sum(axis=0))
        # Only a branch reported dark goes on: the true-dark one, and the
        # true-bright one with probability spam_error.
        pops = np.where(ground[:, None], s, 1.0 - s) * pops
    rows.append(pops.sum(axis=0))
    return np.array(rows)


def _sample(probs, seed):
    if seed is None:
        return None
    rng = np.random.default_rng(seed)
    return int(rng.choice(4, p=probs / probs.sum()))


def sequential_readout(state, noise=IDEAL, config=None, seed=None):
    """Three-stage fluorescence cascade.

    Stage 0 detects the ground manifold; stages 1 and 2 deshelve the
    configured readout levels and detect again. Each binary detection
    projects the true state and is misreported with probability
    spam_error; the procedure follows the reports, so a flipped detection
    both mislabels and derails the remaining cascade, as it does in the
    lab. The outcome probabilities depend only on the level populations
    |psi|^2 and are linear in them: they are one (4, 8) matrix, fixed by
    the noise and config, applied to |psi|^2. state may also be a batch of
    shape (..., 8), giving probabilities of shape (..., 4). Returns exact
    outcome probabilities, plus one sampled outcome when a seed is given
    for a single state.
    """
    config = config or ExperimentConfig()
    probs = np.abs(np.asarray(state)) ** 2 @ _readout_matrix(noise, config).T
    return ReadoutResult(probabilities=probs, outcome=_sample(probs, seed), seed=seed)


def _apply_leakage(probs, noise, duration):
    """Scale the readout states of (N, 4) rows by exp(-leakage_rate * duration)."""
    survive = np.exp(-noise.leakage_rate * np.asarray(duration, dtype=float)).reshape(-1, 1)
    out = probs.copy()
    out[:, :3] *= survive
    out[:, 3] += (1.0 - survive[:, 0]) * probs[:, :3].sum(axis=1)
    return out


def _evaluate(seq, config, noise, signal_angles, detunings_hz=None):
    """(N, 4) outcome probabilities, leakage included, one row per grid point.

    signal_angles and detunings_hz (default: the noise model's) broadcast
    to the N grid points; the program is compiled once and applied to all
    of them, one segment at a time.
    """
    detuning = noise.detuning_hz if detunings_hz is None else detunings_hz
    segments = _compile(seq, config, noise, signal_angles)
    states = np.tile(init_state(config), (np.broadcast(signal_angles, detuning).size, 1))
    for segment in segments:
        states = _advance(states, segment, noise, detuning)
    probs = sequential_readout(states, noise, config).probabilities
    return _apply_leakage(probs, noise, sum(segment.duration for segment in segments))


def run(seq, oracle_index, noise=IDEAL, config=None, candidate_angles=DESIGN_ANGLES,
        seed=None):
    """Initialize, apply the full pulse program, and read out.

    With ideal noise every oracle index of the built-in sequences lands on
    readout_map[oracle_index] deterministically (to the precision of the
    stored pulse angles). A seeded outcome is drawn from the returned
    probabilities, leakage included.
    """
    config = config or default_config(seq)
    oracle = OracleSpec(seq.encoding, tuple(candidate_angles), oracle_index)
    probs = _evaluate(seq, config, noise, np.array([oracle.hidden_angle]))[0]
    return ReadoutResult(probabilities=probs, outcome=_sample(probs, seed), seed=seed)


def run_qubit_reduction(seq, signal_angle):
    """Two-level execution of the rotation core, shelving bookkeeping included.

    The compiled program runs on a qubit (index 0 = the coupled level) plus
    one ground slot: the first laser pulse loads the coupled level, the
    later one shelves its amplitude. Returns the three readout-state
    populations in the same order as run(); signal_angle may be an array,
    giving one row per angle. At the design angles, where each half of a
    built-in sequence composes to an exact identity or flip, this matches
    the six-level run; away from them the two spaces genuinely differ. The
    tabulated ask3 angles miss that composition by 1e-4 here, a miss the
    six-level run scales by 2J = 5.
    """
    config = default_config(seq)
    signal_angle = np.asarray(signal_angle, dtype=float)
    # In the reduced space the laser couples qubit level 0 to the ground slot 2.
    segments = [segment._replace(pair=(0, 2)) if segment.kind == "laser" else segment
                for segment in _compile(seq, config, IDEAL, signal_angle.ravel())]
    states = np.zeros((signal_angle.size, 3), dtype=complex)
    states[:, 2] = 1.0
    for segment in segments:
        states = _advance(states, segment, IDEAL, 0.0, dim=2)
    pops = np.abs(states) ** 2
    mirror = int(config.readout_pairs[0][0] != config.couple_pair[0])
    return pops[:, [2, mirror, 1 - mirror]].reshape(signal_angle.shape + (3,))


def time_series(seq, oracle_index, n_points, config=None, noise=IDEAL,
                candidate_angles=DESIGN_ANGLES):
    """Readout-state populations versus evolution time.

    The compiled program is evaluated at n_points evenly spaced times. The
    state after each whole segment is propagated once; a time point inside
    a segment is that prefix plus the part of the segment it has reached,
    and survives leakage with exp(-leakage_rate * t). Laser pulses are
    instantaneous by default, so the curves are piecewise smooth with steps
    at the shelving events; a pulse starting at a time point takes effect
    just after it. The final row is the whole program and equals run().

    Returns an (n_points, 4) array with columns (time, p0, p1, p2).
    """
    config = config or default_config(seq)
    oracle = OracleSpec(seq.encoding, tuple(candidate_angles), oracle_index)
    segments = _compile(seq, config, noise, oracle.hidden_angle)
    ends = np.cumsum([segment.duration for segment in segments])
    total = float(ends[-1]) if segments else 0.0
    times = np.linspace(0.0, total, n_points)
    eps = 1e-15 * max(total, 1e-30)

    prefix = init_state(config)[None, :]
    states = np.repeat(prefix, n_points, axis=0)
    start = 0.0
    for segment, end in zip(segments, ends):
        started = (times - start > eps) | (times >= total - eps)
        inside = started & (times < end - eps)
        if inside.any():
            states[inside] = _advance(np.repeat(prefix, inside.sum(), axis=0), segment,
                                      noise, noise.detuning_hz, times[inside] - start)
        prefix = _advance(prefix, segment, noise, noise.detuning_hz)
        states[started & ~inside] = prefix
        start = end
    probs = _apply_leakage(sequential_readout(states, noise, config).probabilities,
                           noise, times)
    return np.column_stack([times, probs[:, :3]])


def angle_scan(seq, angles, config=None, noise=IDEAL, dim=6):
    """Readout populations as the oracle's signal angle sweeps a grid.

    dim=6 runs the full ion model; dim=2 runs the two-level reduction. All
    grid points are evaluated together as one batch.
    Returns an (n, 4) array with columns (angle, p0, p1, p2).
    """
    angles = np.asarray(angles, dtype=float)
    if dim == 2:
        probs = run_qubit_reduction(seq, angles)
    elif dim == 6:
        probs = _evaluate(seq, config or default_config(seq), noise, angles)[:, :3]
    else:
        raise ValueError(f"unsupported dimension {dim}")
    return np.column_stack([angles, probs])


def detuning_scan(seq, detunings_hz, config=None, candidate_angles=DESIGN_ANGLES,
                  noise=IDEAL):
    """Minimum correct-identification probability over the candidate set.

    Every (detuning, candidate) pair is evaluated in one batch. Returns an
    (n, 2) array with columns (detuning_hz, min_accuracy); other noise
    fields are taken from the supplied model.
    """
    config = config or default_config(seq)
    candidates = np.asarray(OracleSpec(seq.encoding, tuple(candidate_angles), 0)
                            .candidate_angles, dtype=float)
    detunings_hz = np.asarray(detunings_hz, dtype=float)
    bad = detunings_hz[~np.isfinite(detunings_hz)]
    if bad.size:
        raise ValueError(f"detunings_hz must be finite, got {bad[0]}")
    probs = _evaluate(seq, config, noise, np.tile(candidates, detunings_hz.size),
                      np.repeat(detunings_hz, candidates.size))
    probs = probs.reshape(detunings_hz.size, candidates.size, 4)
    index = np.arange(candidates.size)
    correct = probs[:, index, [seq.readout_map[i] for i in index]]
    return np.column_stack([detunings_hz, correct.min(axis=1)])


def rabi_curve(times, start_level, config=None):
    """Six-level populations under a continuous resonant drive from one level.

    Evolution is exp(-1j * rabi_freq * t * Jx); at the pi-time the
    populations mirror m -> -m, and after twice that they return. This is
    light_shift_isolation with zero shift.

    Returns (times, populations) with populations of shape (n, 6).
    """
    return light_shift_isolation(0.0, times, config, start_level=start_level)


def light_shift_isolation(shift_hz, times, config=None, start_level=5,
                          shifted_level=3):
    """Rabi dynamics with one sublevel shifted out of resonance.

    Shifting m = -1/2 while driving from m = -5/2 pins the dynamics to the
    lowest two sublevels once the shift dominates the drive's ladder
    coupling; at zero shift this reduces to the free six-level curve.

    Returns (times, populations) with populations of shape (n, 6).
    """
    config = config or ExperimentConfig()
    times = np.asarray(times, dtype=float)
    h = config.rabi_freq * _J6.jx.copy()
    h[shifted_level, shifted_level] += 2.0 * math.pi * shift_hz
    w, v = np.linalg.eigh(h)
    coeffs = v[start_level].conj()
    psi = (np.exp(-1j * np.multiply.outer(times, w)) * coeffs) @ v.T
    return times, np.abs(psi) ** 2
