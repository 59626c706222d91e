"""Single-ion simulation: 8-level state, noisy pulses, shelving, readout.

The state space is six metastable sublevels (indices 0..5, m = +5/2 down
to -5/2) followed by two ground sublevels (6: m = +1/2, 7: m = -1/2). rf
pulses drive the whole metastable block through the spin-5/2 generators;
laser pulses couple one metastable sublevel with one ground sublevel and
are modeled as instantaneous two-level rotations. A laser pulse of angle
theta and phase phi rotates its pair by theta / pi times the angle of the
noisy pi-swap, whose transfer fails with a scalar probability, about the
axis phi; the built-in tables' (pi, 0) pulses are that pi-swap itself.
Readout is the three-stage fluorescence cascade: detect the ground
manifold, then deshelve and detect each metastable readout level in turn;
whatever norm remains is leakage.

One interpreter runs every pulse program. A (sequence, config, signal
angles) tuple compiles once into a list of segments of one form: an
optional laser swap on a (metastable, ground) pair, then a drive of some
angle, axis and duration (angle 0 is free precession). run, angle_scan,
detuning_scan and run_qubit_reduction all pass a whole (N, 8) batch of
grid points through the same loop; time_series passes one row through
it, recording where each segment starts, and finishes every time point
from those records in one batch. Between two laser swaps every rf pulse
and free precession is the spin-5/2 image of an SU(2) element. Before
the loop walks the segments, the program's drive elements come from at
most two spin_algebra.su2_pulse calls per evaluation: one for the
drives that are the same on every row and one for those with one value
per row. The loop multiplies the 2x2 elements in closed form and
applies each laser-free block once, through spin_algebra.su2_apply: on
six levels one resonant rotation followed by one precession about z, as
two real 6x6 matmuls in the cached eigenbasis of Jx and three diagonal
phases, and in the two-level reduction the element itself as a
two-column row update. A laser pulse is spin_algebra.two_level_rotation,
which rewrites only its pair's two columns, so no per-row propagator is
built. The readout cascade is linear in the level populations, so it is
one (4, 8) matrix per (noise, config), built once and cached, applied to
|psi|^2 of the batch.

The laser coupling and readout sublevels are configuration. The defaults
were frozen from noiseless simulation of the built-in sequences: the
phase-keyed table is exact when the laser couples m = +1/2 (branches end on
m = -1/2 and m = +1/2), and the amplitude-keyed table wants m = +5/2
(branches end on m = +5/2 and m = -5/2).
"""

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._checks import check_int, check_real, finite_array, finite_grid, is_index, shown
from .protocols import (
    ASK,
    DESIGN_ANGLES,
    LASER,
    ORACLE,
    OracleSpec,
    PSK,
    resolve_oracle_pulse,
)
from .spin_algebra import (
    hermitian_propagator,
    rotation,
    spin_operators,
    su2_apply,
    su2_factors,
    su2_product,
    su2_pulse,
    two_level_rotation,
)

D_DIM = 6
DIM = 8
S_LEVELS = (6, 7)

_J6 = spin_operators(6)
_M6 = np.diag(_J6.jz).real
# The sublevel light_shift_isolation shifts: m = -1/2.
_SHIFTED_LEVEL = 3


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
        check_real("detuning_hz", self.detuning_hz)
        check_real("rf_amp_error", self.rf_amp_error, -1.0, strict=True)
        check_real("leakage_rate", self.leakage_rate, 0.0)
        for name in ("laser_pi_error", "spam_error"):
            check_real(name, getattr(self, name), 0.0, maximum=1.0)

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

    rabi_freq fixes the rf pi-time (55 us by default) and must be > 0.
    pulse_gap_s (free precession between consecutive pulses) and
    laser_time_s (precession after each in-sequence laser swap) are finite
    and >= 0. couple_pair is the (metastable, ground) index pair driven by
    in-sequence laser pulses; readout_pairs are the deshelving pairs for
    readout states 1 and 2, in detection order. Readout state 0 is the
    ground manifold itself. Every pair is (metastable level 0-5, ground
    level 6-7), and init_level is a ground level. Pairs given as lists are
    stored as tuples of ints, so every valid config is hashable. Every rf
    and oracle drive lasts |theta| / rabi_freq, so an amplitude-keyed
    oracle of angle 0 takes no time.
    """

    rabi_freq: float = math.pi / 55e-6
    pulse_gap_s: float = 0.0
    laser_time_s: float = 0.0
    init_level: int = 6
    couple_pair: tuple = (2, 6)
    readout_pairs: tuple = ((3, 6), (2, 6))

    def __post_init__(self):
        check_real("rabi_freq", self.rabi_freq, 0.0, strict=True)
        check_real("pulse_gap_s", self.pulse_gap_s, 0.0)
        check_real("laser_time_s", self.laser_time_s, 0.0)
        if not is_index(self.init_level, S_LEVELS):
            raise ValueError(
                f"init_level must be a ground level 6 or 7, got {shown(self.init_level)}")
        readout = self.readout_pairs
        if not (isinstance(readout, (tuple, list)) and len(readout) == 2):
            raise ValueError(f"readout_pairs must hold two level pairs, got {shown(readout)}")
        for name, pair in (("couple_pair", self.couple_pair),
                           ("readout_pairs[0]", readout[0]), ("readout_pairs[1]", readout[1])):
            if not (isinstance(pair, (tuple, list)) and len(pair) == 2
                    and is_index(pair[0], range(D_DIM)) and is_index(pair[1], S_LEVELS)):
                raise ValueError(
                    f"{name} must be a (metastable 0-5, ground 6-7) level pair, got {shown(pair)}")
        object.__setattr__(self, "couple_pair", _level_pair(self.couple_pair))
        object.__setattr__(self, "readout_pairs", tuple(map(_level_pair, readout)))

    @property
    def pi_time(self):
        return math.pi / self.rabi_freq


def _level_pair(pair):
    return tuple(int(index) for index in pair)


# The config of every call that passes none; a frozen config is safe to share.
_DEFAULT_CONFIG = ExperimentConfig()

_SEQUENCE_CONFIGS = {
    PSK: ExperimentConfig(couple_pair=(2, 6), readout_pairs=((3, 6), (2, 6))),
    ASK: ExperimentConfig(couple_pair=(0, 6), readout_pairs=((0, 6), (5, 7))),
}


def default_config(seq):
    """Frozen level assignment for a sequence's encoding."""
    return _SEQUENCE_CONFIGS[seq.encoding]


@dataclass(frozen=True)
class ReadoutResult:
    """Probabilities over (state0, state1, state2, leakage), plus the outcome
    run draws when given a seed (3 denotes leakage)."""

    probabilities: np.ndarray
    outcome: int = None


def init_state(config=None):
    """All amplitude on the configured ground sublevel."""
    return np.eye(DIM, dtype=complex)[(config or _DEFAULT_CONFIG).init_level]


def rf_unitary(theta, phi, noise=IDEAL, config=None, duration=None, detuning_hz=None):
    """Propagator of one rf pulse on the metastable block, or a stack of them.

    A negative rotation angle is driven as a positive-duration pulse about
    the opposite axis. The detuning enters as 2*pi*detuning*Jz alongside
    the (1 + amp_error)-scaled drive. The duration is theta/rabi_freq
    unless an explicit duration is given, in which case the drive amplitude
    is rescaled to produce the same rotation angle in that time; only a
    detuned pulse needs it.

    theta, phi, duration and detuning_hz (default: noise.detuning_hz) may
    be arrays with one value per pulse; they broadcast, and the (6, 6)
    propagators stack along their broadcast shape. Each pulse, resonant or
    not, is written in SU(2) (spin_algebra.su2_pulse) and factored as
    Rz(z) R(beta, phi'), so its propagator is the closed-form rotation()
    R(beta, phi') followed by a precession about z; a resonant pulse has
    z = 0 and equals Rz(phi) Rx(theta * (1 + amp_error)) Rz(-phi) up to
    rounding. This is the matrix of the update the interpreter applies to
    each row for a whole laser-free block. run and the scans build no such
    matrix; this is the single-pulse propagator for callers and tests.
    """
    if detuning_hz is None:
        detuning_hz = noise.detuning_hz
    if duration is None:
        duration = np.abs(theta) / (config or _DEFAULT_CONFIG).rabi_freq
    return _spin_image(_drive(theta, phi, duration, noise, detuning_hz))


def _spin_image(element):
    """Six-level spin image of SU(2) elements (a, b), a (..., 6, 6) stack.

    It is Rz(z) R(beta, phi): the resonant rotation, then a precession
    about z. The interpreter applies a block to its rows without building
    this matrix (spin_algebra.su2_apply); this is the matrix rf_unitary
    returns and the tests' reference.
    """
    beta, phi, z = su2_factors(*element)
    return np.exp(-1j * np.multiply.outer(z, _M6))[..., None] * rotation(D_DIM, beta, phi)


def _laser_angle(noise):
    """Two-level rotation angle of a pi-swap that transfers 1 - laser_pi_error."""
    return 2.0 * math.asin(math.sqrt(1.0 - noise.laser_pi_error))


def apply_laser_pi(state, pair, noise=IDEAL):
    """Population swap of the pair; with error p, a fraction p stays behind.

    pair is a (metastable, ground) index tuple. The imperfect swap is
    unitary: the transfer probability is 1 - p, so applying it twice is
    the identity on populations only in the ideal case. state may be one
    state or a batch of them along its leading axes; the last axis is the
    level index. The swap is the two_level_rotation of the pair over that
    axis; a new array is returned and state is left unchanged. It is what
    a laser pulse of theta = pi and phi = 0, as in every built-in table,
    does in a pulse program; the interpreter applies each laser pulse by
    its own theta and phi.
    """
    return two_level_rotation(state, pair, _laser_angle(noise))


class _Segment(NamedTuple):
    """One step of a compiled pulse program: an optional swap, then a drive.

    pair is the (metastable, ground) pair a laser pulse rotates at the
    segment's start, or None, and swap is (theta / pi, phi) of that pulse:
    its share of a pi-swap and its phase. The drive then rotates the spin
    block by the nominal angle about the equatorial axis phi over duration
    seconds; angle 0 is free precession. Each drive number is a scalar or
    one value per grid point.
    """

    duration: object
    angle: object = 0.0
    phi: object = 0.0
    pair: tuple = None
    swap: tuple = None


def _compile(seq, config, signal_angles):
    """The pulse program as segments, for a scalar or an array of signal angles.

    This is the only place that knows the program's rules: a free gap
    between consecutive pulses, each in-sequence laser pulse on the couple
    pair with its own theta and phi, followed by its laser time, oracle
    resolution, and a drive time of |theta| / rabi_freq for every rf and
    oracle pulse.
    """
    segments = []
    for n, pulse in enumerate(seq.pulses):
        if n > 0 and config.pulse_gap_s > 0.0:
            segments.append(_Segment(config.pulse_gap_s))
        if pulse.channel == LASER:
            segments.append(_Segment(config.laser_time_s, pair=config.couple_pair,
                                     swap=(pulse.theta / math.pi, pulse.phi)))
            continue
        theta, phi = pulse.theta, pulse.phi
        if pulse.channel == ORACLE:
            theta, phi = resolve_oracle_pulse(pulse, seq.encoding, signal_angles)
        segments.append(_Segment(np.abs(theta) / config.rabi_freq, theta, phi))
    return segments


def _propagate(states, segments, noise, detuning_hz, dim=D_DIM, record=None):
    """Apply compiled segments to an (N, dim + grounds) batch, which it overwrites.

    The first dim entries of each row are the spin block; detuning_hz is a
    scalar or one value per row. Every drive's SU(2) element comes first,
    from _drives. The drives between two swaps then multiply, and each
    such block acts once, before the next swap and at the end, as the
    spin-J image that spin_algebra.su2_apply writes on the rows for both
    dims. Each laser pulse is the two_level_rotation of its pair by
    _laser_angle(noise) * (theta / pi) about phi, its own theta and phi;
    at theta = pi, where theta / pi is exactly 1.0, and phi = 0 that is
    apply_laser_pi bit for bit. The six-level block takes the noisy
    drives; the ideal two-level reduction (dim = 2) passes IDEAL. Given a
    list as record, it appends one pair per segment, before the segment's
    drive: a copy of the batch at the start of the segment's block, after
    any swap, and the block's element so far, or None.
    """
    block = None
    for segment, pulse in zip(segments, _drives(segments, noise, detuning_hz, len(states))):
        if segment.pair is not None:
            _apply_block(states, block, dim)
            share, phi = segment.swap
            states = two_level_rotation(states, segment.pair, _laser_angle(noise) * share, phi)
            block = None
        if record is not None:
            record.append((states.copy(), block))
        block = pulse if block is None else su2_product(pulse, block)
    _apply_block(states, block, dim)
    return states


def _drives(segments, noise, detuning_hz, rows):
    """The SU(2) element of every segment's drive, in order, from at most two batches.

    A segment is fixed when its angle, phi and duration are scalars and
    the detuning is one scalar. The fixed drives are one (S_fixed,) batch
    whose elements come back as Python complex numbers, so a run of them
    folds in plain complex arithmetic. The others take one value per row
    and are one (S_rows, rows) batch, each element a row of it. An element
    is the one _drive gives its segment alone: the same elementwise
    operations on the same float64 values. Every value is read as a
    float64 first, so a Fraction or int field acts as the float it rounds
    to.
    """
    detuning_hz = np.asarray(detuning_hz, dtype=float)
    varies = [detuning_hz.ndim > 0 or isinstance(segment.angle, np.ndarray)
              or isinstance(segment.phi, np.ndarray) or isinstance(segment.duration, np.ndarray)
              for segment in segments]
    drives = [None] * len(segments)
    for per_row in (False, True):
        batch = [n for n, flag in enumerate(varies) if flag is per_row]
        if batch:
            values = np.empty((3, len(batch)) + ((rows,) if per_row else ()))
            for i, n in enumerate(batch):
                values[0, i], values[1, i], values[2, i] = segments[n][:3]
            duration, angle, phi = values
            a, b = _drive(angle, phi, duration, noise, detuning_hz)
            for n, element in zip(batch, zip(a, b) if per_row else zip(a.tolist(), b.tolist())):
                drives[n] = element
    return drives


def _drive(angle, phi, duration, noise, detuning_hz):
    """SU(2) element of a drive of the nominal angle about phi over duration seconds.

    The arguments broadcast, so one call gives a batch of drives.
    """
    return su2_pulse(np.multiply(angle, 1.0 + noise.rf_amp_error), phi,
                     2.0 * math.pi * np.multiply(detuning_hz, duration))


def _apply_block(states, block, dim):
    """Overwrite the first dim entries of each row of states with the block's action.

    block is an SU(2) element (a, b), scalar or one per row, or None for
    no block. dim is 6 or 2, and spin_algebra.su2_apply writes the spin
    image's action on the rows: a real 6x6 row update in the eigenbasis of
    Jx, or the 2x2 element as a two-column update.
    """
    if block is not None:
        states[:, :dim] = su2_apply(states[:, :dim], *block)


@functools.lru_cache(maxsize=64)
def _readout_matrix(s, laser_angle, readout_pairs):
    """(4, 8) map from the 8 level populations to outcome probabilities.

    s is the spam error, laser_angle the deshelving swap's rotation angle.
    Right after each projection one side of the next laser pair is empty,
    so the swap moves population without interference and the whole
    cascade is linear in |psi|^2. Column k is the cascade run on all
    population in level k. The matrix is cached on exactly the inputs it
    depends on and shared, so it is read-only.
    """
    ground = np.isin(np.arange(DIM), S_LEVELS)
    pops = np.eye(DIM)
    rows = []
    for stage in range(3):
        if stage:
            pair = readout_pairs[stage - 1]
            # |U|^2 is symmetric, so the rotated identity's rows serve as its columns.
            pops = np.abs(two_level_rotation(np.eye(DIM), pair, laser_angle)) ** 2 @ pops
        rows.append((1.0 - s) * pops[ground].sum(axis=0) + s * pops[~ground].sum(axis=0))
        # Only a branch reported dark goes on: the true-dark one, and the
        # true-bright one with probability spam_error.
        pops = np.where(ground[:, None], s, 1.0 - s) * pops
    rows.append(pops.sum(axis=0))
    matrix = np.array(rows)
    matrix.flags.writeable = False
    return matrix


def sequential_readout(state, noise=IDEAL, config=None):
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
    outcome probabilities and draws no outcome (run does, given a seed); a
    state that is not finite or whose last axis is not 8 levels raises
    ValueError.
    """
    state = np.asarray(state)
    if state.shape[-1:] != (DIM,) or not np.isfinite(state).all():
        raise ValueError(f"state must be finite, with {DIM} levels last, got shape {state.shape}")
    return ReadoutResult(probabilities=_readout(state, noise, config or _DEFAULT_CONFIG))


def _readout(states, noise, config):
    """(..., 4) outcome probabilities of (..., 8) states: the cached matrix on |psi|^2.

    run and the scans read their states here without sequential_readout's
    input check. Their states are finite unless a drive angle or detuning
    phase overflowed float range, so probabilities that are not finite
    raise ValueError.
    """
    matrix = _readout_matrix(float(noise.spam_error), _laser_angle(noise), config.readout_pairs)
    probs = np.abs(states) ** 2 @ matrix.T
    if not np.isfinite(probs).all():
        raise ValueError("outcome probabilities must be finite, but the states or their "
                         "populations overflow float range")
    return probs


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
    of them through the one segment loop.
    """
    detuning = noise.detuning_hz if detunings_hz is None else detunings_hz
    segments = _compile(seq, config, signal_angles)
    states = np.tile(init_state(config), (np.broadcast(signal_angles, detuning).size, 1))
    states = _propagate(states, segments, noise, detuning)
    return _apply_leakage(_readout(states, noise, config), noise,
                          sum(segment.duration for segment in segments))


def run(seq, oracle_index, noise=IDEAL, config=None, candidate_angles=DESIGN_ANGLES,
        seed=None):
    """Initialize, apply the full pulse program, and read out.

    With ideal noise every oracle index of the built-in sequences lands on
    readout_map[oracle_index] deterministically (to the precision of the
    stored pulse angles). Given a seed (an integer >= 0), one outcome is
    drawn from the returned probabilities, leakage included.
    """
    config = config or default_config(seq)
    oracle = OracleSpec(seq.encoding, tuple(candidate_angles), oracle_index)
    probs = _evaluate(seq, config, noise, np.array([oracle.hidden_angle]))[0]
    if seed is None:
        return ReadoutResult(probabilities=probs)
    rng = np.random.default_rng(check_int("seed", seed, minimum=0))
    return ReadoutResult(probabilities=probs, outcome=int(rng.choice(4, p=probs / probs.sum())))


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
    signal_angle = finite_array("signal_angle", signal_angle)
    # In the reduced space the laser couples qubit level 0 to the ground slot 2.
    segments = [segment if segment.pair is None else segment._replace(pair=(0, 2))
                for segment in _compile(seq, config, signal_angle.ravel())]
    states = np.tile(np.eye(3, dtype=complex)[2], (signal_angle.size, 1))
    pops = np.abs(_propagate(states, segments, IDEAL, 0.0, dim=2)) ** 2
    mirror = int(config.readout_pairs[0][0] != config.couple_pair[0])
    return pops[:, [2, mirror, 1 - mirror]].reshape(signal_angle.shape + (3,))


def time_series(seq, oracle_index, n_points, config=None, noise=IDEAL,
                candidate_angles=DESIGN_ANGLES):
    """Readout-state populations versus evolution time.

    The compiled program is evaluated at n_points (an integer >= 2) evenly
    spaced times. Each time has run the segments it has started: whole
    once they have ended, and the last one only as far as it has reached.
    A laser swap acts at the start of its segment. The program is walked
    once, on one row, recording each segment's block-start state and
    block so far; each time then takes its last started segment's record,
    and all times are finished in one batch. Each row survives leakage
    with exp(-leakage_rate * t). Laser pulses are instantaneous by
    default, so the curves are piecewise smooth with steps at the shelving
    events; a pulse starting at a time point takes effect just after it.
    The final row is the whole program and equals run(). An empty program
    gives n_points rows at t = 0, each equal to run().

    Returns an (n_points, 4) array with columns (time, p0, p1, p2).
    """
    check_int("n_points", n_points, 2)
    config = config or default_config(seq)
    oracle = OracleSpec(seq.encoding, tuple(candidate_angles), oracle_index)
    # A leading empty segment is the last started one of a time that has started none.
    segments = [_Segment(0.0)] + _compile(seq, config, oracle.hidden_angle)
    record = []
    _propagate(init_state(config)[None], segments, noise, noise.detuning_hz, record=record)
    durations, angles, phis = np.array([segment[:3] for segment in segments], dtype=float).T
    ends = np.cumsum(durations)
    total = float(ends[-1])
    times = np.linspace(0.0, total, n_points)
    eps = 1e-15 * max(total, 1e-30)

    # The program's segments start where the previous one ends; at the end all have started.
    starts = np.concatenate([[0.0], ends[:-1]])
    started = (times - starts[1:, None] > eps) | (times >= total - eps)
    # The started segments are a prefix, so their count indexes the last one here.
    last = started.sum(axis=0)
    fractions = np.divide(times - starts[last], durations[last], out=np.ones(n_points),
                          where=times < ends[last] - eps)
    pulse = _drive(angles[last] * fractions, phis[last], durations[last] * fractions, noise,
                   float(noise.detuning_hz))
    prefix = np.array([(1.0, 0.0) if block is None else block for _, block in record]).T
    states = np.concatenate([state for state, _ in record])[last]
    _apply_block(states, su2_product(pulse, prefix[:, last]), D_DIM)
    probs = _apply_leakage(_readout(states, noise, config), noise, times)
    return np.column_stack([times, probs[:, :3]])


def angle_scan(seq, angles, config=None, noise=IDEAL, dim=6):
    """Readout populations as the oracle's signal angle sweeps a grid.

    dim=6 runs the full ion model; dim=2 runs the two-level reduction, which
    is noiseless in the sequence's default config, so it raises ValueError
    for a noise model other than IDEAL or a config other than None or
    default_config(seq). All grid points are evaluated together as one
    batch. angles is a 1-d grid or a scalar, which is one point; a grid of
    more dimensions raises ValueError. Returns an (n, 4) array with columns
    (angle, p0, p1, p2).
    """
    angles = finite_grid("angles", angles)
    if dim == 2:
        if noise != IDEAL:
            raise ValueError(f"dim=2 runs the noiseless two-level reduction, so noise must "
                             f"be IDEAL, got {noise!r}")
        if config not in (None, default_config(seq)):
            raise ValueError("dim=2 runs the two-level reduction in the sequence's default config, "
                             f"so config must be None or default_config(seq), got {config!r}")
        probs = run_qubit_reduction(seq, angles)
    elif dim == 6:
        probs = _evaluate(seq, config or default_config(seq), noise, angles)[:, :3]
    else:
        raise ValueError(f"unsupported dimension {dim}")
    return np.column_stack([angles, probs])


def detuning_scan(seq, detunings_hz, config=None, candidate_angles=DESIGN_ANGLES,
                  noise=IDEAL):
    """Minimum correct-identification probability over the candidate set.

    Every (detuning, candidate) pair is evaluated in one batch.
    detunings_hz is a 1-d grid or a scalar, which is one point. Returns an
    (n, 2) array with columns (detuning_hz, min_accuracy); other noise
    fields are taken from the supplied model.
    """
    config = config or default_config(seq)
    candidates = np.asarray(OracleSpec(seq.encoding, tuple(candidate_angles), 0)
                            .candidate_angles, dtype=float)
    if candidates.size > len(seq.readout_map):
        raise ValueError(f"candidate_angles has {candidates.size} angles, but the "
                         f"readout_map covers {len(seq.readout_map)}")
    detunings_hz = finite_grid("detunings_hz", detunings_hz)
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


def light_shift_isolation(shift_hz, times, config=None, start_level=5):
    """Rabi dynamics with the m = -1/2 sublevel shifted out of resonance.

    Shifting m = -1/2 (level 3) while driving from m = -5/2 pins the
    dynamics to the lowest two sublevels once the shift dominates the
    drive's ladder coupling; at zero shift this reduces to the free
    six-level curve. start_level is a metastable level 0-5; shift_hz and
    the times must be finite.

    Returns (times, populations) with populations of shape (n, 6).
    """
    if not is_index(start_level, range(D_DIM)):
        raise ValueError(f"start_level must be a metastable level 0-5, got {shown(start_level)}")
    check_real("shift_hz", shift_hz)
    config = config or _DEFAULT_CONFIG
    times = finite_array("times", times)
    h = config.rabi_freq * _J6.jx.copy()
    h[_SHIFTED_LEVEL, _SHIFTED_LEVEL] += 2.0 * math.pi * shift_hz
    psi = hermitian_propagator(h, times[:, None, None])[:, :, start_level]
    return times, np.abs(psi) ** 2
