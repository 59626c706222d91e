"""Property tests over random pulses, noise models and configurations.

Hypothesis draws the inputs; derandomize=True fixes the examples, so the
suite stays deterministic, and no example database is written.
"""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import expm

from spinkey import ion_sim
from spinkey.ion_sim import (
    IDEAL,
    S_LEVELS,
    ExperimentConfig,
    NoiseModel,
    _spin_image,
    angle_scan,
    apply_laser_pi,
    default_config,
    init_state,
    rabi_curve,
    rf_unitary,
    run,
    run_qubit_reduction,
    sequential_readout,
    time_series,
)
from spinkey.protocols import (
    ASK,
    CHANNELS,
    DESIGN_ANGLES,
    LASER,
    ORACLE,
    PSK,
    RF,
    OracleSpec,
    Pulse,
    PulseSequence,
    ask3_sequence,
    psk3_sequence,
)
from spinkey.qsp import qsp_unitary
from spinkey.spin_algebra import (
    _jx_eigenbasis,
    rotation,
    su2_apply,
    su2_factors,
    su2_matrix,
    su2_product,
    su2_pulse,
)
from test_acceptance import _mirror_image
from test_qsp import _plain_p

SETTINGS = settings(max_examples=40, derandomize=True, database=None, deadline=None)
SX = np.array([[0, 1], [1, 0]])
SY = np.array([[0, -1j], [1j, 0]])
SZ = np.diag([1, -1])
SEQUENCES = (psk3_sequence(), ask3_sequence(), ask3_sequence(exact=True))


def _real(low, high):
    return st.floats(low, high, allow_nan=False, allow_infinity=False)


def _matrix(element):
    a, b = element
    return np.array([[a, -np.conj(b)], [b, np.conj(a)]])


# A pulse as (angle, phi, z), z the precession angle of the detuning.
pulses = st.tuples(_real(-8.0, 8.0), _real(-7.0, 7.0), _real(-8.0, 8.0))
unit_phase = _real(-math.pi, math.pi).map(lambda t: complex(math.cos(t), math.sin(t)))
elements = st.one_of(
    pulses.map(lambda p: su2_pulse(*p)),
    unit_phase.map(lambda u: (0j, u)),  # |a| = 0: a pi rotation
    unit_phase.map(lambda u: (u, 0j)),  # |b| = 0: a precession about z
)


@SETTINGS
@given(pulses, pulses)
def test_su2_product_is_the_matrix_product(p, q):
    u, v = su2_pulse(*p), su2_pulse(*q)
    np.testing.assert_allclose(_matrix(su2_product(u, v)), _matrix(u) @ _matrix(v),
                               rtol=0, atol=1e-15)


@SETTINGS
@given(elements)
def test_factors_reproduce_the_element(element):
    beta, phi, z = su2_factors(*element)
    rz = np.diag([np.exp(-0.5j * z), np.exp(0.5j * z)])
    np.testing.assert_allclose(rz @ rotation(2, beta, phi), _matrix(element),
                               rtol=0, atol=1e-15)


@SETTINGS
@given(st.lists(st.tuples(_real(-7.0, 7.0), _real(-7.0, 7.0), _real(-2e4, 2e4),
                          st.booleans()), min_size=1, max_size=6),
       _real(-0.05, 0.05))
def test_composed_block_is_the_product_of_rf_unitaries(drives, amp_error):
    """A block of detuned (and some resonant) pulses, composed in SU(2) and
    lifted once, equals the product of the six-level pulse propagators."""
    noise = NoiseModel(rf_amp_error=amp_error)
    config = ExperimentConfig()
    block, product = None, np.eye(6)
    for theta, phi, detuning, resonant in drives:
        detuning = 0.0 if resonant else detuning
        duration = abs(theta) / config.rabi_freq
        pulse = su2_pulse(theta * (1.0 + amp_error), phi, 2.0 * math.pi * detuning * duration)
        block = pulse if block is None else su2_product(pulse, block)
        product = rf_unitary(theta, phi, noise, config, detuning_hz=detuning) @ product
    np.testing.assert_allclose(_spin_image(block), product, rtol=0, atol=1e-12)


@st.composite
def block_batches(draw):
    """An (N, 8) batch of random rows and a block: one element per row, or
    one scalar element for every row."""
    n = draw(st.integers(1, 6))
    values = draw(st.lists(_real(-1.0, 1.0), min_size=16 * n, max_size=16 * n))
    states = np.array(values).view(complex).reshape(n, 8)
    if draw(st.booleans()):
        return states, draw(elements)
    rows = draw(st.lists(elements, min_size=n, max_size=n))
    return states, tuple(np.array(column) for column in zip(*rows))


_ROWS = np.linspace(-1.0, 1.0, 48).view(complex).reshape(3, 8)


@SETTINGS
@given(block_batches())
@example((_ROWS.copy(), (0j, 1j)))  # |a| = 0, one block for every row
@example((_ROWS.copy(), (np.exp(1j * np.arange(3.0)), np.zeros(3, complex))))  # |b| = 0, per row
def test_six_level_block_acts_on_rows_as_its_spin_image(batch):
    """The interpreter's row-form update of a laser-free block equals the
    6x6 spin image applied to each row, leaves the ground levels alone and
    keeps each row's norm. On (N, 2) rows the same kernel is the 2x2
    element applied to each row."""
    states, block = batch
    pairs = states[:, 6:].copy()
    expected = states.copy()
    expected[:, :6] = (_spin_image(block) @ states[:, :6, None])[..., 0]
    norms = np.linalg.norm(states, axis=1)
    ion_sim._apply_block(states, block, ion_sim.D_DIM)
    np.testing.assert_allclose(states, expected, rtol=0, atol=1e-13)
    np.testing.assert_allclose(np.linalg.norm(states, axis=1), norms, rtol=0, atol=1e-13)
    expected = (su2_matrix(*np.broadcast_arrays(*block)) @ pairs[..., None])[..., 0]
    np.testing.assert_allclose(su2_apply(pairs, *block), expected, rtol=0, atol=1e-13)


@pytest.mark.parametrize("a, b", [(1, 0), (-1, 0), (1j, 0), (-1j, 0), (0, 1), (0, -1j),
                                  (0, np.exp(0.7j))],
                         ids=["a=1", "a=-1", "a=i", "a=-i", "|a|=0", "|a|=0-b=-i",
                              "|a|=0-b=phase"])
def test_six_level_phases_at_axis_elements(a, b):
    """su2_apply at the elements where its factors sit on a branch of arg:
    a diagonal element (b = 0) and a pure flip (|a| = 0)."""
    rows = _ROWS[:, :6].copy()
    element = (np.complex128(a), np.complex128(b))
    expected = (_spin_image(element) @ rows[..., None])[..., 0]
    np.testing.assert_allclose(su2_apply(rows, *element), expected, rtol=0, atol=1e-13)


phase_vectors = st.integers(1, 40).flatmap(
    lambda degree: st.lists(_real(-math.pi, math.pi), min_size=degree + 1, max_size=degree + 1))
signals = st.lists(st.one_of(st.sampled_from([-1.0, 1.0]), _real(-1.0, 1.0)),
                   min_size=1, max_size=8)


@SETTINGS
@given(phase_vectors, signals)
def test_qsp_product_is_an_su2_element_with_the_plain_polynomial(phases, a):
    u = qsp_unitary(phases, a)
    alpha, beta = u[:, 0, 0], u[:, 1, 0]
    np.testing.assert_array_equal(u[:, 0, 1], -np.conj(beta))
    np.testing.assert_array_equal(u[:, 1, 1], np.conj(alpha))
    np.testing.assert_allclose(np.abs(alpha) ** 2 + np.abs(beta) ** 2, 1.0, rtol=0, atol=1e-12)
    plain = [_plain_p(phases, x) for x in a]
    np.testing.assert_allclose(alpha, plain, rtol=0, atol=1e-12)


@st.composite
def programs(draw):
    """A built-in sequence, an oracle index, a valid noise model and config."""
    seq = draw(st.sampled_from(SEQUENCES))
    noise = NoiseModel(detuning_hz=draw(_real(-100.0, 100.0)),
                       rf_amp_error=draw(_real(-0.05, 0.05)),
                       laser_pi_error=draw(_real(0.0, 1.0)),
                       spam_error=draw(_real(0.0, 1.0)),
                       leakage_rate=draw(_real(0.0, 1e3)))
    base = default_config(seq)
    config = ExperimentConfig(rabi_freq=base.rabi_freq * draw(_real(0.5, 2.0)),
                              pulse_gap_s=draw(_real(0.0, 2e-5)),
                              laser_time_s=draw(_real(0.0, 1e-5)),
                              couple_pair=base.couple_pair,
                              readout_pairs=base.readout_pairs)
    return seq, draw(st.integers(0, 2)), noise, config


@SETTINGS
@given(programs())
def test_probabilities_are_a_distribution(program):
    seq, index, noise, config = program
    probs = run(seq, index, noise, config).probabilities
    assert probs.shape == (4,)
    assert np.all(probs >= 0.0) and np.all(probs <= 1.0 + 1e-12), probs
    assert abs(probs.sum() - 1.0) <= 1e-12, probs.sum()


@SETTINGS
@given(programs(), st.integers(2, 40))
def test_time_series_ends_at_run(program, n_points):
    seq, index, noise, config = program
    table = time_series(seq, index, n_points, config, noise)
    np.testing.assert_allclose(table[-1, 1:], run(seq, index, noise, config).probabilities[:3],
                               rtol=0, atol=1e-12)


angles = _real(-7.0, 7.0)
level_pairs = st.tuples(st.integers(0, 5), st.sampled_from(S_LEVELS))


def _sequence(encoding, rows):
    # A pulse reads phi or oracle_phase_offset, never both, so one draw serves both.
    pulses = tuple(Pulse(n + 1, channel, channel, theta, phi, oracle_phase_offset=phi)
                   for n, (channel, theta, phi) in enumerate(rows))
    return PulseSequence("random", encoding, pulses, {0: 0, 1: 1, 2: 2})


def random_sequences(channels=CHANNELS, max_pulses=6):
    """Pulse programs of either encoding: pulses from channels in any
    order, with any angles."""
    rows = st.lists(st.tuples(st.sampled_from(channels), angles, angles), min_size=1,
                    max_size=max_pulses)
    return st.builds(_sequence, st.sampled_from((PSK, ASK)), rows)


# Configs with random timing and the default level assignment.
timings = st.builds(ExperimentConfig, _real(0.5, 2.0).map(lambda x: x * math.pi / 55e-6),
                    _real(0.0, 2e-5), _real(0.0, 1e-5))
# Any program as (sequence, signal angle, noise model, config); the laser
# and readout pairs are any (metastable, ground) pairs.
noise_models = st.builds(NoiseModel, _real(-2e3, 2e3), _real(-0.05, 0.05), _real(0.0, 1.0),
                         _real(0.0, 1.0), _real(0.0, 1e3))
level_configs = st.builds(replace, timings, init_level=st.sampled_from(S_LEVELS),
                          couple_pair=level_pairs,
                          readout_pairs=st.tuples(level_pairs, level_pairs))
random_programs = st.tuples(random_sequences(), angles, noise_models, level_configs)


def _per_row_time_series(seq, index, n_points, config, noise, candidate_angles):
    """time_series by the rule of running every segment on every row: each
    segment scaled by the row's fraction of it (1 once it has ended, 0
    before it starts), and its swap on the rows that have started it."""
    oracle = OracleSpec(seq.encoding, tuple(candidate_angles), index)
    segments = ion_sim._compile(seq, config, oracle.hidden_angle)
    durations = np.array([segment.duration for segment in segments], dtype=float)
    ends = np.cumsum(durations)
    total = float(ends[-1])
    times = np.linspace(0.0, total, n_points)
    eps = 1e-15 * max(total, 1e-30)
    starts = np.concatenate([[0.0], ends[:-1]])[:, None]
    started = (times - starts > eps) | (times >= total - eps)
    inside = started & (times < ends[:, None] - eps)
    fractions = np.divide(times - starts, durations[:, None], out=started.astype(float),
                          where=inside)
    states = np.tile(init_state(config), (n_points, 1))
    block = None
    for segment, f, reached in zip(segments, fractions, started):
        if segment.pair is not None:
            if block is not None:
                states[:, :6] = su2_apply(states[:, :6], *block)
            states = np.where(reached[:, None], apply_laser_pi(states, segment.pair, noise),
                              states)
            block = None
        pulse = su2_pulse(segment.angle * f * (1.0 + noise.rf_amp_error), segment.phi,
                          2.0 * math.pi * noise.detuning_hz * segment.duration * f)
        block = pulse if block is None else su2_product(pulse, block)
    if block is not None:
        states[:, :6] = su2_apply(states[:, :6], *block)
    probs = ion_sim._apply_leakage(sequential_readout(states, noise, config).probabilities,
                                   noise, times)
    return np.column_stack([times, probs[:, :3]])


@SETTINGS
@given(st.one_of(programs().map(lambda p: p + (DESIGN_ANGLES,)),
                 random_programs.map(lambda p: (p[0], 0, p[2], p[3], (p[1],)))),
       st.integers(2, 241))
def test_time_series_is_the_per_row_rule(program, n_points):
    """Walking the program once and finishing each time point from its last
    started segment gives every row what running every segment on it does."""
    seq, index, noise, config, candidates = program
    table = time_series(seq, index, n_points, config, noise, candidates)
    expected = _per_row_time_series(seq, index, n_points, config, noise, candidates)
    np.testing.assert_array_equal(table[:, 0], expected[:, 0])
    np.testing.assert_allclose(table[:, 1:], expected[:, 1:], rtol=0, atol=1e-13)


@SETTINGS
@given(random_programs)
def test_every_block_image_is_unitary(program):
    """Each laser-free block the interpreter applies, in run, time_series
    and the two-level reduction, is an SU(2) element, |a|^2 + |b|^2 = 1,
    and keeps the norm of every spin row, both to 1e-12. Applied to a
    seeded random full row, each element acts as its matrix, su2_matrix
    for two levels and _spin_image for six, also to 1e-12: a row with one
    level empty keeps its norm under a wrong sign too."""
    seq, signal, noise, config = program
    calls = []

    def recording(states, a, b):
        out = su2_apply(states, a, b)
        calls.append((states.shape[-1], a, b, np.linalg.norm(states, axis=-1),
                       np.linalg.norm(out, axis=-1)))
        return out

    with mock.patch.object(ion_sim, "su2_apply", recording):
        run(seq, 0, noise, config, candidate_angles=(signal,))
        time_series(seq, 0, 5, config, noise, candidate_angles=(signal,))
        run_qubit_reduction(seq, signal)
    assert {dim for dim, *_ in calls} == {2, 6}
    rng = np.random.default_rng(0)
    for dim, a, b, before, after in calls:
        np.testing.assert_allclose(np.abs(a) ** 2 + np.abs(b) ** 2, 1.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(after, before, rtol=0, atol=1e-12)
        row = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        element = np.broadcast_arrays(a, b)
        image = su2_matrix(*element) if dim == 2 else _spin_image(element)
        np.testing.assert_allclose(su2_apply(row, a, b), image @ row, rtol=0, atol=1e-12)


@SETTINGS
@given(st.lists(angles, min_size=1, max_size=6), st.sampled_from((2, 6)),
       st.builds(NoiseModel, laser_pi_error=_real(0.0, 1.0), spam_error=_real(0.0, 1.0),
                 leakage_rate=_real(0.0, 1e3)),
       timings)
def test_psk_angle_scans_have_period_pi(grid, dim, noise, config):
    """Turning a phase-keyed pi pulse's axis by pi flips the sign of its
    SU(2) element. psk3 queries the oracle twice between its two lasers and
    twice after them, so the signs cancel before a swap could turn them
    into populations. This holds for resonant drives: a detuning or an
    amplitude error makes the turned oracle a different rotation."""
    seq = psk3_sequence()
    grid = np.array(grid)
    if dim == 2:  # the two-level reduction is noiseless and takes no config
        noise, config = IDEAL, None
    table = angle_scan(seq, grid, config, noise, dim)
    shifted = angle_scan(seq, grid + math.pi, config, noise, dim)
    np.testing.assert_allclose(table[:, 1:], shifted[:, 1:], rtol=0, atol=1e-12)


@SETTINGS
@given(random_programs)
def test_mirror_image_turns_minus_delta_into_plus_delta(program):
    """Detuning -delta on any program equals +delta on its mirror image
    (notes/decisions.md, 6b): every phi negated, metastable level i -> 5 - i,
    and a phase-keyed signal negated."""
    seq, signal, noise, config = program
    mirror_seq, mirror_config = _mirror_image(seq, config)
    mirror_signal = -signal if seq.encoding == PSK else signal
    minus = run(seq, 0, replace(noise, detuning_hz=-noise.detuning_hz), config,
                candidate_angles=(signal,))
    plus = run(mirror_seq, 0, noise, mirror_config, candidate_angles=(mirror_signal,))
    np.testing.assert_allclose(minus.probabilities, plus.probabilities, rtol=0, atol=1e-12)


@SETTINGS
@given(random_sequences((RF, ORACLE)), angles, timings, _real(-2e3, 2e3), _real(-0.05, 0.05),
       st.sampled_from((0, 5)))
def test_spin_coherent_branches_follow_the_p_to_the_2j_law(seq, signal, config, detuning_hz,
                                                           amp_error, level):
    """One laser loads an extreme level and no other swap follows, so the
    spin stays coherent: if the drives keep the matching spin-1/2 state
    with probability p, the loaded level keeps p^(2J) and its mirror level
    receives (1 - p)^(2J) (notes/decisions.md, 1b). p comes from expm of
    each drive's 2x2 generator."""
    seq = replace(seq, pulses=(Pulse(1, "Laser", LASER, math.pi, 0.0),) + seq.pulses)
    noise = NoiseModel(detuning_hz=detuning_hz, rf_amp_error=amp_error)
    config = replace(config, couple_pair=(level, 6), readout_pairs=((level, 6), (5 - level, 7)))
    u = np.eye(2)
    for segment in ion_sim._compile(seq, config, signal):
        angle = segment.angle * (1.0 + amp_error)
        z = 2.0 * math.pi * detuning_hz * segment.duration
        h = angle * (math.cos(segment.phi) * SX + math.sin(segment.phi) * SY) + z * SZ
        u = expm(-0.5j * h) @ u
    p = abs(u[level // 5, level // 5]) ** 2
    probs = run(seq, 0, noise, config, candidate_angles=(signal,)).probabilities
    spin_j = (ion_sim.D_DIM - 1) / 2
    np.testing.assert_allclose(probs[:3], [0.0, p ** (2 * spin_j), (1.0 - p) ** (2 * spin_j)],
                               rtol=0, atol=1e-12)


U = 2.0 ** -53  # the unit roundoff of float64


def _orthogonality_defect(v):
    """||V^H V - I||_2 of a computed eigenbasis V."""
    return np.linalg.norm(v.conj().T @ v - np.eye(len(v)), 2)


def _probability_bound(seq, config, noise, dim=6):
    """The rounding bound eps of notes/decisions.md ("Probabilities: the
    rounding bound"): how far a probability of run, time_series or
    angle_scan can leave [0, 1], from the swaps and drives of the program
    and the measured defects of the cached eigenbasis and readout matrix."""
    segments = ion_sim._compile(seq, config, 0.0)
    swaps = sum(segment.pair is not None for segment in segments)
    if dim == 2:
        return U * (46 * len(segments) + 12 * (swaps + 1) + 10 * swaps + 5)
    basis = _jx_eigenbasis(6)[1]
    block = U * (258 + 24 * math.sqrt(6)) + 2 * _orthogonality_defect(basis)
    matrix = ion_sim._readout_matrix(float(noise.spam_error), ion_sim._laser_angle(noise),
                                     config.readout_pairs)
    return block * (swaps + 1) + U * (10 * swaps + 14) + max(matrix.sum(axis=0).max() - 1, 0)


def _rabi_bound(config):
    """The rounding bound eps of a rabi_curve population, as _probability_bound."""
    basis = np.linalg.eigh(config.rabi_freq * ion_sim._J6.jx)[1]
    return U * (26 * math.sqrt(6) + 5) + 2 * _orthogonality_defect(basis)


@SETTINGS
@given(st.one_of(programs().map(lambda p: p + (DESIGN_ANGLES,)),
                 random_programs.map(lambda p: (p[0], 0, p[2], p[3], (p[1],)))),
       st.lists(angles, min_size=1, max_size=6), st.integers(2, 40),
       st.lists(_real(0.0, 1e-3), min_size=1, max_size=6), st.integers(0, 5))
@example((ask3_sequence(exact=True), 2, IDEAL, default_config(ask3_sequence()), DESIGN_ANGLES),
         [0.0], 2, [0.0], 4)  # state2 and the t = 0 population round to just above 1
@example((psk3_sequence(), 0, NoiseModel(detuning_hz=1e300), default_config(psk3_sequence()),
          DESIGN_ANGLES), [0.0], 2, [0.0], 4)  # state0 is 1 + 16u
def test_probabilities_stay_within_the_rounding_bound(program, grid, n_points, times, level):
    """Every probability of run, time_series, angle_scan (both dims) and
    rabi_curve lies in [-eps, 1 + eps], eps the derived rounding bound."""
    seq, index, noise, config, candidates = program
    eps = _probability_bound(seq, config, noise)
    eps2 = _probability_bound(seq, default_config(seq), IDEAL, dim=2)
    tables = [
        (eps, run(seq, index, noise, config, candidates).probabilities),
        (eps, time_series(seq, index, n_points, config, noise, candidates)[:, 1:]),
        (eps, angle_scan(seq, grid, config, noise)[:, 1:]),
        (eps2, angle_scan(seq, grid, dim=2)[:, 1:]),
        (_rabi_bound(ExperimentConfig()), rabi_curve(times, level)[1]),
    ]
    for bound, probs in tables:
        assert np.all(probs >= -bound) and np.all(probs <= 1.0 + bound), (bound, probs)


def _per_segment_propagate(states, segments, noise, detuning_hz, dim=6, record=None):
    """The segment loop with one su2_pulse per segment and a fold by
    np.conj: the reference for the drives _propagate computes in batches
    first."""
    def product(u, v):
        return u[0] * v[0] - np.conj(u[1]) * v[1], u[1] * v[0] + np.conj(u[0]) * v[1]

    block = None
    for segment in segments:
        if segment.pair is not None:
            ion_sim._apply_block(states, block, dim)
            states = apply_laser_pi(states, segment.pair, noise)
            block = None
        if record is not None:
            record.append((states.copy(), block))
        pulse = su2_pulse(segment.angle * (1.0 + noise.rf_amp_error), segment.phi,
                          2.0 * math.pi * np.multiply(detuning_hz, segment.duration))
        block = pulse if block is None else product(pulse, block)
    ion_sim._apply_block(states, block, dim)
    return states


# A built-in sequence, any signal angle and noise model, and its default config.
builtin_programs = st.tuples(st.sampled_from(SEQUENCES), angles, noise_models).map(
    lambda p: p + (default_config(p[0]),))


def _interpreter_outputs(seq, signal, noise, config):
    """Every entry point of the interpreter on one program: run, both angle
    scans, a detuning scan (one detuning per row), time_series (the
    record) and the two-level reduction."""
    grid = np.array([signal, signal + 0.5, -1.0])
    return [
        run(seq, 0, noise, config, candidate_angles=(signal,)).probabilities,
        angle_scan(seq, grid, config, noise),
        angle_scan(seq, grid, dim=2),
        ion_sim.detuning_scan(seq, np.array([-37.0, noise.detuning_hz, 410.0]), config,
                              candidate_angles=(signal, signal + 2.0), noise=noise),
        time_series(seq, 0, 9, config, noise, candidate_angles=(signal,)),
        run_qubit_reduction(seq, grid),
    ]


@SETTINGS
@given(st.one_of(random_programs, builtin_programs))
def test_batched_drives_are_bitwise_the_per_segment_drives(program):
    """Computing every drive in at most two batches, and folding fixed
    drives as Python complex numbers, changes no bit of any output."""
    batched = _interpreter_outputs(*program)
    with mock.patch.object(ion_sim, "_propagate", _per_segment_propagate):
        per_segment = _interpreter_outputs(*program)
    for got, expected in zip(batched, per_segment):
        np.testing.assert_array_equal(got, expected)


# Programs of up to 20 pulses, so with a pulse gap up to 39 segments.
long_programs = st.tuples(random_sequences(max_pulses=20), angles, noise_models, level_configs)


@SETTINGS
@given(st.one_of(long_programs, builtin_programs))
# 21 pulses and 20 gaps: 41 segments, with rf, oracle and laser pulses in turn.
@example((_sequence(ASK, [(RF, 1.0, 0.5), (ORACLE, 1.0, 0.0), (LASER, 1.0, 0.0)] * 7), 0.3,
          NoiseModel(detuning_hz=20.0), replace(ExperimentConfig(), pulse_gap_s=1e-6)))
def test_an_evaluation_takes_at_most_two_drive_batches(program):
    """One evaluation (run, an angle or detuning scan, the two-level
    reduction) calls su2_pulse at most twice, whatever its segment count:
    once for the fixed drives and once for those with one value per row.
    time_series adds one call for the drives it cuts short."""
    seq, signal, noise, config = program
    calls = mock.Mock(wraps=su2_pulse)
    grid = np.array([signal, 1.0])
    evaluations = [
        lambda: run(seq, 0, noise, config, candidate_angles=(signal,)),
        lambda: angle_scan(seq, grid, config, noise),
        lambda: angle_scan(seq, grid, dim=2),
        lambda: ion_sim.detuning_scan(seq, grid, config, candidate_angles=(signal,),
                                      noise=noise),
    ]
    with mock.patch.object(ion_sim, "su2_pulse", calls):
        for evaluate in evaluations:
            calls.reset_mock()
            evaluate()
            assert calls.call_count <= 2
        calls.reset_mock()
        time_series(seq, 0, 7, config, noise, candidate_angles=(signal,))
        assert calls.call_count <= 3
