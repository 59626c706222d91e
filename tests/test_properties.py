"""Property tests over random pulses, noise models and configurations.

Hypothesis draws the inputs; derandomize=True fixes the examples, so the
suite stays deterministic, and no example database is written.
"""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import expm

from spinkey import ion_sim
from spinkey.ion_sim import (
    S_LEVELS,
    ExperimentConfig,
    NoiseModel,
    _spin_image,
    angle_scan,
    default_config,
    rf_unitary,
    run,
    run_qubit_reduction,
    time_series,
)
from spinkey.protocols import (
    ASK,
    CHANNELS,
    LASER,
    ORACLE,
    PSK,
    RF,
    Pulse,
    PulseSequence,
    ask3_sequence,
    psk3_sequence,
)
from spinkey.qsp import qsp_unitary
from spinkey.spin_algebra import (
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
                              readout_pairs=base.readout_pairs,
                              oracle_fixed_length=draw(st.booleans()))
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


def random_sequences(channels=CHANNELS):
    """Pulse programs of either encoding: pulses from channels in any
    order, with any angles."""
    rows = st.lists(st.tuples(st.sampled_from(channels), angles, angles), min_size=1, max_size=6)
    return st.builds(_sequence, st.sampled_from((PSK, ASK)), rows)


# Configs with random timing and the default level assignment.
timings = st.builds(ExperimentConfig, _real(0.5, 2.0).map(lambda x: x * math.pi / 55e-6),
                    _real(0.0, 2e-5), _real(0.0, 1e-5), oracle_fixed_length=st.booleans())
# Any program as (sequence, signal angle, noise model, config); the laser
# and readout pairs are any (metastable, ground) pairs.
random_programs = st.tuples(
    random_sequences(), angles,
    st.builds(NoiseModel, _real(-2e3, 2e3), _real(-0.05, 0.05), _real(0.0, 1.0),
              _real(0.0, 1.0), _real(0.0, 1e3)),
    st.builds(replace, timings, init_level=st.sampled_from(S_LEVELS), couple_pair=level_pairs,
              readout_pairs=st.tuples(level_pairs, level_pairs)))


@SETTINGS
@given(random_programs)
def test_every_block_image_is_unitary(program):
    """Each laser-free block the interpreter applies, in run, time_series
    and the two-level reduction, is an SU(2) element, |a|^2 + |b|^2 = 1,
    and keeps the norm of every spin row, both to 1e-12."""
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
    for _, a, b, before, after in calls:
        np.testing.assert_allclose(np.abs(a) ** 2 + np.abs(b) ** 2, 1.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(after, before, rtol=0, atol=1e-12)


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
