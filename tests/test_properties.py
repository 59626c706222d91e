"""Property tests over random pulses, noise models and configurations.

Hypothesis draws the inputs; derandomize=True fixes the examples, so the
suite stays deterministic, and no example database is written.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from spinkey.ion_sim import (
    ExperimentConfig,
    NoiseModel,
    _spin_image,
    default_config,
    rf_unitary,
    run,
    time_series,
)
from spinkey.protocols import ask3_sequence, psk3_sequence
from spinkey.qsp import qsp_unitary
from spinkey.spin_algebra import rotation, su2_factors, su2_product, su2_pulse
from test_qsp import _plain_p

SETTINGS = settings(max_examples=40, derandomize=True, database=None, deadline=None)
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
