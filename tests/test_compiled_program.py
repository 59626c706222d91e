"""The batched pulse-program interpreter against an independent reference.

The reference walks the program one grid point and one pulse at a time. It
builds every propagator with scipy.linalg.expm from the Hamiltonian the
NoiseModel and ExperimentConfig docstrings define, and reads out by
following each branch of the fluorescence cascade on amplitudes, without
assuming the cascade is linear in populations.
"""

import math
from dataclasses import replace

import numpy as np
from scipy.linalg import expm

from spinkey.ion_sim import (
    ExperimentConfig,
    NoiseModel,
    angle_scan,
    default_config,
    detuning_scan,
    rf_unitary,
    run,
    sequential_readout,
)
from spinkey.protocols import (
    DESIGN_ANGLES,
    LASER,
    ORACLE,
    PSK,
    ask3_sequence,
    psk3_sequence,
)
from spinkey.spin_algebra import spin_operators

J = spin_operators(6)


def _embed(u6):
    u = np.eye(8, dtype=complex)
    u[:6, :6] = u6
    return u


def _precession(detuning_hz, t):
    return _embed(expm(-2j * math.pi * detuning_hz * t * J.jz))


def _swap(pair, p_fail, theta=math.pi, phi=0.0):
    """A laser pulse of angle theta and phase phi on the pair: theta / pi of
    the pi-swap that transfers 1 - p_fail, about the axis at phi, as expm of
    its generator |i><k| e^(i phi) + h.c."""
    i, k = pair
    angle = 2.0 * math.asin(math.sqrt(1.0 - p_fail)) * theta / math.pi
    generator = np.zeros((8, 8), dtype=complex)
    generator[i, k], generator[k, i] = np.exp(1j * phi), np.exp(-1j * phi)
    return expm(-0.5j * angle * generator)


def _rf(theta, phi, noise, config, duration):
    if theta < 0:
        theta, phi = -theta, phi + math.pi
    if duration is None:
        duration = theta / config.rabi_freq
    if duration == 0.0:
        return np.eye(8)
    omega = theta / duration * (1.0 + noise.rf_amp_error)
    h = (2 * math.pi * noise.detuning_hz * J.jz
         + omega * (math.cos(phi) * J.jx + math.sin(phi) * J.jy))
    return _embed(expm(-1j * h * duration))


def _reference_state(seq, angle, noise, config):
    state = np.zeros(8, dtype=complex)
    state[config.init_level] = 1.0
    elapsed = 0.0
    for n, pulse in enumerate(seq.pulses):
        if n > 0 and config.pulse_gap_s > 0.0:
            state = _precession(noise.detuning_hz, config.pulse_gap_s) @ state
            elapsed += config.pulse_gap_s
        if pulse.channel == LASER:
            state = _swap(config.couple_pair, noise.laser_pi_error, pulse.theta, pulse.phi) @ state
            state = _precession(noise.detuning_hz, config.laser_time_s) @ state
            elapsed += config.laser_time_s
            continue
        theta, phi = pulse.theta, pulse.phi
        if pulse.channel == ORACLE:
            if seq.encoding == PSK:
                phi = angle + pulse.oracle_phase_offset
            else:
                theta = angle
        state = _rf(theta, phi, noise, config, None) @ state
        elapsed += abs(theta) / config.rabi_freq
    return state, elapsed


def _reference_readout(state, noise, config):
    s = noise.spam_error
    probs = np.zeros(4)
    branches = [(1.0, np.asarray(state, dtype=complex))]
    for stage in range(3):
        if stage:
            swap = _swap(config.readout_pairs[stage - 1], noise.laser_pi_error)
            branches = [(w, swap @ psi) for w, psi in branches]
        following = []
        for w, psi in branches:
            bright, dark = psi.copy(), psi.copy()
            bright[:6] = 0.0
            dark[6:] = 0.0
            p_bright, p_dark = np.vdot(bright, bright).real, np.vdot(dark, dark).real
            probs[stage] += w * ((1.0 - s) * p_bright + s * p_dark)
            following += [(w * s, bright), (w * (1.0 - s), dark)]
        branches = following
    probs[3] = sum(w * np.vdot(psi, psi).real for w, psi in branches)
    return probs


def _reference_run(seq, angle, noise, config):
    state, elapsed = _reference_state(seq, angle, noise, config)
    probs = _reference_readout(state, noise, config)
    probs[:3] *= math.exp(-noise.leakage_rate * elapsed)
    probs[3] = 1.0 - probs[:3].sum()
    return probs


def _cases():
    psk, ask = psk3_sequence(), ask3_sequence()
    lab = NoiseModel(rf_amp_error=1.5e-3, laser_pi_error=1e-3, spam_error=5e-4,
                     leakage_rate=150.0)
    slow = dict(pulse_gap_s=7e-6, laser_time_s=3e-6)
    return (
        (psk, default_config(psk), lab),
        (psk, replace(default_config(psk), **slow), replace(lab, detuning_hz=25.0)),
        (ask, replace(default_config(ask), **slow),
         replace(lab, detuning_hz=-15.0)),
        # Non-default level assignment: the psk3 levels under the ask3 table.
        (ask, ExperimentConfig(couple_pair=(2, 6), readout_pairs=((3, 6), (5, 7)), **slow),
         replace(lab, detuning_hz=10.0)),
        # Partial laser swaps with phases: each laser pulse turns by its own theta about phi.
        (_partial_lasers(psk), replace(default_config(psk), **slow),
         replace(lab, detuning_hz=-20.0)),
    )


def _partial_lasers(seq):
    """seq with its two laser pulses at (pi/2, 0.7) and (2.2, -1.3)."""
    angles = iter([(math.pi / 2.0, 0.7), (2.2, -1.3)])
    pulses = []
    for pulse in seq.pulses:
        if pulse.channel == LASER:
            theta, phi = next(angles)
            pulse = replace(pulse, theta=theta, phi=phi)
        pulses.append(pulse)
    return replace(seq, pulses=tuple(pulses))


def test_batched_programs_match_reference():
    grid = np.array([-2.7, -0.4, 0.0, 1.3, 3.9])  # negative angles drive the opposite axis
    detunings = np.array([-30.0, 0.0, 12.5])
    for seq, config, noise in _cases():
        table = angle_scan(seq, grid, config, noise)
        expected = [_reference_run(seq, a, noise, config)[:3] for a in grid]
        np.testing.assert_allclose(table[:, 1:], expected, rtol=0, atol=1e-12)

        for index, angle in enumerate(DESIGN_ANGLES):
            np.testing.assert_allclose(run(seq, index, noise, config).probabilities,
                                       _reference_run(seq, angle, noise, config),
                                       rtol=0, atol=1e-12)

        table = detuning_scan(seq, detunings, config, noise=noise)
        expected = [min(_reference_run(seq, angle, replace(noise, detuning_hz=d), config)
                        [seq.readout_map[i]] for i, angle in enumerate(DESIGN_ANGLES))
                    for d in detunings]
        np.testing.assert_allclose(table[:, 1], expected, rtol=0, atol=1e-12)


def test_batched_rows_equal_single_point_scans():
    rng = np.random.default_rng(3)
    for seq, config, noise in _cases():
        grid = rng.uniform(-4.0, 4.0, 6)
        single = np.vstack([angle_scan(seq, [a], config, noise) for a in grid])
        np.testing.assert_allclose(angle_scan(seq, grid, config, noise), single,
                                   rtol=0, atol=1e-13)
        single = np.vstack([angle_scan(seq, [a], dim=2) for a in grid])
        np.testing.assert_allclose(angle_scan(seq, grid, dim=2), single, rtol=0, atol=1e-13)
        detunings = rng.uniform(-40.0, 40.0, 4)
        single = np.vstack([detuning_scan(seq, [d], config, noise=noise) for d in detunings])
        np.testing.assert_allclose(detuning_scan(seq, detunings, config, noise=noise), single,
                                   rtol=0, atol=1e-13)


def test_readout_by_hand_on_basis_states():
    config = default_config(psk3_sequence())  # deshelve 3 <-> 6, then 2 <-> 6
    s, p = 0.01, 0.02

    def basis(level):
        state = np.zeros(8, dtype=complex)
        state[level] = 1.0
        return state

    cases = (
        # Bright; a misreport deshelves nothing into 6's place and loses it to
        # level 3, which stays dark through stage 2.
        (6, NoiseModel(spam_error=s), [1 - s, s * s, s * s * (1 - s), s * (1 - s) ** 2]),
        # Bright in every stage; each further stage needs one more misreport.
        (7, NoiseModel(spam_error=s), [1 - s, s * (1 - s), s * s * (1 - s), s ** 3]),
        (3, NoiseModel(laser_pi_error=p), [0, 1 - p, 0, p]),
        (2, NoiseModel(laser_pi_error=p), [0, 0, 1 - p, p]),
        (5, NoiseModel(spam_error=s, laser_pi_error=p), [s, s * (1 - s), s * (1 - s) ** 2,
                                                         (1 - s) ** 3]),
    )
    for level, noise, expected in cases:
        for readout in (sequential_readout(basis(level), noise, config).probabilities,
                        _reference_readout(basis(level), noise, config)):
            np.testing.assert_allclose(readout, expected, rtol=0, atol=1e-15)


def test_readout_is_linear_in_populations():
    rng = np.random.default_rng(11)
    noise = NoiseModel(spam_error=3e-3, laser_pi_error=2e-3)
    config = ExperimentConfig(couple_pair=(0, 6), readout_pairs=((0, 6), (5, 7)))

    def random_state():
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        return psi / np.linalg.norm(psi)

    def readout(state):
        return sequential_readout(state, noise, config).probabilities

    for _ in range(5):
        a, b = random_state(), random_state()
        # Coherences between levels do not matter: the amplitude-level walk agrees.
        np.testing.assert_allclose(readout(a), _reference_readout(a, noise, config),
                                   rtol=0, atol=1e-14)
        rephased = np.abs(a) * np.exp(1j * rng.uniform(0, 2 * np.pi, 8))
        np.testing.assert_allclose(readout(rephased), readout(a), rtol=0, atol=1e-15)
        w = rng.uniform()
        mixed = np.sqrt(w * np.abs(a) ** 2 + (1 - w) * np.abs(b) ** 2)
        np.testing.assert_allclose(readout(mixed), w * readout(a) + (1 - w) * readout(b),
                                   rtol=0, atol=1e-15)


def test_rf_propagators_match_expm():
    """One batch of rf propagators against expm of the pulse Hamiltonian:
    zero and nonzero detuning, negative theta, theta = 0 under detuning
    (the rotation axis along +z or -z), detuning far above the Rabi
    frequency, and an rf amplitude error."""
    noise = NoiseModel(rf_amp_error=0.03)
    config = ExperimentConfig()
    theta = np.array([math.pi, -math.pi / 2, 0.0, 0.0, 2.5, -4.0, 1.0, 0.3, 7.0, 0.0])
    phi = np.array([0.0, 0.7, 1.1, -2.0, 3.0, 0.2, -0.4, 5.5, 1.3, 0.9])
    detuning = np.array([0.0, 25.0, 40.0, -40.0, -1e5, 3e4, 0.0, -15.0, 2e3, 0.0])
    duration = np.where(theta == 0.0, config.pi_time, np.abs(theta) / config.rabi_freq)
    u = rf_unitary(theta, phi, noise, config, duration=duration, detuning_hz=detuning)
    assert u.shape == (theta.size, 6, 6)
    for k in range(theta.size):
        omega = theta[k] / duration[k] * (1.0 + noise.rf_amp_error)
        h = (2 * math.pi * detuning[k] * J.jz
             + omega * (math.cos(phi[k]) * J.jx + math.sin(phi[k]) * J.jy))
        np.testing.assert_allclose(u[k], expm(-1j * h * duration[k]), rtol=0, atol=1e-12)
        np.testing.assert_allclose(u[k].conj().T @ u[k], np.eye(6), rtol=0, atol=1e-12)
