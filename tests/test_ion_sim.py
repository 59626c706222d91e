import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from conftest import trotter_propagator
from spinkey import ion_sim
from spinkey.ion_sim import (
    ExperimentConfig,
    NoiseModel,
    angle_scan,
    apply_laser_pi,
    default_config,
    detuning_scan,
    init_state,
    light_shift_isolation,
    rabi_curve,
    rf_unitary,
    run,
    run_qubit_reduction,
    sequential_readout,
    time_series,
)
from spinkey.protocols import DESIGN_ANGLES, PSK, PulseSequence, ask3_sequence, psk3_sequence
from spinkey.spin_algebra import spin_operators, two_level_rotation

DESIGN = np.array(DESIGN_ANGLES)


def test_init_state_and_trivial_readout():
    state = init_state()
    assert abs(np.linalg.norm(state) - 1.0) < 1e-12
    assert abs(state[6]) == 1.0
    probs = sequential_readout(state).probabilities
    np.testing.assert_allclose(probs, [1, 0, 0, 0], atol=1e-12)


def test_init_state_is_a_new_array_on_each_call():
    # The default config is shared between calls; the state it gives is not.
    init_state()[6] = 0.0
    assert init_state()[6] == 1.0


def test_pi_pulse_mirrors_population():
    state = np.zeros(8, dtype=complex)
    state[4] = 1.0  # m = -3/2
    u = rf_unitary(math.pi, 0.0)
    # The pulse acts on the metastable block only.
    assert u.shape == (6, 6)
    out = u @ state[:6]
    assert abs(out[1]) ** 2 > 1 - 1e-10  # m = +3/2


def test_two_pi_pulse_preserves_populations():
    rng = np.random.default_rng(2)
    amps = rng.normal(size=6) + 1j * rng.normal(size=6)
    state = np.zeros(8, dtype=complex)
    state[:6] = amps / np.linalg.norm(amps)
    out = rf_unitary(2 * math.pi, 0.4) @ state[:6]
    np.testing.assert_allclose(np.abs(out) ** 2, np.abs(state[:6]) ** 2, atol=1e-10)


def test_detuned_pulse_matches_trotter_oracle():
    ops = spin_operators(6)
    config = ExperimentConfig()
    noise = NoiseModel(detuning_hz=1000.0)
    u = rf_unitary(math.pi, 0.0, noise, config)
    h_a = 2 * math.pi * 1000.0 * np.asarray(ops.jz)
    h_b = config.rabi_freq * np.asarray(ops.jx)
    reference = trotter_propagator(h_a, h_b, math.pi / config.rabi_freq)
    np.testing.assert_allclose(u, reference, atol=1e-8)
    # Transfer is degraded below unity.
    state = np.zeros(8, dtype=complex)
    state[4] = 1.0
    out = rf_unitary(math.pi, 0.0, noise, config) @ state[:6]
    assert abs(out[1]) ** 2 < 1.0 - 1e-6


def test_random_detuned_pulses_match_trotter():
    ops = spin_operators(6)
    config = ExperimentConfig()
    rng = np.random.default_rng(20)
    for _ in range(20):
        theta = rng.uniform(0.05, 2 * math.pi)
        phi = rng.uniform(0, 2 * math.pi)
        delta = rng.uniform(-2000, 2000)
        u = rf_unitary(theta, phi, NoiseModel(detuning_hz=delta), config)
        j_phi = math.cos(phi) * ops.jx + math.sin(phi) * ops.jy
        reference = trotter_propagator(
            2 * math.pi * delta * np.asarray(ops.jz),
            config.rabi_freq * np.asarray(j_phi),
            theta / config.rabi_freq,
        )
        np.testing.assert_allclose(u, reference, atol=1e-8)


def test_laser_swap_and_error_channel():
    config = default_config(psk3_sequence())
    state = init_state(config)
    swapped = apply_laser_pi(state, config.couple_pair)
    d_level = config.couple_pair[0]
    assert abs(swapped[d_level]) ** 2 > 1 - 1e-12
    twice = apply_laser_pi(swapped, config.couple_pair)
    np.testing.assert_allclose(np.abs(twice) ** 2, np.abs(state) ** 2, atol=1e-12)
    # Error leaves the stated population behind.
    noisy = apply_laser_pi(state, config.couple_pair, NoiseModel(laser_pi_error=0.002))
    assert abs(noisy[6]) ** 2 == pytest.approx(0.002, abs=1e-12)
    assert abs(np.linalg.norm(noisy) - 1.0) < 1e-12


def _two_level_matrix(pair, theta, phase=0.0):
    """The 8x8 rotation of two_level_rotation's docstring: the block
    [[c, -1j s e^(1j phase)], [-1j s e^(-1j phase), c]] on the pair, with
    c = cos(theta/2) and s = sin(theta/2), and the identity elsewhere."""
    i, k = pair
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    u = np.eye(8, dtype=complex)
    u[i, i] = u[k, k] = c
    u[i, k] = -1j * s * np.exp(1j * phase)
    u[k, i] = -1j * s * np.exp(-1j * phase)
    return u


@pytest.mark.parametrize("shape", [(8,), (5, 8), (2, 5, 8)])
def test_laser_swap_is_the_two_level_rotation(shape):
    """apply_laser_pi, and two_level_rotation with any phase, on one state
    or any batch equal the 8x8 two-level rotation of the pair, and leave
    their input unchanged."""
    rng = np.random.default_rng(3)
    state = rng.uniform(-1.0, 1.0, shape) + 1j * rng.uniform(-1.0, 1.0, shape)
    before = state.copy()
    for pair, noise in (((2, 6), NoiseModel()), ((0, 7), NoiseModel(laser_pi_error=0.3))):
        u = _two_level_matrix(pair, ion_sim._laser_angle(noise))
        np.testing.assert_allclose(apply_laser_pi(state, pair, noise), state @ u.T,
                                   rtol=0, atol=1e-15)
    for pair, theta, phase in (((4, 6), math.pi / 2.0, math.pi), ((7, 1), 2.3, -0.8)):
        np.testing.assert_allclose(two_level_rotation(state, pair, theta, phase),
                                   state @ _two_level_matrix(pair, theta, phase).T,
                                   rtol=0, atol=1e-15)
    np.testing.assert_array_equal(state, before)


def test_ideal_runs_are_deterministic():
    seq = psk3_sequence()
    for index in range(3):
        probs = run(seq, index).probabilities
        assert probs[seq.readout_map[index]] > 0.9999
    # Verbatim amplitude-keyed table: the printed processing angles are a
    # slightly off solver output, capping the six-level branch fidelity at
    # 0.99950 (frozen); the closed-form variant is exact.
    seq = ask3_sequence()
    values = [run(seq, i).probabilities[seq.readout_map[i]] for i in range(3)]
    np.testing.assert_allclose(values, [0.999500, 1.0, 0.999501], atol=2e-6)
    seq = ask3_sequence(exact=True)
    for index in range(3):
        assert run(seq, index).probabilities[seq.readout_map[index]] > 1 - 1e-9


def test_run_identity_matrix_invariant():
    for seq, tol in ((psk3_sequence(), 1e-4), (ask3_sequence(exact=True), 1e-9)):
        mat = np.array([run(seq, i).probabilities[:3] for i in range(3)])
        np.testing.assert_allclose(mat, np.eye(3), atol=tol)


def test_run_psk3_under_30hz_detuning():
    result = run(psk3_sequence(), 1, NoiseModel(detuning_hz=30.0))
    assert result.probabilities[1] > 0.99


def test_norm_preserved_under_unitary_noise():
    noise = NoiseModel(detuning_hz=25.0, rf_amp_error=0.01)
    seq = psk3_sequence()
    probs = run(seq, 2, noise).probabilities
    assert abs(probs.sum() - 1.0) < 1e-10


def test_sampled_readout_reproducible():
    r1 = run(psk3_sequence(), 2, seed=42)
    r2 = run(psk3_sequence(), 2, seed=42)
    assert r1.outcome == r2.outcome == 2


def test_sequential_readout_splits_and_leakage():
    config = default_config(psk3_sequence())
    lvl1, lvl2 = config.readout_pairs[0][0], config.readout_pairs[1][0]
    state = np.zeros(8, dtype=complex)
    state[lvl1] = state[lvl2] = 1 / math.sqrt(2)
    probs = sequential_readout(state, config=config).probabilities
    np.testing.assert_allclose(probs, [0, 0.5, 0.5, 0], atol=1e-12)
    # Population on a non-readout level is pure leakage.
    state = np.zeros(8, dtype=complex)
    state[5] = 1.0
    probs = sequential_readout(state, config=config).probabilities
    np.testing.assert_allclose(probs, [0, 0, 0, 1], atol=1e-12)


def test_readout_spam_flip():
    state = init_state()
    s = 0.002
    probs = sequential_readout(state, NoiseModel(spam_error=s)).probabilities
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert probs[0] == pytest.approx(1.0 - s, abs=2 * s * s)


def test_leakage_rate_scales_distribution():
    seq = psk3_sequence()
    clean = run(seq, 0).probabilities
    leaky = run(seq, 0, NoiseModel(leakage_rate=10.0)).probabilities
    assert leaky[0] < clean[0]
    assert leaky[3] > clean[3]
    assert abs(leaky.sum() - 1.0) < 1e-12


def test_noise_model_validation_and_preset():
    with pytest.raises(ValueError):
        NoiseModel(spam_error=1.5)
    preset = NoiseModel.lab()
    assert preset.laser_pi_error == 5e-4 and preset.spam_error == 2e-4


@pytest.mark.parametrize("field, bad", [
    ("leakage_rate", -1.0), ("leakage_rate", math.nan), ("leakage_rate", math.inf),
    ("detuning_hz", math.nan), ("detuning_hz", -math.inf),
    ("rf_amp_error", math.nan), ("rf_amp_error", -1.0), ("rf_amp_error", -3.0),
    ("spam_error", True),
])
def test_noise_model_rejects_bad_fields(field, bad):
    with pytest.raises(ValueError, match=field):
        NoiseModel(**{field: bad})


def test_detuning_scan_rejects_non_finite_detunings():
    for bad in ([0.0, math.nan], [math.inf], -math.inf):
        with pytest.raises(ValueError, match="detunings_hz"):
            detuning_scan(psk3_sequence(), bad)


@pytest.mark.parametrize("call, field", [
    (lambda: rabi_curve([0.0, 1e-5], -1), "start_level"),
    (lambda: rabi_curve([0.0, 1e-5], 9), "start_level"),
    (lambda: rabi_curve([0.0, 1e-5], 2.0), "start_level"),
    (lambda: rabi_curve([0.0, math.nan], 4), "times"),
    (lambda: light_shift_isolation(1e5, [math.inf]), "times"),
    (lambda: light_shift_isolation(math.nan, [0.0]), "shift_hz"),
    (lambda: angle_scan(psk3_sequence(), [0.0, math.nan]), "angles"),
    (lambda: angle_scan(psk3_sequence(), [math.inf], dim=2), "angles"),
    (lambda: time_series(psk3_sequence(), 1, 1), "n_points"),
    (lambda: time_series(psk3_sequence(), 1, 0), "n_points"),
    (lambda: time_series(psk3_sequence(), 1, -3), "n_points"),
    (lambda: time_series(psk3_sequence(), 1, 20.0), "n_points"),
    (lambda: run(psk3_sequence(), 0, candidate_angles=(math.nan, 1.0, 2.0)), "candidate_angles"),
    (lambda: detuning_scan(psk3_sequence(), [0.0, 5.0], candidate_angles=(0.0, math.inf, 2.0)),
     "candidate_angles"),
    (lambda: detuning_scan(psk3_sequence(), [0.0], candidate_angles=(0.0, 1.0, 2.0, 3.0)),
     "candidate_angles"),
    (lambda: time_series(psk3_sequence(), 0, 8, candidate_angles=(0.0, 1.0, math.nan)),
     "candidate_angles"),
    (lambda: run(psk3_sequence(), 1.5), "hidden_index"),
    (lambda: run(psk3_sequence(), True), "hidden_index"),
    (lambda: light_shift_isolation(0.0, [0.0], start_level=True), "start_level"),
    (lambda: run(psk3_sequence(), 0, seed=-1), "seed"),
    (lambda: run(psk3_sequence(), 0, seed=1.5), "seed"),
    (lambda: run(psk3_sequence(), 0, seed=True), "seed"),
    (lambda: run_qubit_reduction(psk3_sequence(), math.nan), "signal_angle"),
    (lambda: run_qubit_reduction(psk3_sequence(), [0.0, math.inf]), "signal_angle"),
    (lambda: sequential_readout(np.ones(3)), "state"),
    (lambda: sequential_readout(np.full((2, 8), math.nan)), "state"),
    (lambda: apply_laser_pi(init_state(), (9, 6)), "pair"),
    (lambda: apply_laser_pi(init_state(), (6, 6)), "pair"),
    (lambda: apply_laser_pi(init_state(), (2.0, 6)), "pair"),
], ids=["start_level-negative", "start_level-9", "start_level-float", "times-nan",
        "times-inf", "shift_hz", "angles-nan", "angles-inf-dim2",
        "n_points-1", "n_points-0", "n_points-negative", "n_points-float",
        "run-nan-angle", "detuning-scan-inf-angle", "detuning-scan-four-angles",
        "time-series-nan-angle",
        "run-fraction-index", "run-bool-index", "start_level-bool",
        "run-seed-negative", "run-seed-float", "run-seed-bool", "reduction-nan-angle",
        "reduction-inf-angle", "readout-three-levels", "readout-nan-state",
        "laser-pair-out-of-range", "laser-pair-repeated", "laser-pair-float"])
def test_rabi_and_angle_scans_reject_bad_inputs(call, field):
    with pytest.raises(ValueError, match=field):
        call()


def test_time_series_boundaries():
    seq = psk3_sequence()
    for index in range(3):
        table = time_series(seq, index, 24)
        np.testing.assert_allclose(table[0, 1:], [1, 0, 0], atol=1e-12)
        final = run(seq, index).probabilities[:3]
        np.testing.assert_allclose(table[-1, 1:], final, atol=1e-10)
        # Populations plus leakage stay normalized at every point.
        assert np.all(table[:, 1:].sum(axis=1) <= 1 + 1e-10)


def test_time_series_last_row_equals_run_with_leakage():
    """The last time point is the whole program, leakage included."""
    noise = NoiseModel(leakage_rate=200.0, spam_error=4e-4, laser_pi_error=1e-3,
                       rf_amp_error=-8e-4)
    detuned = replace(noise, detuning_hz=20.0)
    for seq in (psk3_sequence(), ask3_sequence()):
        base = default_config(seq)
        slow = replace(base, pulse_gap_s=7e-6, laser_time_s=3e-6)
        for config, model in ((base, noise), (slow, detuned)):
            for index in range(3):
                table = time_series(seq, index, 33, config=config, noise=model)
                final = run(seq, index, model, config).probabilities[:3]
                np.testing.assert_allclose(table[-1, 1:], final, rtol=0, atol=1e-12)


def test_time_series_of_an_empty_program_is_run_at_time_zero():
    seq = PulseSequence("empty", PSK, (), {0: 0, 1: 1, 2: 2})
    noise = NoiseModel(leakage_rate=200.0, spam_error=4e-4, laser_pi_error=1e-3)
    table = time_series(seq, 0, 3, noise=noise)
    assert table.shape == (3, 4)
    np.testing.assert_array_equal(table[:, 0], 0.0)
    np.testing.assert_array_equal(table[:, 1:], np.tile(run(seq, 0, noise).probabilities[:3],
                                                        (3, 1)))


@pytest.mark.parametrize("call, field", [
    (lambda: angle_scan(psk3_sequence(), [[0.1, 0.2]]), "angles"),
    (lambda: angle_scan(psk3_sequence(), [[0.1], [0.2]], dim=2), "angles"),
    (lambda: detuning_scan(psk3_sequence(), [[0.0, 1.0]]), "detunings_hz"),
], ids=["angles-2d", "angles-2d-dim2", "detunings-2d"])
def test_scans_refuse_grids_of_more_than_one_dimension(call, field):
    with pytest.raises(ValueError, match=field):
        call()


@pytest.mark.parametrize("kwargs, field", [
    ({"noise": NoiseModel(spam_error=0.3)}, "noise"),
    ({"config": ExperimentConfig(pulse_gap_s=1e-3)}, "config"),
    ({"noise": NoiseModel(spam_error=0.3), "config": ExperimentConfig(pulse_gap_s=1e-3)},
     "noise"),
    ({"config": default_config(ask3_sequence())}, "config"),
], ids=["noise", "config", "both", "other-sequence-config"])
def test_two_level_angle_scan_refuses_what_it_would_ignore(kwargs, field):
    # The two-level reduction is noiseless and runs in the sequence's default config.
    with pytest.raises(ValueError, match=field):
        angle_scan(psk3_sequence(), [0.3, 1.0], dim=2, **kwargs)


def test_two_level_angle_scan_takes_the_ideal_model_and_default_config():
    seq = ask3_sequence()
    np.testing.assert_array_equal(
        angle_scan(seq, [0.3, 1.0], default_config(seq), NoiseModel(), dim=2),
        angle_scan(seq, [0.3, 1.0], dim=2))


def test_a_scalar_grid_is_one_point():
    seq = psk3_sequence()
    for dim in (6, 2):
        np.testing.assert_array_equal(angle_scan(seq, 0.3, dim=dim),
                                      angle_scan(seq, [0.3], dim=dim))
    np.testing.assert_array_equal(detuning_scan(seq, 5.0), detuning_scan(seq, [5.0]))
    # The two-level reduction keeps its N-d grids.
    assert run_qubit_reduction(seq, np.zeros((2, 3))).shape == (2, 3, 3)


def test_angle_scan_identity_at_design_angles():
    for seq in (ask3_sequence(exact=True), psk3_sequence()):
        table = angle_scan(seq, DESIGN)
        np.testing.assert_allclose(table[:, 1:], np.eye(3), atol=1e-3)


def test_psk_scan_is_pi_periodic():
    seq = psk3_sequence()
    grid = np.linspace(0.1, 2.0, 7)
    base = angle_scan(seq, grid)
    shifted = angle_scan(seq, grid + np.pi)
    np.testing.assert_allclose(base[:, 1:], shifted[:, 1:], atol=1e-8)


def test_ask_scan_is_2pi_periodic():
    seq = ask3_sequence()
    grid = np.linspace(0.2, 2.2, 5)
    base = angle_scan(seq, grid)
    shifted = angle_scan(seq, grid + 2 * np.pi)
    np.testing.assert_allclose(base[:, 1:], shifted[:, 1:], atol=1e-8)


def test_qubit_reduction_agrees_at_design_angles_only():
    seq = ask3_sequence(exact=True)
    for index, angle in enumerate(DESIGN):
        two = run_qubit_reduction(seq, angle)
        six = run(seq, index).probabilities[:3]
        np.testing.assert_allclose(two, six, atol=1e-8)
    # Between the candidates the two spaces genuinely differ.
    mid = 1.0
    two = run_qubit_reduction(seq, mid)
    six = run(seq, 0, candidate_angles=(mid,)).probabilities[:3]
    assert np.max(np.abs(two - six)) > 0.01


def test_detuning_scan_shape_and_threshold():
    seq = psk3_sequence()
    grid = np.array([-30.0, -10.0, 0.0, 10.0, 30.0])
    table = detuning_scan(seq, grid)
    assert table.shape == (5, 2)
    assert table[2, 1] > 0.9999
    assert np.all(table[:, 1] >= 0.99)


def test_detuning_scan_asymmetry_is_small_but_nonzero():
    """No exact mirror symmetry exists for these pulse programs; the odd
    component of the minimum-accuracy curve is at the 1e-4 scale at the
    edge of the +-30 Hz budget window."""
    seq = psk3_sequence()
    table = detuning_scan(seq, np.array([-30.0, 30.0]))
    asym = abs(table[0, 1] - table[1, 1])
    assert 1e-6 < asym < 2e-4


def test_rabi_curve_transfer_and_return():
    config = ExperimentConfig()
    times = np.array([0.0, config.pi_time, 2 * config.pi_time])
    _, pops = rabi_curve(times, start_level=4, config=config)
    assert pops[0, 4] == pytest.approx(1.0, abs=1e-12)
    assert pops[1, 1] > 1 - 1e-10  # m = -3/2 -> +3/2 at 55 us
    assert pops[2, 4] > 1 - 1e-10  # and back at 110 us


def test_light_shift_zero_reduces_to_rabi():
    times = np.linspace(0, 110e-6, 31)
    _, shifted = light_shift_isolation(0.0, times)
    _, free = rabi_curve(times, start_level=5)
    np.testing.assert_allclose(shifted, free, atol=1e-10)


def test_light_shift_isolation_leakage_levels():
    config = ExperimentConfig()
    t_eff = math.pi / (config.rabi_freq * 0.5 * math.sqrt(5.0))
    times = np.linspace(0, t_eff, 200)
    # At the algorithm drive strength a 30 kHz shift is not yet isolating:
    # the computed leakage peaks near 0.45 (frozen from simulation).
    _, pops = light_shift_isolation(30e3, times, config=config)
    leak = 1.0 - pops[:, 5] - pops[:, 4]
    assert np.max(leak) == pytest.approx(0.446, abs=0.01)
    # At a servo-grade drive (250 us pi-time) the same shift isolates the
    # two-level subspace to within a few percent.
    slow = ExperimentConfig(rabi_freq=math.pi / 250e-6)
    t_eff = math.pi / (slow.rabi_freq * 0.5 * math.sqrt(5.0))
    _, pops = light_shift_isolation(30e3, np.linspace(0, t_eff, 200), config=slow)
    leak = 1.0 - pops[:, 5] - pops[:, 4]
    assert np.max(leak) <= 0.05


def test_light_shift_infinite_limit_is_two_level():
    config = ExperimentConfig()
    omega_eff = config.rabi_freq * 0.5 * math.sqrt(5.0)
    times = np.linspace(0, math.pi / omega_eff, 100)
    _, pops = light_shift_isolation(1e9, times, config=config)
    np.testing.assert_allclose(pops[:, 4], np.sin(omega_eff * times) ** 2, atol=1e-6)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(rabi_freq=0.0)
    assert ExperimentConfig().pi_time == pytest.approx(55e-6)


@pytest.mark.parametrize("fields, name", [
    ({"couple_pair": (9, 6)}, "couple_pair"),
    ({"couple_pair": (2, 3)}, "couple_pair"),
    ({"couple_pair": (6, 2)}, "couple_pair"),
    ({"couple_pair": (2.0, 6)}, "couple_pair"),
    ({"couple_pair": (2, 6, 7)}, "couple_pair"),
    ({"readout_pairs": ((3, 6), (2, 8))}, r"readout_pairs\[1\]"),
    ({"readout_pairs": ((-1, 6), (2, 6))}, r"readout_pairs\[0\]"),
    ({"readout_pairs": ((3, 6),)}, "readout_pairs"),
    ({"init_level": 2}, "init_level"),
    ({"init_level": 8}, "init_level"),
    ({"rabi_freq": math.nan}, "rabi_freq"),
    ({"rabi_freq": math.inf}, "rabi_freq"),
    ({"rabi_freq": 0.0}, "rabi_freq"),
    ({"pulse_gap_s": math.inf}, "pulse_gap_s"),
    ({"pulse_gap_s": -1e-5}, "pulse_gap_s"),
    ({"laser_time_s": math.nan}, "laser_time_s"),
    ({"laser_time_s": -1e-6}, "laser_time_s"),
    ({"couple_pair": (True, 6)}, "couple_pair"),
    ({"rabi_freq": True}, "rabi_freq"),
])
def test_config_rejects_bad_levels(fields, name):
    with pytest.raises(ValueError, match=name):
        ExperimentConfig(**fields)


def test_list_pairs_are_stored_as_int_tuples():
    config = ExperimentConfig(couple_pair=[np.int64(2), 6], readout_pairs=[[3, 6], (2, 6)])
    assert config == ExperimentConfig() and hash(config) == hash(ExperimentConfig())
    assert config.couple_pair == (2, 6) and config.readout_pairs == ((3, 6), (2, 6))
    assert all(type(i) is int for pair in (config.couple_pair, *config.readout_pairs)
               for i in pair)


def test_cached_readout_matrix_equals_a_fresh_build_and_is_read_only():
    config = ExperimentConfig(couple_pair=[0, 6], readout_pairs=[[0, 6], [5, 7]])
    noise = NoiseModel(laser_pi_error=3e-3, spam_error=2e-3)
    key = (noise.spam_error, ion_sim._laser_angle(noise), config.readout_pairs)
    cached = ion_sim._readout_matrix(*key)
    assert ion_sim._readout_matrix(*key) is cached
    np.testing.assert_array_equal(cached, ion_sim._readout_matrix.__wrapped__(*key))
    with pytest.raises(ValueError, match="read-only"):
        cached[0, 0] = 0.5
    state = np.random.default_rng(8).normal(size=8) + 0j
    state /= np.linalg.norm(state)
    np.testing.assert_array_equal(sequential_readout(state, noise, config).probabilities,
                                  np.abs(state) ** 2 @ cached.T)


def test_fractions_and_ints_give_what_their_floats_give():
    """Every entry point reads a Fraction or int field as the float it
    rounds to: a fixed drive, a drive with one value per row and the
    drives time_series cuts short all see the same float64 numbers."""
    exact = NoiseModel(detuning_hz=Fraction(1, 3), rf_amp_error=Fraction(1, 30),
                       leakage_rate=150)
    floats = NoiseModel(detuning_hz=1 / 3, rf_amp_error=1 / 30, leakage_rate=150.0)
    for seq in (psk3_sequence(), ask3_sequence()):
        base = default_config(seq)
        configs = [replace(base, pulse_gap_s=Fraction(1, 10 ** 6), laser_time_s=1),
                   replace(base, pulse_gap_s=1e-6, laser_time_s=1.0)]
        outputs = [[run(seq, 1, noise, config).probabilities,
                    time_series(seq, 2, 9, config, noise),
                    angle_scan(seq, DESIGN, config, noise),
                    detuning_scan(seq, [-20.0, 30.0], config, noise=noise)]
                   for noise, config in ((exact, configs[0]), (floats, configs[1]))]
        for got, expected in zip(*outputs):
            np.testing.assert_array_equal(got, expected)


def test_a_drive_beyond_float_range_is_refused():
    """A detuning phase 2*pi*detuning*duration beyond float range makes the
    states NaN; the probabilities are refused rather than returned."""
    seq = psk3_sequence()
    config = replace(default_config(seq), laser_time_s=1.0)
    noise = NoiseModel(detuning_hz=1e308)
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="must be finite"):
        run(seq, 1, noise, config)
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="must be finite"):
        time_series(seq, 1, 3, config, noise)
