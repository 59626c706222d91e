import numpy as np
import pytest

from conftest import trotter_propagator
from spinkey.ion_sim import ExperimentConfig, light_shift_isolation
from spinkey.spin_algebra import rotation, spin_operators

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def commutator(a, b):
    return a @ b - b @ a


def is_unitary(u, atol=1e-12):
    """Whether u is square with u^dag u = identity to the given tolerance."""
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    return np.allclose(u.conj().T @ u, np.eye(u.shape[0]), atol=atol)


def test_spin_half_is_pauli_over_two():
    ops = spin_operators(2)
    np.testing.assert_allclose(ops.jx, SX / 2, atol=1e-15)
    np.testing.assert_allclose(ops.jz, np.diag([0.5, -0.5]), atol=1e-15)


def test_spin_five_halves_jz_descending():
    ops = spin_operators(6)
    np.testing.assert_allclose(
        np.diag(ops.jz).real, [2.5, 1.5, 0.5, -0.5, -1.5, -2.5], atol=1e-14
    )


@pytest.mark.parametrize("dim", [2, 6])
def test_commutation_relations(dim):
    ops = spin_operators(dim)
    np.testing.assert_allclose(commutator(ops.jx, ops.jy), 1j * ops.jz, atol=1e-12)
    np.testing.assert_allclose(commutator(ops.jy, ops.jz), 1j * ops.jx, atol=1e-12)
    np.testing.assert_allclose(commutator(ops.jz, ops.jx), 1j * ops.jy, atol=1e-12)


@pytest.mark.parametrize("dim", [2, 6])
def test_hermiticity_and_ladder_structure(dim):
    ops = spin_operators(dim)
    for j in (ops.jx, ops.jy, ops.jz):
        np.testing.assert_allclose(j, j.conj().T, atol=1e-12)
    # Jx couples neighbors only.
    off = ops.jx - np.diag(np.diag(ops.jx, 1), 1) - np.diag(np.diag(ops.jx, -1), -1)
    np.testing.assert_allclose(off, 0, atol=1e-14)


def test_unsupported_dimension_rejected():
    with pytest.raises(ValueError, match="unsupported dimension"):
        spin_operators(3)


def test_operators_are_immutable():
    ops = spin_operators(6)
    with pytest.raises(ValueError):
        ops.jx[0, 0] = 1.0


def test_rotation_pi_about_x_is_minus_i_sigma_x():
    np.testing.assert_allclose(rotation(2, np.pi, 0.0), -1j * SX, atol=1e-13)


def test_full_turn_is_minus_identity_for_half_integer_spin():
    np.testing.assert_allclose(rotation(6, 2 * np.pi, 0.0), -np.eye(6), atol=1e-12)


def test_six_level_flip_is_antidiagonal():
    u = rotation(6, np.pi, 0.0)
    anti = np.fliplr(np.eye(6)).astype(bool)
    np.testing.assert_allclose(np.abs(u[anti]), 1.0, atol=1e-12)
    np.testing.assert_allclose(u[~anti], 0.0, atol=1e-12)


def test_rotation_determinant_and_unitarity():
    rng = np.random.default_rng(7)
    for _ in range(10):
        theta, phi = rng.uniform(-2 * np.pi, 2 * np.pi, 2)
        u2 = rotation(2, theta, phi)
        assert is_unitary(u2, atol=1e-12)
        assert abs(np.linalg.det(u2) - 1.0) < 1e-12
        assert is_unitary(rotation(6, theta, phi), atol=1e-12)


@pytest.mark.parametrize("dim", [2, 6])
def test_same_axis_rotations_add(dim):
    rng = np.random.default_rng(11)
    for _ in range(8):
        theta1, theta2, phi = rng.uniform(-np.pi, np.pi, 3)
        lhs = rotation(dim, theta1, phi) @ rotation(dim, theta2, phi)
        np.testing.assert_allclose(lhs, rotation(dim, theta1 + theta2, phi), atol=1e-10)


@pytest.mark.parametrize("dim", [2, 6])
def test_axis_angle_is_z_conjugated_x_rotation(dim):
    def rz(angle):
        """exp(2j * angle * Jz)."""
        return np.diag(np.exp(2j * angle * np.diag(spin_operators(dim).jz).real))

    rng = np.random.default_rng(13)
    for _ in range(8):
        theta, phi = rng.uniform(-np.pi, np.pi, 2)
        conj = rz(-phi / 2) @ rotation(dim, theta, 0.0) @ rz(phi / 2)
        np.testing.assert_allclose(rotation(dim, theta, phi), conj, atol=1e-10)


def test_propagator_matches_trotter_oracle_dim6():
    """light_shift_isolation's start column against the Trotter product of
    its two parts, the drive and the shift of m = -1/2."""
    config = ExperimentConfig()
    shift_hz = 440.0
    h_a = np.zeros((6, 6), dtype=complex)
    h_a[3, 3] = 2 * np.pi * shift_hz
    h_b = config.rabi_freq * spin_operators(6).jx
    t = config.pi_time
    reference = np.abs(trotter_propagator(h_a, h_b, t)[:, 5]) ** 2
    _, pops = light_shift_isolation(shift_hz, [t], config)
    np.testing.assert_allclose(pops[0], reference, atol=1e-8)
