"""Angular momentum operators and unitary propagators for small spin spaces.

Supports the two processing spaces used by the discrimination protocols:
dim=2 (spin-1/2, J_i = sigma_i / 2) and dim=6 (spin-5/2, a six-level
metastable manifold). One rotation convention is used everywhere:

    rotation(dim, theta, phi) = expm(-1j * theta * (Jx cos(phi) + Jy sin(phi)))

so for dim=2 a rotation by theta about the axis at angle phi in the x-y
plane equals exp(-1j * (theta/2) * sigma_phi).

Unitaries are plain complex numpy arrays. Propagators are built from the
eigendecomposition of the Hermitian generator, which keeps them unitary to
rounding even for long evolution times. Rotations reuse one cached
eigendecomposition of Jx per dimension and accept arrays of angles, so a
whole batch of rotations costs a few array operations.
"""

from typing import NamedTuple

import numpy as np

SUPPORTED_DIMS = (2, 6)


class SpinOperators(NamedTuple):
    """Spin-J generators for a (2J+1)-dimensional space, J = (dim-1)/2."""

    dim: int
    jx: np.ndarray
    jy: np.ndarray
    jz: np.ndarray


_OPERATOR_CACHE = {}
_JX_EIGEN_CACHE = {}


def _m_values(dim):
    """Magnetic quantum numbers J, J-1, ..., -J (descending)."""
    j = (dim - 1) / 2.0
    return j - np.arange(dim)


def spin_operators(dim):
    """Construct the standard angular momentum matrices Jx, Jy, Jz.

    Parameters
    ----------
    dim : int
        Hilbert space dimension, 2 or 6.

    Returns
    -------
    SpinOperators
        Hermitian matrices with [Jx, Jy] = i Jz (and cyclic), and
        Jz = diag(J, J-1, ..., -J). For dim=2 this is sigma/2.
    """
    if dim not in SUPPORTED_DIMS:
        raise ValueError(f"unsupported dimension {dim}; expected one of {SUPPORTED_DIMS}")
    if dim in _OPERATOR_CACHE:
        return _OPERATOR_CACHE[dim]

    j = (dim - 1) / 2.0
    m = _m_values(dim)
    jz = np.diag(m).astype(complex)

    # J+ |j,m> = sqrt(j(j+1) - m(m+1)) |j,m+1>; m+1 sits at index k-1.
    jp = np.zeros((dim, dim), dtype=complex)
    for k in range(1, dim):
        jp[k - 1, k] = np.sqrt(j * (j + 1) - m[k] * (m[k] + 1))
    jm = jp.conj().T

    jx = (jp + jm) / 2.0
    jy = (jp - jm) / 2.0j
    for a in (jx, jy, jz):
        a.flags.writeable = False

    ops = SpinOperators(dim=dim, jx=jx, jy=jy, jz=jz)
    _OPERATOR_CACHE[dim] = ops
    return ops


def _expm_i_hermitian(h, t):
    """exp(-1j * h * t) for Hermitian h, via eigendecomposition."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def hermitian_propagator(h, t):
    """Unitary propagator exp(-1j * H * t) of a Hermitian generator.

    Parameters
    ----------
    h : array_like
        Hermitian matrix (checked to 1e-10).
    t : float
        Evolution time in the units conjugate to H.

    Returns
    -------
    np.ndarray
        Unitary matrix of the same shape.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"generator must be square, got shape {h.shape}")
    if not np.allclose(h, h.conj().T, atol=1e-10):
        raise ValueError("generator is not Hermitian to 1e-10")
    return _expm_i_hermitian(h, t)


def _jx_eigenbasis(dim):
    """Eigenvalues and real eigenvectors of Jx, computed once per dimension."""
    if dim not in _JX_EIGEN_CACHE:
        _JX_EIGEN_CACHE[dim] = np.linalg.eigh(spin_operators(dim).jx.real)
    return _JX_EIGEN_CACHE[dim]


def z_frame(u, phi):
    """Rz(phi) u Rz(-phi) with Rz(phi) = exp(-1j * phi * Jz), batched over phi.

    Entry (i, k) picks up the phase exp(-1j * phi * (m_i - m_k)); u and phi
    broadcast, with u's last two axes the matrix.
    """
    m = _m_values(u.shape[-1])
    phi = np.asarray(phi, dtype=float)[..., None, None]
    return u * np.exp(-1j * phi * (m[:, None] - m[None, :]))


def rotation(dim, theta, phi):
    """Rotation by angle theta about the equatorial axis at angle phi.

    Returns exp(-1j * theta * (Jx cos(phi) + Jy sin(phi))). For dim=2 this
    is exp(-1j * (theta/2) * sigma_phi); for dim=6 a theta=pi rotation maps
    populations |m> -> |-m> (six-level NOT), and theta=2*pi gives -identity
    because the spin is half-integer.

    Built as Rz(phi) Rx(theta) Rz(-phi) from the cached eigendecomposition
    of Jx. theta and phi may be arrays: they broadcast against each other
    and the result has their broadcast shape followed by (dim, dim).
    """
    w, v = _jx_eigenbasis(dim)
    theta = np.asarray(theta, dtype=float)[..., None]
    rx = (v * np.exp(-1j * theta * w)[..., None, :]) @ v.T
    return z_frame(rx, phi)


def two_level_rotation(dim, pair, theta, phase=0.0):
    """Rotation by theta between the levels pair = (i, k), identity elsewhere.

    The (i, k) block is [[c, -1j s e^(1j phase)], [-1j s e^(-1j phase), c]]
    with c = cos(theta/2) and s = sin(theta/2), so theta = pi swaps the two
    populations.
    """
    u = np.eye(dim, dtype=complex)
    i, k = pair
    c = np.cos(theta / 2.0)
    s = np.sin(theta / 2.0)
    u[i, i] = c
    u[k, k] = c
    u[i, k] = -1j * s * np.exp(1j * phase)
    u[k, i] = -1j * s * np.exp(-1j * phase)
    return u


def rotation_z(dim, angle):
    """Diagonal unitary exp(1j * angle * 2 * Jz).

    For dim=2 this equals exp(1j * angle * sigma_z), the phase operator that
    the signal-processing products interleave between signal rotations.
    Composes additively: rotation_z(a) @ rotation_z(b) = rotation_z(a + b).
    """
    if dim not in SUPPORTED_DIMS:
        raise ValueError(f"unsupported dimension {dim}; expected one of {SUPPORTED_DIMS}")
    return np.diag(np.exp(1j * angle * 2.0 * _m_values(dim))).astype(complex)


def is_unitary(u, atol=1e-12):
    """Whether u is square with u^dag u = identity to the given tolerance."""
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    return np.allclose(u.conj().T @ u, np.eye(u.shape[0]), atol=atol)


def commutator(a, b):
    return a @ b - b @ a
