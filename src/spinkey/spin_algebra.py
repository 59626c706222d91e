"""Angular momentum operators and unitary propagators for small spin spaces.

Supports the two processing spaces used by the discrimination protocols:
dim=2 (spin-1/2, J_i = sigma_i / 2) and dim=6 (spin-5/2, a six-level
metastable manifold). One rotation convention is used everywhere:

    rotation(dim, theta, phi) = expm(-1j * theta * (Jx cos(phi) + Jy sin(phi)))

so for dim=2 a rotation by theta about the axis at angle phi in the x-y
plane equals exp(-1j * (theta/2) * sigma_phi).

Unitaries are plain complex numpy arrays. Rotations are built from one
cached eigendecomposition of Jx per dimension, which keeps them unitary to
rounding even for large angles, and accept arrays of angles, so a whole
batch of rotations costs a few array operations.

Pulses also compose in SU(2) itself. su2_pulse gives the element (a, b)
of [[a, -conj(b)], [b, conj(a)]] for any pulse, resonant or detuned, in
closed form; su2_product multiplies two such elements; su2_matrix
writes them out as 2x2 matrices; su2_factors
writes an element as Rz(z) R(beta, phi), one equatorial rotation followed
by one precession about z. For half-integer spin the spin-J image of
SU(2) is a group homomorphism, so the same three numbers give the
six-level propagator of a whole product, sign included.

Two kernels act on state rows without building a matrix, for callers
that hold many states at once. su2_apply applies the spin-J image of SU(2)
elements to rows of dim 2 or 6; two_level_rotation rotates two entries
of each row into each other.
"""

import cmath
import math
from functools import cache
from typing import NamedTuple

import numpy as np

from ._checks import is_index

SUPPORTED_DIMS = (2, 6)


class SpinOperators(NamedTuple):
    """Spin-J generators for a (2J+1)-dimensional space, J = (dim-1)/2."""

    dim: int
    jx: np.ndarray
    jy: np.ndarray
    jz: np.ndarray


@cache
def _m_values(dim):
    """Magnetic quantum numbers J, J-1, ..., -J (descending), computed once per dimension."""
    j = (dim - 1) / 2.0
    return j - np.arange(dim)


@cache
def spin_operators(dim):
    """Construct the standard angular momentum matrices Jx, Jy, Jz, once per dimension.

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

    return SpinOperators(dim=dim, jx=jx, jy=jy, jz=jz)


# 2m for m = 5/2 ... -5/2, as integer phase powers.
_TWICE_M6 = np.array([5, 3, 1, -1, -3, -5])


@cache
def _jx_eigenbasis(dim):
    """Eigenvalues and real eigenvectors of Jx, computed once per dimension."""
    return np.linalg.eigh(spin_operators(dim).jx.real)


def rotation(dim, theta, phi):
    """Rotation by angle theta about the equatorial axis at angle phi.

    Returns exp(-1j * theta * (Jx cos(phi) + Jy sin(phi))). For dim=2 this
    is exp(-1j * (theta/2) * sigma_phi); for dim=6 a theta=pi rotation maps
    populations |m> -> |-m> (six-level NOT), and theta=2*pi gives -identity
    because the spin is half-integer.

    Built as Rz(phi) Rx(theta) Rz(-phi) from the cached eigendecomposition
    of Jx, with the diagonal Rz(phi) = exp(-1j * phi * Jz) applied to the
    rows and its inverse to the columns. theta and phi may be arrays: they
    broadcast against each other and the result has their broadcast shape
    followed by (dim, dim).
    """
    w, v = _jx_eigenbasis(dim)
    theta = np.asarray(theta, dtype=float)[..., None]
    rx = (v * np.exp(-1j * theta * w)[..., None, :]) @ v.T
    rz = np.exp(-1j * np.asarray(phi, dtype=float)[..., None] * _m_values(dim))
    return rz[..., :, None] * rx * rz.conj()[..., None, :]


def su2_pulse(angle, phi, z):
    """SU(2) element (a, b) of exp(-1j * (angle * (Jx cos(phi) + Jy sin(phi)) + z * Jz)).

    The element is the spin-1/2 matrix [[a, -conj(b)], [b, conj(a)]]. With
    r = hypot(angle, z) the pulse is cos(r/2) - 1j sin(r/2) n.sigma for the
    unit axis n = (angle cos(phi), angle sin(phi), z) / r, so
    a = cos(r/2) - 1j z sin(r/2)/r and b = -1j angle e^(1j phi) sin(r/2)/r.
    A negative angle turns about the opposite axis. The arguments
    broadcast.
    """
    r = np.hypot(angle, z)
    # sin(r/2) / r; at r = 0 both angle and z vanish, so any finite value does.
    s = np.sin(r / 2.0) / np.maximum(r, 1e-300)
    return np.cos(r / 2.0) - 1j * z * s, -1j * s * angle * np.exp(1j * phi)


def su2_product(u, v):
    """The SU(2) product u v of two (a, b) elements; v acts first.

    The entries are complex numbers or arrays. Conjugating by method keeps
    a product of two Python complex numbers a Python complex number.
    """
    return u[0] * v[0] - u[1].conjugate() * v[1], u[1] * v[0] + u[0].conjugate() * v[1]


def su2_matrix(a, b):
    """The matrix [[a, -conj(b)], [b, conj(a)]] of (a, b) elements of one shape.

    The (2, 2) axes come last, so (N,) arrays give an (N, 2, 2) stack.
    """
    return np.stack([np.stack([a, -np.conj(b)], -1), np.stack([b, np.conj(a)], -1)], -2)


def su2_factors(a, b):
    """(beta, phi, z) with [[a, -conj(b)], [b, conj(a)]] = Rz(z) R(beta, phi).

    R(beta, phi) = rotation(2, beta, phi) and Rz(z) = exp(-1j * z * Jz):
    beta = 2 atan2(|b|, |a|), phi = arg a + arg b + pi/2 and z = -2 arg a,
    with z in [-2 pi, 2 pi). The factorisation is exact in SU(2), not only
    up to sign, so for half-integer spin the spin-J image of the element is
    Rz(z) R(beta, phi) in that spin too. At |a| = 0 it takes z = 0, and at
    |b| = 0 beta = 0 makes phi immaterial.
    """
    arg_a = np.angle(a)
    return 2.0 * np.arctan2(np.abs(b), np.abs(a)), arg_a + np.angle(b) + np.pi / 2.0, -2.0 * arg_a


def su2_apply(states, a, b):
    """Rows of states under the spin-J image of the SU(2) elements (a, b).

    states has the spin levels along its last axis, dim 2 or 6; a and b
    are scalars or one value per leading index, and a new array is
    returned. For J = 1/2 the image is the element itself, so a row
    (psi0, psi1) becomes (a psi0 - conj(b) psi1, b psi0 + conj(a) psi1).
    For J = 5/2 it is D = Rz(z) Rz(phi) V e^(-i beta w) V^T Rz(-phi), with
    (beta, phi, z) the su2_factors and (w, V) the cached real eigenbasis
    of Jx, so a row psi becomes psi D^T: two real 6x6 matmuls and three
    diagonal phases, with no per-row matrix. Each phase vector e^(i x m)
    over m = 5/2 ... -5/2 is one half-angle exponential per row raised to
    the integer powers 2m; the eigenvalues w of Jx ascend, w = -m, so
    e^(-i beta w) is e^(i beta m).
    """
    if states.shape[-1] == 2:
        psi0, psi1 = states[..., 0], states[..., 1]
        return np.stack([a * psi0 - np.conj(b) * psi1, b * psi0 + np.conj(a) * psi1], -1)
    beta, phi, z = (np.asarray(x)[..., None] for x in su2_factors(a, b))
    v = _jx_eigenbasis(6)[1]
    psi = (states * np.exp(0.5j * phi) ** _TWICE_M6) @ v
    psi = (psi * np.exp(0.5j * beta) ** _TWICE_M6) @ v.T
    return psi * np.exp(-0.5j * (phi + z)) ** _TWICE_M6


def two_level_rotation(states, pair, theta, phase=0.0):
    """Rows of states rotated by theta between the levels pair = (i, k).

    The levels run along the last axis of states, one state or a batch;
    a new array is returned. The pair's two entries of each row are
    multiplied by the block [[c, -1j s e^(1j phase)], [-1j s e^(-1j phase), c]]
    with c = cos(theta/2) and s = sin(theta/2), and every other entry is
    left alone, so theta = pi swaps the two populations. pair must be two
    distinct indices of the last axis.
    """
    out = np.array(states, dtype=complex)
    levels = range(out.shape[-1] if out.ndim else 0)
    if not (isinstance(pair, (tuple, list)) and len(pair) == 2 and pair[0] != pair[1]
            and is_index(pair[0], levels) and is_index(pair[1], levels)):
        raise ValueError(f"pair must be two distinct indices below {len(levels)}, got {pair!r}")
    i, k = pair
    c = math.cos(theta / 2.0)
    s = -1j * math.sin(theta / 2.0)
    e = cmath.exp(1j * phase)
    out[..., i], out[..., k] = (c * out[..., i] + s * e * out[..., k],
                                s * e.conjugate() * out[..., i] + c * out[..., k])
    return out

