"""Signal-processing products of a parameterized rotation and phase finding.

The signal operator

    W(a) = [[a, i sqrt(1-a^2)], [i sqrt(1-a^2), a]]

is an x-rotation with a = cos(half the rotation angle). Interleaving W(a)
with z-phases exp(1j * theta_k * sigma_z) produces a unitary whose top-left
entry is a degree-d polynomial P(a); the populations after such a product
are set by |P(a)|^2. Every factor is an SU(2) element, so the product is
composed as (alpha, beta) pairs of [[alpha, -conj(beta)], [beta,
conj(alpha)]] with spin_algebra.su2_product, one product per phase, and
written out as 2x2 matrices only at the end. Signal values may be arrays:
the pairs stack along the array's shape, so a response curve or a
phase-finder residual is one call. This module provides:

- signal_w, qsp_unitary, polynomial_entries: the product and its P, Q entries
- bisecting_poly: the degree-2 map (4 a^2 - 1)/3 sending the flagged
  candidate to 1 and the other two symmetric candidates to 0
- PolynomialSpec / find_phases: an optimization-based phase finder matching
  |P|^2 to squared targets at sample points
- response_curve: |P(cos(angle/2))|^2 over a grid of signal angles
- phases_to_json / phases_from_json: plain JSON array serialization
"""

import json
import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from ._checks import check_int, check_real, finite_array
from .spin_algebra import su2_matrix, su2_product

_log = logging.getLogger(__name__)


class PhaseFindingError(RuntimeError):
    """Raised when no phase vector reaches the target tolerance.

    Carries the best squared-residual sum reached over all starts.
    """

    def __init__(self, message, best_residual):
        super().__init__(message)
        self.best_residual = best_residual


def signal_w(a):
    """Signal rotation W(a) for a = cos(angle/2), |a| <= 1.

    a may be a scalar or an array; the 2x2 matrices stack along its shape,
    so a scalar gives a (2, 2) array and an (N,) array an (N, 2, 2) stack.
    Non-finite values and |a| > 1 raise ValueError.

    Equals rotation(2, angle, pi) from spin_algebra, i.e. the inverse of the
    canonical x-rotation by the same angle (the two differ by the sign
    convention of the generator; populations are identical).
    """
    return su2_matrix(*_signal_pair(a))


def _signal_pair(a):
    """W(a) as the SU(2) pair (a, i sqrt(1 - a^2)), after checking a."""
    a = finite_array("signal parameter", a)
    if np.any(np.abs(a) > 1.0):
        raise ValueError(f"signal parameter must satisfy |a| <= 1, got {a}")
    return a, 1j * np.sqrt(np.maximum(0.0, 1.0 - a * a))


def qsp_unitary(phases, a):
    """Phase-interleaved product e^{i th0 Z} prod_k W(a) e^{i th_k Z}.

    Parameters
    ----------
    phases : array_like
        d+1 phase angles in radians; d is the polynomial degree.
    a : float or array_like
        Signal parameters in [-1, 1].

    Returns
    -------
    np.ndarray
        Unitaries of shape a.shape + (2, 2), one per signal value, whose
        top-left entry is a degree-d polynomial P(a). Every value is
        evaluated by the same SU(2) products over a flat array, a scalar
        as a 1-element one, so a batch equals the per-value calls exactly.
    """
    a = np.asarray(a, dtype=float)
    for u in _prefix_products(phases, _signal_pair(a.reshape(-1))):
        pass
    return su2_matrix(*u).reshape(a.shape + (2, 2))


def _prefix_products(phases, w):
    """Yield A_k = e^{i th0 Z} W e^{i th1 Z} ... W e^{i th_k Z} for k = 0..d.

    w is W's SU(2) pair (a, b) over a flat array of signal values, and each
    A_k is such a pair. W e^{i th_k Z} is the pair e^{i th_k} (a, b), so all
    d steps are formed at once and each A_k is one su2_product. The last
    A_k is the qsp_unitary product; both run this one loop, so the phase
    finder's residuals equal those of qsp_unitary bit for bit.
    """
    phase = np.exp(1j * _phase_vector(phases))[:, None]
    u = (np.broadcast_to(phase[0], w[1].shape), np.zeros_like(w[1]))
    yield u
    for step in zip(w[0] * phase[1:], w[1] * phase[1:]):
        u = su2_product(u, step)
        yield u


def _phase_vector(phases):
    """phases as a float array, checked to be 1-d, non-empty and finite."""
    phases = finite_array("phases", phases)
    if phases.ndim != 1 or phases.size < 1:
        raise ValueError("phases must be a 1-d sequence of length >= 1")
    return phases


def _p_squared(phases, a):
    """|P(a)|^2 over an array of signal values."""
    return _abs_squared(qsp_unitary(phases, a)[..., 0, 0])


def _abs_squared(p):
    """|p|^2 of a complex array.

    hypot and float_power round exactly as the scalar abs(p) ** 2 does; the
    array forms np.abs(p) and m * m differ from it in the last bit.
    """
    return np.float_power(np.hypot(p.real, p.imag), 2.0)


def polynomial_entries(phases, a):
    """Return (P(a), Q(a)) read off the product unitary.

    Q is defined through the top-right entry i Q(a) sqrt(1-a^2), so it is
    only recoverable for |a| < 1. a may be an array; P and Q then have its
    shape, and a scalar gives scalars.
    """
    u = qsp_unitary(phases, a)
    a = np.asarray(a, dtype=float)
    s = np.sqrt(1.0 - a * a)
    if np.any(s == 0.0):
        raise ValueError("Q(a) is not defined at |a| = 1")
    # [()] turns the 0-d entries of a scalar a into scalars.
    return u[..., 0, 0][()], (u[..., 0, 1] / (1j * s))[()]


def bisecting_poly(a):
    """Degree-2 candidate splitter (4 a^2 - 1) / 3.

    Maps a = 1 to 1 and a = +/- 1/2 (the cosines of the symmetric triad's
    half-angles) exactly to 0. Accepts scalars or arrays.
    """
    a = np.asarray(a, dtype=float)
    out = (4.0 * a * a - 1.0) / 3.0
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class PolynomialSpec:
    """Target for the phase finder: |P(a_i)| should match |target_i|.

    kind is one of "chebyshev", "bisecting", "sampled"; degree, an integer
    >= 1, fixes the number of phases (degree + 1); samples holds at least
    one (a, |target|) pair, with a and the target finite and in [-1, 1].
    Targets at +/-a must share one magnitude, as a definite-parity P
    forces. Every spec is checked when it is built, however it is built.
    """

    kind: str
    degree: int
    samples: tuple

    def __post_init__(self):
        kinds = ("chebyshev", "bisecting", "sampled")
        if self.kind not in kinds:
            raise ValueError(f"kind must be one of {kinds}, got {self.kind!r}")
        object.__setattr__(self, "degree", check_int("degree", self.degree))
        pairs = tuple((float(a), float(t)) for a, t in self.samples)
        if not pairs:
            raise ValueError("a spec needs at least one (a, target) sample")
        for i, (a, t) in enumerate(pairs):
            if not (math.isfinite(a) and math.isfinite(t)):
                raise ValueError(f"sample {i} (a = {a}, target = {t}) must be finite")
            if abs(t) > 1.0:
                raise ValueError(f"infeasible target |{t}| > 1 at a = {a}")
            if abs(a) > 1.0:
                raise ValueError(f"sample point |{a}| > 1")
        # Definite parity forces |P(-a)| = |P(a)|; reject inconsistent pairs.
        a, t = np.array(pairs).T
        t = np.abs(t)
        clash = (np.isclose(a[:, None], -a[None, :])
                 & ~np.isclose(t[:, None], t[None, :], atol=1e-12))
        if clash.any():
            first = np.argwhere(clash)[0][0]
            raise ValueError(
                f"targets at a = +/-{abs(a[first])} differ in magnitude; "
                "incompatible with a definite-parity polynomial"
            )
        object.__setattr__(self, "samples", pairs)

    @property
    def parity(self):
        return "even" if self.degree % 2 == 0 else "odd"

    @classmethod
    def chebyshev(cls, degree):
        """Chebyshev T_degree magnitudes sampled on a 25-point cosine grid."""
        degree = check_int("degree", degree)
        grid = np.cos(np.linspace(0.0, np.pi, 25))
        targets = np.cos(degree * np.arccos(grid))
        return cls("chebyshev", degree, tuple(zip(grid.tolist(), np.abs(targets).tolist())))

    @classmethod
    def bisecting(cls):
        """Magnitude targets (1, 0, 0) at a = (1, 1/2, -1/2).

        The splitter profile of bisecting_poly cannot appear as |P|^2 of an
        even-degree product (any even-degree P has |P(0)| = 1, and degree 2
        cannot reach below |P(1/2)|^2 = 1/4), so the built-in spec solves the
        three magnitude constraints at degree 3, where an exact completion
        exists.
        """
        return cls("bisecting", 3, ((1.0, 1.0), (0.5, 0.0), (-0.5, 0.0)))

    @classmethod
    def sampled(cls, pairs, degree):
        """User-supplied (a, target) pairs for a fixed degree.

        The spec's checks apply: see PolynomialSpec.
        """
        return cls("sampled", degree, tuple(pairs))


def _residual_terms(phases, samples):
    a, t = np.array(samples, dtype=float).reshape(-1, 2).T
    return _p_squared(phases, a) - t * t


def _residuals_and_jacobian(phases, w, t):
    """Residuals r_i = |P(a_i)|^2 - t_i^2 and the Jacobian dr_i/dtheta_k.

    w is signal_w(a) for the (N,) sample points a, computed once by the
    caller.

    With prefixes A_k = Z_0 W ... W Z_k and U = A_k B_k, dU/dtheta_k =
    A_k (i sigma_z) B_k = A_k (i sigma_z) A_k^dag U. For A_k = (alpha, beta)
    and U = (P, beta_U) that reads dP/dtheta_k = i ((|alpha|^2 - |beta|^2) P
    + 2 alpha conj(beta) beta_U), and dr/dtheta_k = 2 Re(conj(P) dP/dtheta_k),
    so the prefixes alone give the Jacobian (notes/decisions.md). r equals
    _residual_terms bit for bit. Returns r of shape (N,) and the Jacobian
    of shape (N, d + 1).
    """
    prefixes = _prefix_products(phases, (w[:, 0, 0], w[:, 1, 0]))
    alpha, beta = (np.stack(entries) for entries in zip(*prefixes))
    p, beta_u = alpha[-1], beta[-1]
    weight = np.abs(alpha) ** 2 - np.abs(beta) ** 2
    dp = 1j * (weight * p + 2.0 * alpha * np.conj(beta) * beta_u)
    jac = 2.0 * (p.real * dp.real + p.imag * dp.imag)
    return _abs_squared(p) - t * t, jac.T


def find_phases(spec, seed=0, n_starts=32, point_tol=1e-9):
    """Find phases whose product matches the spec's squared magnitudes.

    Multi-start local optimization of sum((|P(a_i)|^2 - |t_i|^2)^2) over the
    (degree+1)-dimensional phase vector. Deterministic for a fixed seed.
    The first start is the all-zero vector. It is checked, not optimized:
    P is then the Chebyshev T_d, which solves any Chebyshev spec exactly,
    and the objective is stationary there (notes/decisions.md), so no
    gradient step can leave it. The other n_starts - 1 starts are drawn
    from a seeded generator and each runs BFGS with the analytic gradient.
    Each start is logged at DEBUG level on the "spinkey.qsp" logger.

    Parameters
    ----------
    spec : PolynomialSpec
    seed : int
        Seed for the multi-start generator.
    n_starts : int
        Number of starts, >= 1, the zero start included, before giving up.
    point_tol : float
        Maximum allowed | |P|^2 - |t|^2 | at any sample point; finite, > 0.

    Returns
    -------
    np.ndarray
        degree + 1 phases in radians.

    Raises
    ------
    ValueError
        If n_starts or point_tol is out of range, before any start.
    PhaseFindingError
        If no start reaches point_tol; carries the best residual sum.
    """
    n_starts = check_int("n_starts", n_starts)
    check_real("point_tol", point_tol, 0.0, strict=True)
    samples = spec.samples
    n_phases = spec.degree + 1
    a, t = np.array(samples, dtype=float).reshape(-1, 2).T
    w = signal_w(a)

    def objective(phases):
        r, jac = _residuals_and_jacobian(phases, w, t)
        return float(np.sum(r ** 2)), 2.0 * (r @ jac)

    rng = np.random.default_rng(seed)
    candidate, iterations = np.zeros(n_phases), 0
    best = np.inf
    for start in range(n_starts):
        if start:
            x0 = rng.uniform(-np.pi, np.pi, n_phases)
            res = minimize(objective, x0, jac=True, method="BFGS",
                           options={"gtol": 1e-14, "maxiter": 800})
            candidate, iterations = res.x, res.nit
        residuals = _residual_terms(candidate, samples)
        total = float(np.sum(residuals ** 2))
        worst = np.max(np.abs(residuals))
        _log.debug("start %d: residual sum %.3e, worst point %.3e, %d iterations",
                   start, total, worst, iterations)
        best = min(best, total)
        if worst <= point_tol:
            return np.asarray(candidate, dtype=float)
    raise PhaseFindingError(
        f"no phase vector reached tolerance {point_tol} after {n_starts} starts "
        f"(best residual sum {best:.3e})",
        best_residual=best,
    )


def response_curve(phases, angles):
    """|P(cos(angle/2))|^2 for each signal angle in the grid."""
    angles = finite_array("angles", angles)
    return _p_squared(phases, np.cos(angles / 2.0))


def phases_to_json(phases):
    """Serialize a phase vector to a JSON array of radians."""
    return json.dumps([float(x) for x in np.asarray(phases, dtype=float)])


def phases_from_json(text):
    """Parse a JSON array of radians back into a phase vector."""
    return _phase_vector(json.loads(text))
