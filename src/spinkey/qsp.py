"""Signal-processing products of a parameterized rotation and phase finding.

The signal operator

    W(a) = [[a, i sqrt(1-a^2)], [i sqrt(1-a^2), a]]

is an x-rotation with a = cos(half the rotation angle). Interleaving W(a)
with z-phases exp(1j * theta_k * sigma_z) produces a unitary whose top-left
entry is a degree-d polynomial P(a); the populations after such a product
are set by |P(a)|^2. Signal values may be arrays: the 2x2 matrices stack
along the array's shape and the product runs as one stacked matmul per
phase, so a response curve or a phase-finder residual is one call. This
module provides:

- signal_w, qsp_unitary, polynomial_entries: the product and its P, Q entries
- bisecting_poly: the degree-2 map (4 a^2 - 1)/3 sending the flagged
  candidate to 1 and the other two symmetric candidates to 0
- PolynomialSpec / find_phases: an optimization-based phase finder matching
  |P|^2 to squared targets at sample points
- response_curve: |P(cos(angle/2))|^2 over a grid of signal angles
- phases_to_json / phases_from_json: plain JSON array serialization
"""

import json
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize


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
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"signal parameter must be finite, got {a}")
    if np.any(np.abs(a) > 1.0):
        raise ValueError(f"signal parameter must satisfy |a| <= 1, got {a}")
    s = 1j * np.sqrt(np.maximum(0.0, 1.0 - a * a))
    w = np.empty(a.shape + (2, 2), dtype=complex)
    w[..., 0, 0] = w[..., 1, 1] = a
    w[..., 0, 1] = w[..., 1, 0] = s
    return w


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
        evaluated by the same stacked 2x2 products, so a batch equals the
        per-value calls exactly.
    """
    phases = np.asarray(phases, dtype=float)
    if phases.ndim != 1 or phases.size < 1:
        raise ValueError("phases must be a 1-d sequence of length >= 1")
    if not np.all(np.isfinite(phases)):
        raise ValueError("phases must be finite")
    w = signal_w(a)
    z = np.zeros((phases.size, 2, 2), dtype=complex)
    z[:, 0, 0] = np.exp(1j * phases)
    z[:, 1, 1] = np.exp(-1j * phases)
    u = np.broadcast_to(z[0], w.shape).copy()
    for z_k in z[1:]:
        u = u @ w @ z_k
    return u


def _p_squared(phases, a):
    """|P(a)|^2 over an array of signal values.

    hypot and float_power round exactly as the scalar abs(p) ** 2 does; the
    array forms np.abs(p) and m * m differ from it in the last bit.
    """
    p = qsp_unitary(phases, a)[..., 0, 0]
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

    kind is one of "chebyshev", "bisecting", "sampled"; degree fixes the
    number of phases (degree + 1); samples holds (a, |target|) pairs.
    """

    kind: str
    degree: int
    samples: tuple

    @property
    def parity(self):
        return "even" if self.degree % 2 == 0 else "odd"

    @classmethod
    def chebyshev(cls, degree):
        """Chebyshev T_degree magnitudes sampled on a 25-point cosine grid."""
        if degree < 1:
            raise ValueError("degree must be >= 1")
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
        """User-supplied (a, target) pairs for a fixed degree."""
        pairs = tuple((float(a), float(t)) for a, t in pairs)
        for a, t in pairs:
            if abs(t) > 1.0:
                raise ValueError(f"infeasible target |{t}| > 1 at a = {a}")
            if abs(a) > 1.0:
                raise ValueError(f"sample point |{a}| > 1")
        # Definite parity forces |P(-a)| = |P(a)|; reject inconsistent pairs.
        for a1, t1 in pairs:
            for a2, t2 in pairs:
                if np.isclose(a1, -a2) and not np.isclose(abs(t1), abs(t2), atol=1e-12):
                    raise ValueError(
                        f"targets at a = +/-{abs(a1)} differ in magnitude; "
                        "incompatible with a definite-parity polynomial"
                    )
        return cls("sampled", int(degree), pairs)


def _residual_terms(phases, samples):
    a, t = np.array(samples, dtype=float).reshape(-1, 2).T
    return _p_squared(phases, a) - t * t


def find_phases(spec, seed=0, n_starts=32, point_tol=1e-9):
    """Find phases whose product matches the spec's squared magnitudes.

    Multi-start local optimization of sum((|P(a_i)|^2 - |t_i|^2)^2) over the
    (degree+1)-dimensional phase vector. Deterministic for a fixed seed: the
    first start is the all-zero vector (which already solves any Chebyshev
    spec exactly), the rest are drawn from a seeded generator.

    Parameters
    ----------
    spec : PolynomialSpec
    seed : int
        Seed for the multi-start generator.
    n_starts : int
        Number of optimization starts before giving up.
    point_tol : float
        Maximum allowed | |P|^2 - |t|^2 | at any sample point.

    Returns
    -------
    np.ndarray
        degree + 1 phases in radians.

    Raises
    ------
    PhaseFindingError
        If no start reaches point_tol; carries the best residual sum.
    """
    samples = spec.samples
    n_phases = spec.degree + 1

    def objective(phases):
        return float(np.sum(_residual_terms(phases, samples) ** 2))

    rng = np.random.default_rng(seed)
    starts = [np.zeros(n_phases)]
    starts += [rng.uniform(-np.pi, np.pi, n_phases) for _ in range(n_starts - 1)]

    best = np.inf
    for x0 in starts:
        res = minimize(objective, x0, method="BFGS", options={"maxiter": 800})
        candidate = res.x
        # Polish with a simplex pass when BFGS stalls short of tolerance.
        if np.max(np.abs(_residual_terms(candidate, samples))) > point_tol:
            res = minimize(objective, candidate, method="Nelder-Mead",
                           options={"maxiter": 4000, "xatol": 1e-12, "fatol": 1e-16})
            candidate = res.x
        worst = np.max(np.abs(_residual_terms(candidate, samples)))
        best = min(best, objective(candidate))
        if worst <= point_tol:
            return np.asarray(candidate, dtype=float)
    raise PhaseFindingError(
        f"no phase vector reached tolerance {point_tol} after {n_starts} starts "
        f"(best residual sum {best:.3e})",
        best_residual=best,
    )


def response_curve(phases, angles):
    """|P(cos(angle/2))|^2 for each signal angle in the grid."""
    angles = np.asarray(angles, dtype=float)
    if not np.all(np.isfinite(angles)):
        raise ValueError("signal angles must be finite")
    return _p_squared(phases, np.cos(angles / 2.0))


def phases_to_json(phases):
    """Serialize a phase vector to a JSON array of radians."""
    return json.dumps([float(x) for x in np.asarray(phases, dtype=float)])


def phases_from_json(text):
    """Parse a JSON array of radians back into a phase vector."""
    values = json.loads(text)
    phases = np.asarray(values, dtype=float)
    if phases.ndim != 1 or phases.size < 1:
        raise ValueError("expected a flat JSON array with at least one phase")
    if not np.all(np.isfinite(phases)):
        raise ValueError("phases must be finite")
    return phases
