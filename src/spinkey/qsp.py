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
- PolynomialSpec / find_phases: a multi-start phase finder matching |P| to
  the target magnitudes at sample points. After the zero vector it checks
  closed-form phases: |P|^2 fitted by linear least squares as a
  polynomial in a^2 (a zero target also fixing the slope there), factored
  on its roots (Fejer-Riesz) and stripped one layer at a time. Only when
  they miss are they polished by minimize, a damped Gauss-Newton
  (Levenberg-Marquardt) least-squares loop in numpy, and seeded draws
  follow, each one minimize call, when the construction declines or the
  polish falls short
- response_curve: |P(cos(angle/2))|^2 over a grid of signal angles
"""

import cmath
import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from ._checks import check_int, finite_array
from .spin_algebra import su2_matrix, su2_product

_log = logging.getLogger(__name__)
_solver_log = _log.getChild("minimize")

# Singular values of J at or below _RCOND * s_max are structural zeros (see
# minimize); a start is near-singular when its smallest kept one is below
# _NEAR_SINGULAR * s_max.
_RCOND = 1e-10
_NEAR_SINGULAR = 1e-2
# A near-singular start is abandoned when its cost has not halved over the
# last _STALL_WINDOW steps; any start stops after _MAX_STEPS steps, or when
# the damping passes _MAX_DAMPING.
_STALL_WINDOW = 10
_MAX_STEPS = 100
_MAX_DAMPING = 1e10
# Two real roots of a factor of |P|^2 closer than this are one double root,
# split by rounding (np.roots splits a double root by about 1e-8).
_DOUBLE_ROOT = 1e-6
# A wider real pair is turned complex by shifting the fit's top coefficient
# when a shift of at most this does it; it moves |P|^2 on [0, 1] by at most
# a quarter of it (notes/decisions.md).
_MAX_TOP_SHIFT = 1e-12
# find_phases checks this many starts, and a start succeeds when every
# | |P|^2 - |t|^2 | is at most _POINT_TOL (notes/decisions.md).
_N_STARTS = 32
_POINT_TOL = 1e-9


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
    w = _signal_pair(a.reshape(-1))
    first, steps = _step_pairs(phases, w)
    u = (np.broadcast_to(first, w[1].shape), np.zeros_like(w[1]))
    for step in zip(*steps):
        u = su2_product(u, step)
    return su2_matrix(*u).reshape(a.shape + (2, 2))


def _step_pairs(phases, w):
    """e^{i th0} and the d pairs of W e^{i th_k Z} = e^{i th_k} (a, b), k = 1..d.

    w is W's SU(2) pair (a, b) over a flat array of signal values; the
    step pairs come as two (d, N) arrays, formed at once.
    """
    phase = np.exp(1j * _phase_vector(phases))[:, None]
    return phase[0], (w[0] * phase[1:], w[1] * phase[1:])


def _prefix_pairs(phases, w):
    """A_k = e^{i th0 Z} W e^{i th1 Z} ... W e^{i th_k Z} for k = 0..d.

    Returns the pairs of all d + 1 prefixes as two (d + 1, N) arrays; row d
    is the qsp_unitary product. Both start from (e^{i th0}, 0) and take the
    same su2_product per step, so the phase finder's P equals that of
    qsp_unitary bit for bit.
    """
    first, (step_a, step_b) = _step_pairs(phases, w)
    alpha = np.empty((len(step_a) + 1, w[1].size), dtype=complex)
    beta = np.empty_like(alpha)
    alpha[0], beta[0] = first, 0.0
    for k in range(len(step_a)):
        alpha[k + 1], beta[k + 1] = su2_product((alpha[k], beta[k]), (step_a[k], step_b[k]))
    return alpha, beta


def _phase_vector(phases):
    """phases as a float array, checked to be 1-d, non-empty and finite."""
    phases = finite_array("phases", phases)
    if phases.ndim != 1 or phases.size < 1:
        raise ValueError("phases must be a 1-d sequence of length >= 1")
    return phases


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

    degree, an integer >= 1, fixes the number of phases (degree + 1);
    samples holds at least one (a, |target|) pair, with a and the target
    finite and in [-1, 1]. Targets at +/-a must share one magnitude, as a
    definite-parity P forces. Every spec is checked when it is built,
    however it is built; the chebyshev, bisecting and sampled constructors
    only choose the samples.
    """

    degree: int
    samples: tuple

    def __post_init__(self):
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
        # Both tests are np.isclose's |x - y| <= atol + rtol |y|, rtol 1e-5,
        # written out: a_i is close to -a_j, and |t_i| is not close to |t_j|.
        a, t = np.array(pairs).T
        t = np.abs(t)
        clash = ((np.abs(a[:, None] + a) <= 1e-8 + 1e-5 * np.abs(a))
                 & (np.abs(t[:, None] - t) > 1e-12 + 1e-5 * t))
        if clash.any():
            first = np.argwhere(clash)[0][0]
            raise ValueError(
                f"targets at a = +/-{abs(a[first])} differ in magnitude; "
                "incompatible with a definite-parity polynomial"
            )
        object.__setattr__(self, "samples", pairs)

    @classmethod
    def chebyshev(cls, degree):
        """Chebyshev T_degree magnitudes sampled on a 25-point cosine grid."""
        degree = check_int("degree", degree)
        grid = np.cos(np.linspace(0.0, np.pi, 25))
        targets = np.cos(degree * np.arccos(grid))
        return cls(degree, tuple(zip(grid.tolist(), np.abs(targets).tolist())))

    @classmethod
    def bisecting(cls):
        """Magnitude targets (1, 0, 0) at a = (1, 1/2, -1/2).

        The splitter profile of bisecting_poly cannot appear as |P|^2 of an
        even-degree product (any even-degree P has |P(0)| = 1, and degree 2
        cannot reach below |P(1/2)|^2 = 1/4), so the built-in spec solves the
        three magnitude constraints at degree 3, where an exact completion
        exists.
        """
        return cls(3, ((1.0, 1.0), (0.5, 0.0), (-0.5, 0.0)))

    @classmethod
    def sampled(cls, pairs, degree):
        """User-supplied (a, target) pairs for a fixed degree.

        The spec's checks apply: see PolynomialSpec.
        """
        return cls(degree, tuple(pairs))


def _residuals_and_jacobian(phases, w, t):
    """Residuals r_i = |P(a_i)|^2 - t_i^2 and the Jacobian dr_i/dtheta_k.

    w is W's SU(2) pair _signal_pair(a) for the (N,) sample points a,
    computed once by the caller.

    With prefixes A_k = Z_0 W ... W Z_k and U = A_k B_k, dU/dtheta_k =
    A_k (i sigma_z) B_k = A_k (i sigma_z) A_k^dag U. For A_k = (alpha, beta)
    and U = (P, beta_U) that reads dP/dtheta_k = i ((|alpha|^2 - |beta|^2) P
    + 2 alpha conj(beta) beta_U), and dr/dtheta_k = 2 Re(conj(P) dP/dtheta_k),
    so the prefixes alone give the Jacobian (notes/decisions.md). Its P is
    qsp_unitary's bit for bit. Returns r of shape (N,) and the Jacobian
    of shape (N, d + 1).
    """
    alpha, beta = _prefix_pairs(phases, w)
    p, beta_u = alpha[-1], beta[-1]
    weight = np.abs(alpha) ** 2 - np.abs(beta) ** 2
    dp = 1j * (weight * p + 2.0 * alpha * np.conj(beta) * beta_u)
    jac = 2.0 * (p.real * dp.real + p.imag * dp.imag)
    return _abs_squared(p) - t * t, jac.T


def _magnitude_residuals(phases, w, t):
    """Residuals |P(a_i)| - t_i and their Jacobian, the phase finder's fit.

    At a zero target |P|^2 has a double zero, where each Gauss-Newton step
    only halves |P|; |P| does not (notes/decisions.md).
    """
    r, jac = _residuals_and_jacobian(phases, w, t)
    size = np.sqrt(np.maximum(r + t * t, 0.0))
    # d|P| = d|P|^2 / (2 |P|); where |P| = 0 the row of d|P|^2 is 0 too.
    return size - t, jac / np.maximum(2.0 * size, np.finfo(float).tiny)[:, None]


def minimize(fun, x0, tol=0.0):
    """Least squares from x0 by damped Gauss-Newton (Levenberg-Marquardt).

    fun(x) returns the residual vector r and its Jacobian J. Each step
    solves (J^T J + lam I) dx = -J^T r through the SVD J = U S V^T, keeping
    only singular values above _RCOND * s_max, so it is the minimum-norm
    step when J is rank deficient; lam = mu s_max^2, with mu divided by 10
    after a step that lowers sum(r^2) and multiplied by 10 after one that
    does not; a rejected step leaves J as it was, so its SVD is reused.
    When the smallest kept singular value is below _NEAR_SINGULAR * s_max,
    the step gets a geodesic-acceleration correction from one more
    evaluation of fun. The loop stops when |r_i| <= tol for every i (tol
    is a scalar or one value per residual). It gives up when J is zero,
    when no damping lowers the cost, after _MAX_STEPS steps, or when J is
    near-singular and the cost has not halved over the last _STALL_WINDOW
    steps (notes/decisions.md). Every stop but convergence is logged at
    DEBUG level on the "spinkey.qsp.minimize" logger.

    Returns (x, iterations), where iterations counts the steps tried.
    """
    x = np.array(x0, dtype=float)
    r, jac = fun(x)
    cost = r @ r
    costs = [cost]
    mu, steps, svd = 1e-3, 0, None
    while np.any(np.abs(r) > tol):
        if steps == _MAX_STEPS:
            reason = f"no convergence in {_MAX_STEPS} steps"
            break
        if svd is None:
            u, s, vt = np.linalg.svd(jac, full_matrices=False)
            if s[0] == 0.0:
                reason = "the Jacobian is zero"
                break
            keep = s > _RCOND * s[0]
            svd = s[keep], u[:, keep], vt[keep]
        s, u, vt = svd
        near_singular = s[-1] < _NEAR_SINGULAR * s[0]
        steps += 1
        gain = s / (s * s + mu * s[0] ** 2)
        step = -vt.T @ (gain * (u.T @ r))
        if near_singular:
            # Geodesic acceleration: r's second derivative along the step, by
            # a finite difference over a tenth of it, bends the step along a
            # curved valley (Transtrum and Sethna, 2012). It is dropped when it
            # is not small next to the step.
            h = 0.1
            r_h, _ = fun(x + h * step)
            curvature = 2.0 / h * ((r_h - r) / h - jac @ step)
            accel = -vt.T @ (gain * (u.T @ curvature))
            if np.linalg.norm(accel) <= 0.75 * np.linalg.norm(step):
                step = step + 0.5 * accel
        r_new, jac_new = fun(x + step)
        cost_new = r_new @ r_new
        if cost_new < cost:
            x, r, jac, cost = x + step, r_new, jac_new, cost_new
            mu, svd = mu / 10.0, None
        elif mu < _MAX_DAMPING:
            mu *= 10.0
        else:
            reason = "no damped step lowers the cost"
            break
        costs.append(cost)
        if (near_singular and steps >= _STALL_WINDOW
                and cost > 0.5 * costs[-1 - _STALL_WINDOW]):
            reason = (f"stalled: cost {cost:.3e} not halved in {_STALL_WINDOW} steps, "
                      f"s_min/s_max {s[-1] / s[0]:.1e}")
            break
    else:
        return x, steps
    _solver_log.debug("abandoned after %d steps: %s", steps, reason)
    return x, steps


def _closed_form_start(degree, a, t):
    """Phases whose |P| fits the magnitudes t at the points a, or None.

    |P(a)|^2 is a degree-d polynomial A(y) in y = a^2 with A(1) = 1 and
    A(0) = 1 for even d, 0 for odd d. Writing A = y + y (1 - y) g for odd d
    and A = 1 - y (1 - y) g for even d meets both, so the samples
    A(a_i^2) = t_i^2 fix g's d - 1 coefficients by linear least squares.
    A zero target strictly between y = 0 and 1 is a minimum of A >= 0, so
    it adds the row A'(y_i) = 0 too: the double root a zero of |P|^2 needs.
    With P(a) = a^(d mod 2) p(a^2) and Q(a) = a^(1 - d mod 2) q(a^2), |p|^2
    and |q|^2 follow from A in closed form; each is factored on its roots
    (_half_factor), and the layers W e^{i th_k Z} are stripped off P and Q
    from the right, th_k chosen to cancel P's top coefficient
    (notes/decisions.md). Returns None, so that the caller goes on to the
    seeded draws, when the fit is rank-deficient (fewer than d - 1 rows
    from distinct y_i strictly between 0 and 1, a zero target counting
    twice) or |p|^2 or |q|^2 is negative somewhere on the real line, even
    after _flip_far_pair's shift of g's top coefficient. The phases are
    exact up to rounding when the samples come from some product of this
    degree; otherwise they are only a start.
    """
    odd = degree % 2
    y = a * a
    powers = np.vander(y, degree - 1, increasing=True)
    rows = (y * (1.0 - y))[:, None] * powers
    rhs = t * t - y if odd else 1.0 - t * t
    # d/dy [y (1 - y) y^j] = ((1 - 2y) + j (1 - y)) y^j, and A' = 0 reads
    # d/dy [y (1 - y) g] = -1 for odd d, 0 for even d.
    zero = (t == 0.0) & (y > 0.0) & (y < 1.0)
    if zero.any():
        y0 = y[zero][:, None]
        slopes = ((1.0 - 2.0 * y0) + np.arange(degree - 1) * (1.0 - y0)) * powers[zero]
        rows = np.vstack((rows, slopes))
        rhs = np.concatenate((rhs, np.full(len(slopes), -1.0 if odd else 0.0)))
    g, _, rank, _ = np.linalg.lstsq(rows, rhs)
    if rank < degree - 1:
        return None
    p, q = map(_half_factor, _squares(g, odd))
    if p is None or q is None:
        g = _flip_far_pair(g, odd)
        p, q = (None, None) if g is None else map(_half_factor, _squares(g, odd))
    if p is None or q is None:
        return None
    # P and Q as ascending coefficients in a, on Python complex numbers.
    big_p, big_q = [0j] * (degree + 1), [0j] * degree
    big_p[odd::2], big_q[1 - odd::2] = p, q
    phases = [0.0] * (degree + 1)
    for k in range(degree, 0, -1):
        # U W^-1 e^{-i th Z} has P-entry a P e^{-i th} + (1 - a^2) Q e^{i th}
        # and Q-entry a Q e^{i th} - P e^{-i th}; th_k cancels both top terms,
        # which the new P and Q drop.
        phases[k] = theta = 0.5 * (cmath.phase(big_p[k]) - cmath.phase(big_q[k - 1]))
        e = cmath.exp(-1j * theta)
        a_p, a_q, a2_q = [0j] + big_p, [0j] + big_q, [0j, 0j] + big_q
        big_p, big_q = ([a_p[j] * e + (big_q[j] - a2_q[j]) * e.conjugate() for j in range(k)],
                        [a_q[j] * e.conjugate() - big_p[j] * e for j in range(k - 1)])
    phases[0] = cmath.phase(big_p[0])
    return np.array(phases)


def _squares(g, odd):
    """Ascending coefficients of |p|^2 = A / y^odd and of
    |q|^2 = (1 - A) / ((1 - y) y^(1 - odd)) for the fit g."""
    p_squared = np.zeros(len(g) + 2 - odd)
    p_squared[0] = 1.0
    if odd:  # 1 + (1 - y) g and 1 - y g
        p_squared[:-1] += g
        p_squared[1:] -= g
        return p_squared, np.concatenate(([1.0], -g))
    # 1 - y (1 - y) g and g
    p_squared[1:-1] -= g
    p_squared[2:] += g
    return p_squared, g


def _flip_far_pair(g, odd):
    """g with its top coefficient shifted so that a split real pair turns complex, or None.

    The samples fix A on [0, 1] far better than they fix the roots of a
    factor whose top coefficient is tiny, so a conjugate pair far from
    [0, 1] can come back as two real roots. The first real pair of either
    factor split by more than _DOUBLE_ROOT sets the shift: twice the one
    that lifts that factor to 0 at the pair's midpoint, so that the pair
    turns complex. Both factors are affine in g and shift together, so the
    norm identity still holds exactly. Returns None when a factor's top
    coefficient is not positive, when no pair is split, or when the shift
    exceeds _MAX_TOP_SHIFT: it moves A by y^(d - 1) (1 - y) times the
    shift, at most a quarter of it on [0, 1] (notes/decisions.md).
    """
    top = np.zeros_like(g)
    top[-1] = 1.0
    for c, shifted in zip(_squares(g, odd), _squares(g + top, odd)):
        if (paired := _real_pairs(c)) is None:
            return None
        if (split := paired[2]) is not None:
            mid = 0.5 * (split[0] + split[1])
            lift, rate = np.polyval(c[::-1], mid), np.polyval((shifted - c)[::-1], mid)
            if not 0.0 < abs(2.0 * lift) <= _MAX_TOP_SHIFT * abs(rate):
                return None
            return g - 2.0 * lift / rate * top
    return None


def _roots(coeffs):
    """Roots of the polynomial of ascending coefficients coeffs, top one nonzero.

    They are the eigenvalues of its companion matrix, built as np.roots
    builds it, without np.roots' per-call wrapping.
    """
    companion = np.eye(len(coeffs) - 1, k=-1)
    if len(companion):
        companion[0] = -coeffs[-2::-1] / coeffs[-1]
    return np.linalg.eigvals(companion).tolist()


def _real_pairs(coeffs):
    """(roots, pairs, split) of the polynomial of ascending coefficients coeffs,
    or None when its top coefficient is not positive.

    roots are all its roots; pairs its real roots, sorted and taken two at a
    time; split the first pair wider than _DOUBLE_ROOT, or None when every
    pair is a double root split by rounding.
    """
    if not coeffs[-1] > 0.0:
        return None
    roots = _roots(coeffs)
    real = sorted(root.real for root in roots if root.imag == 0.0)
    pairs = list(zip(real[::2], real[1::2]))
    return roots, pairs, next((pair for pair in pairs if pair[1] - pair[0] > _DOUBLE_ROOT), None)


def _half_factor(coeffs):
    """h with |h(y)|^2 = c(y) for real y, or None when c < 0 somewhere.

    c, of even degree, is given by its ascending coefficients, and h is
    returned as a list of them. c is non-negative on the real line exactly
    when its top coefficient is positive and its real roots pair into
    double roots (two closer than _DOUBLE_ROOT count as one); h then keeps
    one root of each conjugate pair and one of each double root
    (Fejer-Riesz), scaled by the root of the top coefficient. A zero top
    coefficient is declined too.
    """
    paired = _real_pairs(coeffs)
    if paired is None or paired[2] is not None:
        return None
    roots, pairs, _ = paired
    kept = [root for root in roots if root.imag > 0.0] + [0.5 * (low + high) for low, high in pairs]
    h = [complex(math.sqrt(coeffs[-1]))]
    for root in kept:  # h <- (y - root) h
        h = [before - root * here for before, here in zip([0j] + h, h + [0j])]
    return h


def find_phases(spec, seed=0):
    """Find phases whose product matches the spec's target magnitudes.

    Multi-start least squares on the magnitude residuals |P(a_i)| - |t_i|
    over the (degree+1)-dimensional phase vector, each start solved by
    minimize with the Jacobian of _residuals_and_jacobian (see
    _magnitude_residuals). Deterministic for a fixed seed.

    The first start is the all-zero vector. It is checked, not optimized:
    P is then the Chebyshev T_d, which solves any Chebyshev spec exactly,
    and the residuals are stationary there (notes/decisions.md), so no
    gradient step can leave it. The second is the closed-form phases of
    _closed_form_start: |P|^2 fitted as a polynomial in a^2, each zero
    target fixing its slope too, then factored and stripped layer by layer
    (notes/decisions.md). They are checked the same way, and on a spec
    sampled from a product of its degree, the bisecting spec among them,
    they meet _POINT_TOL with no minimize call. Only when they miss does the
    third start polish them, with one minimize call. Where that
    construction declines (too few distinct sample points, or a fit no
    product can have), or its polish misses too, the remaining starts are
    seeded draws, each one minimize call, up to _N_STARTS starts in all.
    minimize is looked up by name at call time. A start succeeds when
    | |P|^2 - |t|^2 | <= _POINT_TOL (1e-9) at every sample point; its
    residuals are computed once, for that check and for its DEBUG record on
    the "spinkey.qsp" logger (residual sum, worst point and iterations).

    Parameters
    ----------
    spec : PolynomialSpec
    seed : int
        Seed for the multi-start generator, >= 0; the generator is built
        only when a seeded draw is needed.

    Returns
    -------
    np.ndarray
        degree + 1 phases in radians.

    Raises
    ------
    ValueError
        If seed is out of range, before any start.
    PhaseFindingError
        If none of the _N_STARTS (32) starts reaches _POINT_TOL; carries
        the best residual sum.
    """
    seed = check_int("seed", seed, minimum=0)
    n_phases = spec.degree + 1
    a, t = np.array(spec.samples, dtype=float).reshape(-1, 2).T
    t = np.abs(t)
    w = _signal_pair(a)

    # | |P|^2 - t^2 | = |m| (|m| + 2 t) for m = |P| - t, so |m| <= tol, the root
    # of tol (tol + 2 t) = _POINT_TOL / 2, leaves half of _POINT_TOL as margin.
    tol = 0.5 * _POINT_TOL / (np.sqrt(t * t + 0.5 * _POINT_TOL) + t)
    fun = functools.partial(_magnitude_residuals, w=w, t=t)

    def starts():
        """(phases, iterations) of each start; the loop asks for the next
        one only when the last missed, so nothing is computed ahead."""
        yield np.zeros(n_phases), 0
        x0 = _closed_form_start(spec.degree, a, t)
        if x0 is not None:
            yield x0, 0
            yield minimize(fun, x0, tol=tol)
        rng = np.random.default_rng(seed)
        while True:
            yield minimize(fun, rng.uniform(-np.pi, np.pi, n_phases), tol=tol)

    best = np.inf
    for start, (candidate, iterations) in zip(range(_N_STARTS), starts()):
        residuals = _abs_squared(_prefix_pairs(candidate, w)[0][-1]) - t * t
        total = float(np.sum(residuals ** 2))
        worst = np.max(np.abs(residuals))
        _log.debug("start %d: residual sum %.3e, worst point %.3e, %d iterations",
                   start, total, worst, iterations)
        best = min(best, total)
        if worst <= _POINT_TOL:
            return np.asarray(candidate, dtype=float)
    raise PhaseFindingError(
        f"no phase vector reached tolerance {_POINT_TOL} after {_N_STARTS} starts "
        f"(best residual sum {best:.3e})",
        best_residual=best,
    )


def response_curve(phases, angles):
    """|P(cos(angle/2))|^2 for each signal angle in the grid."""
    angles = finite_array("angles", angles)
    return _abs_squared(qsp_unitary(phases, np.cos(angles / 2.0))[..., 0, 0])
