import cmath
import functools
import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spinkey
from spinkey import qsp
from spinkey.qsp import (
    PhaseFindingError,
    PolynomialSpec,
    bisecting_poly,
    find_phases,
    polynomial_entries,
    qsp_unitary,
    response_curve,
    signal_w,
)
from spinkey.spin_algebra import rotation, su2_product


def test_package_and_cli_import_without_scipy():
    """spinkey, its CLI and spinkey.qsp import and solve with scipy blocked."""
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None  # any import of scipy now raises ImportError\n"
        "import spinkey, spinkey.cli, spinkey.qsp\n"
        "from spinkey.qsp import PolynomialSpec, find_phases, qsp_unitary\n"
        "pairs = [(a, abs(qsp_unitary([0.1, 0.7, -0.4], a)[0, 0])) for a in (0.2, 0.6, 0.9)]\n"
        "for spec in (PolynomialSpec.bisecting(), PolynomialSpec.sampled(pairs, 2)):\n"
        "    phases = find_phases(spec)\n"
        "    print(max(abs(abs(qsp_unitary(phases, a)[0, 0]) ** 2 - t * t)\n"
        "              for a, t in spec.samples) <= 1e-9)\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.')),\n"
        "      callable(spinkey.qsp.minimize))\n"
    )
    src = str(Path(spinkey.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.splitlines() == ["True", "True", "[] True"]


def test_signal_endpoints():
    np.testing.assert_allclose(signal_w(1.0), np.eye(2), atol=1e-15)
    np.testing.assert_allclose(signal_w(0.0), 1j * np.array([[0, 1], [1, 0]]), atol=1e-15)


def test_signal_is_inverse_convention_x_rotation():
    # W(cos(angle/2)) carries +i off-diagonals, i.e. the adjoint of the
    # canonical x-rotation by the same angle (equivalently the rotation
    # about the flipped axis); populations agree either way.
    a = np.cos(np.pi / 3)
    np.testing.assert_allclose(signal_w(a), rotation(2, 2 * np.pi / 3, np.pi), atol=1e-12)
    np.testing.assert_allclose(signal_w(a), rotation(2, 2 * np.pi / 3, 0.0).conj().T,
                               atol=1e-12)


def test_signal_domain_error():
    with pytest.raises(ValueError, match="<= 1"):
        signal_w(1.0000001)


def test_zero_phases_give_chebyshev():
    for d in (1, 2, 3, 5, 8):
        phases = np.zeros(d + 1)
        for a in np.linspace(-1, 1, 41):
            p = qsp_unitary(phases, a)[0, 0]
            np.testing.assert_allclose(p.real, np.cos(d * np.arccos(a)), atol=1e-10)
            assert abs(p.imag) < 1e-10


def test_single_phase_is_diagonal():
    u = qsp_unitary([0.37], 0.5)
    np.testing.assert_allclose(u, np.diag([np.exp(0.37j), np.exp(-0.37j)]), atol=1e-14)


def test_top_left_has_unit_magnitude_at_edge():
    rng = np.random.default_rng(3)
    for _ in range(5):
        phases = rng.uniform(-np.pi, np.pi, 5)
        assert abs(abs(qsp_unitary(phases, 1.0)[0, 0]) - 1.0) < 1e-12


def test_completeness_identity():
    rng = np.random.default_rng(5)
    for _ in range(6):
        phases = rng.uniform(-np.pi, np.pi, rng.integers(2, 8))
        for a in np.linspace(-1 + 1e-6, 1 - 1e-6, 21):
            p, q = polynomial_entries(phases, a)
            total = abs(p) ** 2 + (1 - a * a) * abs(q) ** 2
            assert abs(total - 1.0) < 1e-10


def test_parity():
    rng = np.random.default_rng(9)
    for d in (2, 3, 4, 7):
        phases = rng.uniform(-np.pi, np.pi, d + 1)
        for a in np.linspace(-0.95, 0.95, 11):
            p_plus = qsp_unitary(phases, a)[0, 0]
            p_minus = qsp_unitary(phases, -a)[0, 0]
            np.testing.assert_allclose(p_minus, (-1) ** d * p_plus, atol=1e-10)


def test_bisecting_poly_values():
    assert bisecting_poly(1.0) == 1.0
    assert bisecting_poly(0.5) == 0.0
    assert bisecting_poly(-0.5) == 0.0
    np.testing.assert_allclose(bisecting_poly(0.0), -1.0 / 3.0, atol=1e-15)
    np.testing.assert_allclose(bisecting_poly(np.array([1.0, 0.5])), [1.0, 0.0])


def test_sampled_spec_validation():
    with pytest.raises(ValueError, match="infeasible target"):
        PolynomialSpec.sampled([(0.3, 1.2)], degree=2)
    with pytest.raises(ValueError, match="definite-parity"):
        PolynomialSpec.sampled([(0.5, 1.0), (-0.5, 0.2)], degree=2)
    PolynomialSpec.sampled([(0.5, 0.7), (-0.5, 0.7)], degree=2)


def test_find_phases_chebyshev_2_matches_closed_form():
    phases = find_phases(PolynomialSpec.chebyshev(2))
    grid = np.linspace(-1, 1, 101)
    target = np.cos(2 * np.arccos(grid)) ** 2
    got = np.array([abs(qsp_unitary(phases, a)[0, 0]) ** 2 for a in grid])
    np.testing.assert_allclose(got, target, atol=1e-8)


def test_find_phases_bisecting_hits_magnitude_targets():
    phases = find_phases(PolynomialSpec.bisecting())
    assert phases.size == 4  # degree 3: the profile is unreachable at degree 2
    for a, target in ((1.0, 1.0), (0.5, 0.0), (-0.5, 0.0)):
        got = abs(qsp_unitary(phases, a)[0, 0]) ** 2
        assert abs(got - target) < 1e-8
    # Unitarity keeps the completion identity on a dense grid.
    for a in np.linspace(-1 + 1e-6, 1 - 1e-6, 101):
        p, q = polynomial_entries(phases, a)
        assert abs(abs(p) ** 2 + (1 - a * a) * abs(q) ** 2 - 1.0) < 1e-10


def test_find_phases_deterministic():
    spec = PolynomialSpec.bisecting()
    p1 = find_phases(spec, seed=123)
    p2 = find_phases(spec, seed=123)
    np.testing.assert_array_equal(p1, p2)


def test_find_phases_reports_failure():
    # Degree 1 forces |P(a)| = |a|, so demanding |P(0.9)| = 1 is infeasible.
    spec = PolynomialSpec.sampled([(0.9, 1.0), (0.3, 0.0)], degree=1)
    with pytest.raises(PhaseFindingError) as err:
        find_phases(spec)
    assert err.value.best_residual > 0


def test_response_curve_basics():
    assert response_curve(np.zeros(3), [0.0])[0] == pytest.approx(1.0, abs=1e-12)
    phases = find_phases(PolynomialSpec.bisecting())
    resp = response_curve(phases, [0.0, 2 * np.pi / 3, 4 * np.pi / 3])
    np.testing.assert_allclose(resp, [1.0, 0.0, 0.0], atol=1e-8)
    assert np.all(resp >= 0) and np.all(resp <= 1 + 1e-12)


def test_response_curve_equals_direct_recomputation():
    rng = np.random.default_rng(17)
    phases = rng.uniform(-np.pi, np.pi, 4)
    angles = np.linspace(0, 2 * np.pi, 512)
    resp = response_curve(phases, angles)
    again = np.array([abs(qsp_unitary(phases, np.cos(t / 2))[0, 0]) ** 2 for t in angles])
    assert np.max(np.abs(resp - again)) == 0.0


@pytest.mark.parametrize("degree", [1, 2, 3, 8, 17, 64])
def test_batched_unitary_equals_per_point_calls(degree):
    rng = np.random.default_rng(degree)
    phases = rng.uniform(-np.pi, np.pi, degree + 1)
    scalar = rng.uniform(-1.0, 1.0)
    assert qsp_unitary(phases, scalar).shape == (2, 2)
    np.testing.assert_array_equal(qsp_unitary(phases, np.asarray(scalar)),
                                  qsp_unitary(phases, scalar))
    for shape in ((7,), (3, 5)):
        a = rng.uniform(-1.0, 1.0, shape)
        a.flat[0] = 1.0  # the edge of the domain, where sqrt(1 - a^2) is 0
        batch = qsp_unitary(phases, a)
        assert batch.shape == shape + (2, 2)
        for index in np.ndindex(shape):
            np.testing.assert_array_equal(batch[index], qsp_unitary(phases, float(a[index])))
    np.testing.assert_array_equal(signal_w(a)[2, 4], signal_w(float(a[2, 4])))


def test_non_finite_signal_values_rejected():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            signal_w(bad)
        with pytest.raises(ValueError, match="finite"):
            qsp_unitary([0.1, 0.2], bad)
        with pytest.raises(ValueError, match="finite"):
            qsp_unitary([0.1, 0.2], [0.5, bad])
        with pytest.raises(ValueError, match="finite"):
            response_curve([0.1, 0.2], [0.0, bad])
    with pytest.raises(ValueError, match="<= 1"):
        qsp_unitary([0.1, 0.2], [0.5, -1.5])


@pytest.mark.parametrize("degree", [1, 3, 8])
def test_polynomial_entries_over_arrays_equal_per_point_calls(degree):
    rng = np.random.default_rng(100 + degree)
    phases = rng.uniform(-np.pi, np.pi, degree + 1)
    scalar = rng.uniform(-0.99, 0.99)
    p, q = polynomial_entries(phases, scalar)
    assert np.ndim(p) == 0 and np.ndim(q) == 0
    np.testing.assert_array_equal(polynomial_entries(phases, np.asarray(scalar)), (p, q))
    for shape in ((7,), (3, 5)):
        a = rng.uniform(-0.99, 0.99, shape)
        p, q = polynomial_entries(phases, a)
        assert p.shape == q.shape == shape
        for index in np.ndindex(shape):
            np.testing.assert_array_equal((p[index], q[index]),
                                          polynomial_entries(phases, float(a[index])))
    with pytest.raises(ValueError, match=r"\|a\| = 1"):
        polynomial_entries(phases, np.array([0.2, -1.0]))


def _plain_row(phases, a):
    """The top row (P, i Q sqrt(1 - a^2)) of the product by explicit 2x2
    row-vector algebra on Python complex numbers."""
    s = 1j * math.sqrt(max(0.0, 1.0 - a * a))
    u00, u01 = cmath.exp(1j * phases[0]), 0j
    for theta in phases[1:]:
        u00, u01 = u00 * a + u01 * s, u00 * s + u01 * a
        u00, u01 = u00 * cmath.exp(1j * theta), u01 * cmath.exp(-1j * theta)
    return u00, u01


def _plain_p(phases, a):
    """P(a) of _plain_row."""
    return _plain_row(phases, a)[0]


def _residual_terms(phases, samples):
    """|P(a)|^2 - t^2 of (a, t) samples through qsp_unitary: the reference
    for the residuals the phase finder fits and checks."""
    a, t = np.array(samples, dtype=float).reshape(-1, 2).T
    return qsp._abs_squared(qsp_unitary(phases, a)[..., 0, 0]) - t * t


def _stacked_residuals_and_jacobian(phases, w, t):
    """The evaluation as a generator of prefix pairs stacked with np.stack:
    the reference that _residuals_and_jacobian must equal bit for bit."""
    def prefixes():
        phase = np.exp(1j * np.asarray(phases, dtype=float))[:, None]
        u = (np.broadcast_to(phase[0], w[1].shape), np.zeros_like(w[1]))
        yield u
        for step in zip(w[0] * phase[1:], w[1] * phase[1:]):
            u = su2_product(u, step)
            yield u

    alpha, beta = (np.stack(entries) for entries in zip(*prefixes()))
    p, beta_u = alpha[-1], beta[-1]
    weight = np.abs(alpha) ** 2 - np.abs(beta) ** 2
    dp = 1j * (weight * p + 2.0 * alpha * np.conj(beta) * beta_u)
    jac = 2.0 * (p.real * dp.real + p.imag * dp.imag)
    return qsp._abs_squared(p) - t * t, jac.T


def _random_signals(rng, count):
    a = rng.uniform(-1.0, 1.0, count)
    return a, rng.uniform(0.0, 1.0, count)


@pytest.mark.parametrize("degree", range(1, 9))
def test_jacobian_matches_central_differences(degree):
    rng = np.random.default_rng(200 + degree)
    h = 1e-6
    for _ in range(5):
        phases = rng.uniform(-np.pi, np.pi, degree + 1)
        a, t = _random_signals(rng, 6)
        r, jac = qsp._residuals_and_jacobian(phases, qsp._signal_pair(a), t)
        np.testing.assert_array_equal(r, _residual_terms(phases, list(zip(a, t))))
        assert jac.shape == (a.size, degree + 1)
        for k in range(degree + 1):
            step = np.zeros(degree + 1)
            step[k] = h
            central = (_residual_terms(phases + step, list(zip(a, t)))
                       - _residual_terms(phases - step, list(zip(a, t)))) / (2 * h)
            np.testing.assert_allclose(jac[:, k], central, rtol=0.0, atol=1e-8)


@pytest.mark.parametrize("count", [1, 3, 25])
def test_evaluation_is_bitwise_the_stacked_prefix_reference(count):
    rng = np.random.default_rng(300 + count)
    for degree in range(1, 18):
        phases = rng.uniform(-np.pi, np.pi, degree + 1)
        a, t = _random_signals(rng, count)
        a[0] = 1.0  # the edge of the domain, where W's off-diagonal is 0
        w = qsp._signal_pair(a)
        r, jac = qsp._residuals_and_jacobian(phases, w, t)
        r_ref, jac_ref = _stacked_residuals_and_jacobian(phases, w, t)
        assert r.tobytes() == r_ref.tobytes() and jac.tobytes() == jac_ref.tobytes()
        assert r.tobytes() == _residual_terms(phases, list(zip(a, t))).tobytes()


def _seeded_problem(spec, finder_seed, count):
    """find_phases' magnitude residuals and |P| tolerance (point_tol 1e-9)
    for spec, and the first count x0 of its seeded generator: the starts the
    finder ran from before it had a closed-form start."""
    a, t = np.array(spec.samples).T
    t = np.abs(t)
    fun = functools.partial(qsp._magnitude_residuals, w=qsp._signal_pair(a), t=t)
    tol = 0.5e-9 / (np.sqrt(t * t + 0.5e-9) + t)
    rng = np.random.default_rng(finder_seed)
    return fun, tol, [rng.uniform(-np.pi, np.pi, spec.degree + 1) for _ in range(count)]


def test_minimize_takes_one_svd_per_distinct_jacobian(monkeypatch):
    # The three seeded starts on spec 1100 reject steps; a rejected step
    # keeps J, and so its SVD.
    jacobians, svd_inputs = [], []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda m, *a, **k: svd_inputs.append(m) or svd(m, *a, **k))
    fun, tol, x0s = _seeded_problem(*_sampled_spec(1100, 3, 3), 3)

    def recorded(x):
        r, jac = fun(x)
        jacobians.append(jac)
        return r, jac

    steps = [qsp.minimize(recorded, x0, tol=tol)[1] for x0 in x0s]
    assert len(svd_inputs) < sum(steps)
    assert all(any(m is jac for jac in jacobians) for m in svd_inputs)
    assert len({id(m) for m in svd_inputs}) == len(svd_inputs)


def test_zero_phases_are_stationary():
    # At theta = 0 every factor is real on the diagonal and imaginary off it,
    # so P is real and each dP/dtheta_k imaginary: the gradient is exactly 0.
    rng = np.random.default_rng(23)
    for degree in range(1, 20):
        a, t = _random_signals(rng, 7)
        r, jac = qsp._residuals_and_jacobian(np.zeros(degree + 1), qsp._signal_pair(a), t)
        np.testing.assert_array_equal(r @ jac, 0.0)
        assert np.any(r != 0.0)


def test_chebyshev_spec_is_solved_by_the_zero_start_alone(monkeypatch):
    calls = []
    minimize = qsp.minimize
    monkeypatch.setattr(qsp, "minimize", lambda *a, **k: calls.append(1) or minimize(*a, **k))
    for degree in (1, 4, 17):
        np.testing.assert_array_equal(find_phases(PolynomialSpec.chebyshev(degree)),
                                      np.zeros(degree + 1))
    assert calls == []
    # One sample cannot fix the two coefficients of a degree-3 fit, so this
    # spec reaches the solver: the patch above is live.
    find_phases(_UNDETERMINED)
    assert calls


def test_each_start_is_logged_at_debug_level(caplog):
    with caplog.at_level(logging.DEBUG, logger="spinkey.qsp"):
        find_phases(_UNDETERMINED, seed=3)
        # Degree 1 forces |P(a)| = |a|, so this spec is infeasible.
        with pytest.raises(PhaseFindingError) as err:
            find_phases(PolynomialSpec.sampled([(0.9, 1.0), (0.3, 0.0)], degree=1))
    # args: (start index, residual sum, worst point residual, iterations)
    records = [rec.args for rec in caplog.records if rec.name == "spinkey.qsp"]
    solved, failed = records[:-32], records[-32:]
    assert [args[0] for args in solved] == list(range(len(solved)))
    assert solved[0][3] == 0 and solved[-1][3] > 0 and solved[-1][2] <= 1e-9
    assert [args[0] for args in failed] == list(range(32))
    assert err.value.best_residual == min(args[1] for args in failed)


def _sampled_spec(seed, degree, count):
    """perfbench's sampled-spec recipe: |P| of a random product at sorted
    points in [0.05, 0.95], and a finder seed drawn after the pairs."""
    rng = np.random.default_rng(seed)
    phases = rng.uniform(-math.pi, math.pi, degree + 1)
    points = np.sort(rng.uniform(0.05, 0.95, count))
    pairs = [(float(a), abs(_plain_p(phases, float(a)))) for a in points]
    return PolynomialSpec.sampled(pairs, degree), int(rng.integers(2**31))


# One sample: the degree-3 fit has two coefficients and one row, so the
# closed form declines and the finder runs its seeded draws.
_UNDETERMINED = PolynomialSpec.sampled([(0.6, 0.4)], 3)


def _degree3_sampled_spec(seed):
    """Three |P| samples of a random degree-3 product and a finder seed."""
    return _sampled_spec(seed, 3, 3)


def test_find_phases_checks_the_reference_residuals(monkeypatch, caplog):
    # Each start's logged residual sum and worst point are those of
    # _residual_terms at the start's point: the zero start, the closed-form
    # phases (checked before any minimize call) and every minimize result.
    points = []
    minimize, closed_form_start = qsp.minimize, qsp._closed_form_start

    def recorded(*args, **kwargs):
        x, iterations = minimize(*args, **kwargs)
        points.append(x)
        return x, iterations

    def recorded_start(*args):
        x0 = closed_form_start(*args)
        if x0 is not None:
            points.append(x0)
        return x0

    monkeypatch.setattr(qsp, "minimize", recorded)
    monkeypatch.setattr(qsp, "_closed_form_start", recorded_start)
    infeasible = PolynomialSpec.sampled([(0.9, 1.0), (0.3, 0.0)], degree=1)
    missing = PolynomialSpec.sampled([(0.5, 0.0), (0.7, 0.5)], degree=3)
    cases = [(PolynomialSpec.bisecting(), 3), _sampled_spec(1097, 3, 3),
             _sampled_spec(2001, 2, 3), (PolynomialSpec.chebyshev(5), 0), (infeasible, 0),
             (_UNDETERMINED, 3), (missing, 0), _sampled_spec(38, 8, 8)]
    for spec, seed in cases:
        caplog.clear()
        points.clear()
        with caplog.at_level(logging.DEBUG, logger="spinkey.qsp"):
            try:
                find_phases(spec, seed=seed)
            except PhaseFindingError:
                assert spec in (infeasible, missing)
        records = [rec.args for rec in caplog.records if rec.name == "spinkey.qsp"]
        assert len(records) == len(points) + 1
        for (_, total, worst, _), point in zip(records, [np.zeros(spec.degree + 1)] + points):
            residuals = _residual_terms(point, spec.samples)
            assert (total, worst) == (float(np.sum(residuals ** 2)), np.max(np.abs(residuals)))


def test_every_spec_kind_is_solved_under_an_independent_product():
    cases = [(PolynomialSpec.chebyshev(d), 0) for d in range(1, 18)]
    cases += [(PolynomialSpec.bisecting(), seed) for seed in (0, 1, 123)]
    cases += [_degree3_sampled_spec(seed) for seed in range(1000, 1040)]
    phases = np.random.default_rng(4).uniform(-math.pi, math.pi, 5)
    pairs = [(a, abs(_plain_p(phases, a))) for a in (-0.3, 0.3, 0.6, 0.9)]
    cases.append((PolynomialSpec.sampled(pairs, 4), 5))
    # Rounding splits a far conjugate root pair of this spec's closed-form fit
    # onto the real line, so the construction declines and seeded draws solve it.
    cases.append(_zero_target_spec(109, 5))
    for spec, seed in cases:
        phases = find_phases(spec, seed=seed)
        assert phases.shape == (spec.degree + 1,)
        worst = max(abs(abs(_plain_p(phases.tolist(), a)) ** 2 - t * t)
                    for a, t in spec.samples)
        assert worst <= 1e-9 + 1e-12, (spec.samples, spec.degree, seed, worst)


def _parity_clash_by_loop(pairs):
    return any(np.isclose(a1, -a2) and not np.isclose(abs(t1), abs(t2), atol=1e-12)
               for a1, t1 in pairs for a2, t2 in pairs)


def test_sampled_parity_check_matches_the_pairwise_loop():
    rng = np.random.default_rng(31)
    for _ in range(200):
        a = rng.choice([0.0, 0.25, 0.5, 0.5 + 1e-9, 0.7], size=rng.integers(1, 5))
        a = a * rng.choice([-1.0, 1.0], size=a.size)
        t = rng.choice([0.3, 0.3 + 1e-13, 0.3 + 1e-9, 0.6], size=a.size)
        pairs = list(zip(a.tolist(), t.tolist()))
        if _parity_clash_by_loop(pairs):
            with pytest.raises(ValueError, match="definite-parity"):
                PolynomialSpec.sampled(pairs, 2)
        else:
            assert PolynomialSpec.sampled(pairs, 2).samples == tuple(pairs)


def test_parity_check_agrees_with_np_isclose_at_its_tolerance_edges():
    # Offsets straddle atol + rtol |y| for both tests, where rtol decides.
    for a0, t0 in ((0.5, 0.3), (0.9, 0.0), (0.05, 1.0), (0.0, 0.7)):
        edge_a, edge_t = 1e-8 + 1e-5 * a0, 1e-12 + 1e-5 * t0
        offsets_a = [0.0, 0.5 * edge_a, 2.0 * edge_a, 1e-8, 1.5e-8, 1e-5 * a0]
        offsets_t = [0.0, 0.5 * edge_t, 2.0 * edge_t, 1e-12, 1e-5 * t0]
        offsets_a += [np.nextafter(edge_a, side) for side in (0.0, 1.0)]
        fixed = edge_a  # at a0 = 0, |x - y| then equals atol + rtol |y| exactly
        for _ in range(4):
            fixed = 1e-8 + 1e-5 * fixed
        offsets_a.append(fixed)
        offsets_t += [np.nextafter(edge_t, side) for side in (0.0, 1.0)]
        for da in offsets_a:
            for dt in offsets_t:
                pairs = [(a0, t0), (-(a0 + da), min(t0 + dt, 1.0))]
                if _parity_clash_by_loop(pairs):
                    with pytest.raises(ValueError, match="definite-parity"):
                        PolynomialSpec.sampled(pairs, 2)
                else:
                    assert PolynomialSpec.sampled(pairs, 2).samples == tuple(pairs)


@pytest.mark.parametrize("build, field", [
    (lambda: PolynomialSpec.sampled([(math.nan, 0.5), (0.3, math.nan)], 2), r"samples\[0\]"),
    (lambda: PolynomialSpec.sampled([(0.3, 0.5), (0.4, math.nan)], 2), r"samples\[1\]"),
    (lambda: PolynomialSpec.sampled([(math.inf, 0.5)], 2), r"samples\[0\]"),
    (lambda: PolynomialSpec.sampled([(0.3, -math.inf)], 2), r"samples\[0\]"),
    (lambda: PolynomialSpec.sampled([], 2), "at least one"),
    (lambda: PolynomialSpec.sampled([(0.3, 0.5)], -1), "degree"),
    (lambda: PolynomialSpec.sampled([(0.3, 0.5)], 0), "degree"),
    (lambda: PolynomialSpec.sampled([(0.3, 0.5)], 2.7), "degree"),
    (lambda: PolynomialSpec.sampled([(0.3, 0.5)], 2.0), "degree"),
    (lambda: PolynomialSpec.chebyshev(2.5), "degree"),
    (lambda: PolynomialSpec.chebyshev(0), "degree"),
    (lambda: PolynomialSpec.chebyshev(True), "degree"),
    (lambda: PolynomialSpec(0, ((0.3, 0.5),)), "degree"),
    (lambda: PolynomialSpec(2.0, ((0.3, 0.5),)), "degree"),
    (lambda: PolynomialSpec(2, ((math.nan, 0.5),)), r"samples\[0\]"),
    (lambda: PolynomialSpec(2, ()), "at least one"),
    (lambda: PolynomialSpec(2, ((0.3, 1.5),)), "infeasible target"),
    (lambda: PolynomialSpec(2, ((0.5, 1.0), (-0.5, 0.2))), "definite-parity"),
    (lambda: PolynomialSpec(2, ((0.3, "x"),)), r"samples\[0\]"),
    (lambda: PolynomialSpec(2, ((0.3, 0.5), ("0.3", 0.5))), r"samples\[1\]"),
    (lambda: PolynomialSpec(2, ((10 ** 400, 0.5),)), r"samples\[0\]"),
    (lambda: PolynomialSpec(2, ((0.3, 1j),)), r"samples\[0\]"),
    (lambda: PolynomialSpec(2, ((True, 0.5),)), r"samples\[0\]"),
    (lambda: PolynomialSpec(2, ((0.3, np.False_),)), r"samples\[0\]"),
    (lambda: PolynomialSpec(2, ((1.5, 0.5),)), r"samples\[0\]"),
    (lambda: PolynomialSpec(2, ((0.3,),)), "samples must"),
    (lambda: PolynomialSpec(2, ((0.3, 0.5, 0.1),)), "samples must"),
    (lambda: PolynomialSpec(2, (0.3, 0.5)), "samples must"),
    (lambda: PolynomialSpec(2, "ab"), "samples must"),
    (lambda: PolynomialSpec(2, 5), "samples must"),
    (lambda: PolynomialSpec(2, None), "samples must"),
    (lambda: PolynomialSpec.sampled(5, 2), "samples must"),
    (lambda: PolynomialSpec(10 ** 400, ((0.3, 0.5),)), "degree"),
    (lambda: PolynomialSpec(np.iinfo(np.intp).max, ((0.3, 0.5),)), "degree"),
    (lambda: PolynomialSpec.chebyshev(10 ** 400), "degree"),
], ids=["nan-point", "nan-target", "inf-point", "inf-target", "no-samples",
        "sampled-degree-negative", "sampled-degree-0", "sampled-degree-fraction",
        "sampled-degree-float", "chebyshev-degree-fraction", "chebyshev-degree-0",
        "chebyshev-degree-bool", "direct-degree-0", "direct-degree-float", "direct-nan-point",
        "direct-no-samples", "direct-infeasible-target", "direct-parity-clash",
        "string-target", "string-point", "int-beyond-float", "complex-target", "bool-point",
        "numpy-bool-target", "point-above-1", "one-element", "three-elements", "flat-pair",
        "string-samples", "int-samples", "none-samples", "sampled-int-samples",
        "degree-10**400", "degree-intp-max", "chebyshev-degree-10**400"])
def test_spec_rejects_invalid_samples_and_degrees(build, field):
    with pytest.raises(ValueError, match=field):
        build()


def test_spec_degree_accepts_numpy_integers():
    assert PolynomialSpec.chebyshev(np.int64(3)).degree == 3
    spec = PolynomialSpec.sampled([(0.3, 0.5)], np.int32(2))
    assert spec.degree == 2 and type(spec.degree) is int


@pytest.mark.parametrize("seed", [-1, 1.5, "a", True, None],
                         ids=["seed-negative", "seed-fraction", "seed-string", "seed-bool",
                              "seed-none"])
def test_find_phases_rejects_bad_arguments_before_any_start(monkeypatch, seed):
    monkeypatch.setattr(qsp, "minimize", lambda *a, **k: pytest.fail("a start ran"))
    with pytest.raises(ValueError, match="seed"):
        find_phases(PolynomialSpec.bisecting(), seed=seed)


def _worst_plain_residual(phases, spec):
    return max(abs(abs(_plain_p(phases.tolist(), a)) ** 2 - t * t) for a, t in spec.samples)


def test_solver_meets_point_tol_on_every_spec_kind(monkeypatch):
    monkeypatch.setattr(qsp, "minimize", lambda *a, **k: pytest.fail("a start ran"))
    for degree in range(1, 18):
        spec = PolynomialSpec.chebyshev(degree)
        assert _worst_plain_residual(find_phases(spec), spec) <= 1e-9 + 1e-12
    monkeypatch.undo()
    cases = [(PolynomialSpec.bisecting(), seed) for seed in range(32)]
    cases += [_sampled_spec(seed, 2, 2 + seed % 2) for seed in range(2000, 2032)]
    cases += [_sampled_spec(seed, 3, 3) for seed in range(1000, 1200)]
    # Degree 4 includes the specs no seeded start solved (1012, 1061, 1096,
    # 1097, 1100, 1117, 1156, 1162).
    cases += [_sampled_spec(seed, 4, 4) for seed in range(1000, 1200)]
    for spec, seed in cases:
        worst = _worst_plain_residual(find_phases(spec, seed=seed), spec)
        assert worst <= 1e-9 + 1e-12, (spec.samples, spec.degree, seed, worst)


def test_closed_form_start_solves_sampled_specs_in_zero_steps(monkeypatch):
    # The closed-form phases meet point_tol when they are checked, so no
    # minimize call, of any number of steps, is made.
    monkeypatch.setattr(qsp, "minimize", lambda *a, **k: pytest.fail("a start ran"))
    cases = [_sampled_spec(seed, 2, 2 + seed % 2) for seed in range(2000, 2032)]
    cases += [_sampled_spec(seed, degree, degree) for degree in (3, 4)
              for seed in range(1000, 1200)]
    for spec, seed in cases:
        find_phases(spec, seed=seed)


def test_closed_form_start_declines_and_the_draws_stay_put(monkeypatch):
    # One sample gives one distinct y = a^2 strictly inside (0, 1), too few
    # for the two coefficients a degree-3 fit needs, so the first minimize
    # call starts from the generator's first draw.
    a, t = np.array(_UNDETERMINED.samples).T
    assert qsp._closed_form_start(3, a, t) is None
    starts = []
    minimize = qsp.minimize
    monkeypatch.setattr(qsp, "minimize",
                        lambda fun, x0, **k: starts.append(x0) or minimize(fun, x0, **k))
    for seed in (0, 7):
        starts.clear()
        find_phases(_UNDETERMINED, seed=seed)
        np.testing.assert_array_equal(starts[0],
                                      np.random.default_rng(seed).uniform(-np.pi, np.pi, 4))
    # Fits no product can have. In degree 2, |P(0.3)|^2 = 0.04 forces
    # g = 11.7, and then |P|^2 = 1 - g/4 < 0 at y = 1/2. In degree 3,
    # |p|^2 = 1 + (1 - y) g has the top coefficient -g_1, and |P(0.6)| = 0.1,
    # |P(0.8)| = 0.9 force the rising g = -4.42 + 8.06 y.
    for pairs, degree in [([(0.3, 0.2)], 2), ([(0.6, 0.1), (0.8, 0.9)], 3)]:
        a, t = np.array(pairs).T
        assert qsp._closed_form_start(degree, a, t) is None


def test_bisecting_spec_is_solved_in_closed_form_at_every_seed(monkeypatch):
    # The zero targets at a = +/-1/2 add the row A'(1/4) = 0, which fixes
    # the fit at |P|^2 = a^2 (4 a^2 - 1)^2 / 9 whatever the seed.
    monkeypatch.setattr(qsp, "minimize", lambda *a, **k: pytest.fail("a start ran"))
    spec = PolynomialSpec.bisecting()
    vectors = {find_phases(spec, seed=seed).tobytes() for seed in range(32)}
    assert len(vectors) == 1
    phases = np.frombuffer(vectors.pop())
    assert _worst_plain_residual(phases, spec) <= 1e-14
    grid = np.linspace(-1.0, 1.0, 41)
    np.testing.assert_allclose(response_curve(phases, 2.0 * np.arccos(grid)),
                               grid ** 2 * (4.0 * grid ** 2 - 1.0) ** 2 / 9.0, rtol=0.0, atol=1e-14)


def _zero_target_spec(seed, degree):
    """A spec whose first sample is a zero of a random degree-d product, at
    a point in (0.05, 0.95), plus d - 2 samples of its |P|; None when the
    seed's product gives no such zero.

    With the degree d - 1 prefix (P', Q'), P = (a P' - (1 - a^2) Q') e^{i th_d},
    and turning th_(d-1) by phi turns P' by e^{i phi} and Q' by e^{-i phi}.
    Where |P'(a0)|^2 = 1 - a0^2, unitarity gives |a0 P'| = (1 - a0^2) |Q'|,
    so e^{2 i phi} = (1 - a0^2) Q'(a0) / (a0 P'(a0)) makes P(a0) = 0.
    """
    rng = np.random.default_rng(seed)
    phases = rng.uniform(-math.pi, math.pi, degree + 1).tolist()

    def excess(a):
        return abs(_plain_p(phases[:-1], a)) ** 2 - (1.0 - a * a)

    grid = np.linspace(0.05, 0.95, 19).tolist()
    brackets = [(lo, hi) for lo, hi in zip(grid, grid[1:]) if excess(lo) < 0.0 < excess(hi)]
    if not brackets:
        return None
    lo, hi = brackets[0]
    while lo < 0.5 * (lo + hi) < hi:
        lo, hi = (0.5 * (lo + hi), hi) if excess(0.5 * (lo + hi)) < 0.0 else (lo, 0.5 * (lo + hi))
    p, top_right = _plain_row(phases[:-1], lo)
    q = top_right / (1j * math.sqrt(1.0 - lo * lo))
    phases[-2] += 0.5 * cmath.phase((1.0 - lo * lo) * q / (lo * p))
    assert abs(_plain_p(phases, lo)) < 1e-14
    points = rng.uniform(0.05, 0.95, degree - 2).tolist()
    pairs = [(lo, 0.0)] + [(a, abs(_plain_p(phases, a))) for a in points]
    return PolynomialSpec.sampled(pairs, degree), int(rng.integers(2**31))


@pytest.mark.parametrize("degree", [3, 4, 5, 6])
def test_interior_zero_targets_are_solved_in_closed_form(monkeypatch, degree):
    # The zero's value and slope rows give the fit its d - 1 rank with only
    # d - 3 further samples, and |p|^2 gets the double root a zero needs.
    monkeypatch.setattr(qsp, "minimize", lambda *a, **k: pytest.fail("a start ran"))
    cases = [case for case in map(functools.partial(_zero_target_spec, degree=degree),
                                  range(40)) if case]
    assert len(cases) >= 25
    for spec, seed in cases:
        worst = _worst_plain_residual(find_phases(spec, seed=seed), spec)
        assert worst <= 1e-9 + 1e-12, (spec.samples, worst)


def test_a_closed_form_start_that_misses_is_polished_before_any_draw(monkeypatch):
    # At degree 8 the monomial fit of spec 38 misses point_tol (3.6e-5), and
    # one minimize call from it solves the spec. The degree-3 spec has no
    # product (its zero forces |P|^2 = a^2 (4 a^2 - 1)^2 / 9, 0.05 at
    # a = 0.7), so the least-squares start misses, its polish misses, and
    # the seeded draws follow.
    polished, seed = _sampled_spec(38, 8, 8)
    missing = PolynomialSpec.sampled([(0.5, 0.0), (0.7, 0.5)], degree=3)
    starts = []
    minimize = qsp.minimize
    monkeypatch.setattr(qsp, "minimize",
                        lambda fun, x0, **k: starts.append(x0) or minimize(fun, x0, **k))
    for spec in (polished, missing):
        a, t = np.array(spec.samples).T
        x0 = qsp._closed_form_start(spec.degree, a, np.abs(t))
        assert _worst_plain_residual(x0, spec) > 1e-9
        starts.clear()
        try:
            phases = find_phases(spec, seed=seed)
        except PhaseFindingError:
            assert spec is missing
            # The zero start and x0 are checked; the polish and 29 draws call minimize.
            draw = np.random.default_rng(seed).uniform(-np.pi, np.pi, 4)
            assert len(starts) == 30 and np.array_equal(starts[1], draw)
        else:
            assert spec is polished and len(starts) == 1
            assert _worst_plain_residual(phases, spec) <= 1e-9 + 1e-12
        np.testing.assert_array_equal(starts[0], x0)


@pytest.mark.parametrize("seed", [1100, 1012, 1117, 1097])
def test_slow_tail_specs_are_solved_within_an_iteration_cap(seed):
    # The seeded starts on each of these stall or creep where J is nearly
    # singular. Run one after another until one meets point_tol, as the
    # finder ran them before it had a closed-form start, they stay within
    # the cap, which counts every step minimize tries over all starts.
    spec, finder_seed = _sampled_spec(seed, 3, 3)
    fun, tol, x0s = _seeded_problem(spec, finder_seed, 31)
    steps = []
    for x0 in x0s:
        x, iterations = qsp.minimize(fun, x0, tol=tol)
        steps.append(iterations)
        if _worst_plain_residual(x, spec) <= 1e-9:
            break
    assert _worst_plain_residual(x, spec) <= 1e-9 + 1e-12
    assert sum(steps) <= 200, steps


def test_stalled_start_is_abandoned_and_logged(caplog):
    # On spec 1097 the first seeded start stalls and the second solves.
    fun, tol, x0s = _seeded_problem(*_sampled_spec(1097, 3, 3), 2)
    with caplog.at_level(logging.DEBUG, logger="spinkey.qsp"):
        runs = [qsp.minimize(fun, x0, tol=tol) for x0 in x0s]
    reasons = [rec.getMessage() for rec in caplog.records if rec.name == "spinkey.qsp.minimize"]
    assert reasons and all("stalled" in reason for reason in reasons)
    assert len(runs) == len(reasons) + 1  # the solving one logs no reason
    assert np.all(np.abs(fun(runs[-1][0])[0]) <= tol)


def test_same_seed_gives_bitwise_equal_phases():
    for spec, seed in [(PolynomialSpec.bisecting(), 7), _sampled_spec(1100, 3, 3),
                       _sampled_spec(2001, 2, 3)]:
        np.testing.assert_array_equal(find_phases(spec, seed=seed), find_phases(spec, seed=seed))


def test_infeasible_spec_raises_with_a_finite_best_residual():
    # Degree 1 forces |P(a)| = |a|: both columns of J vanish, so every start
    # stops at once and the best residual is that of |a| against the targets.
    spec = PolynomialSpec.sampled([(0.9, 1.0), (0.3, 0.0)], degree=1)
    with pytest.raises(PhaseFindingError) as err:
        find_phases(spec)
    assert math.isfinite(err.value.best_residual)
    assert err.value.best_residual == pytest.approx((0.81 - 1.0) ** 2 + 0.09 ** 2, abs=1e-12)


def test_minimize_solves_a_rank_deficient_linear_problem():
    # r = A x - b with a duplicated row, a zero row and a null column, as the
    # phase finder's J has: the minimum-norm step reaches r = 0.
    a = np.array([[1.0, 2.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 0.0], [3.0, -1.0, 0.0]])
    b = a @ np.array([0.3, -0.2, 0.0])
    x, iterations = qsp.minimize(lambda x: (a @ x - b, a), np.ones(3), tol=1e-14)
    np.testing.assert_allclose(a @ x, b, atol=1e-14)
    assert x[2] == 1.0 and iterations <= 10
