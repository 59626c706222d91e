import cmath
import json
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
    phases_from_json,
    phases_to_json,
    polynomial_entries,
    qsp_unitary,
    response_curve,
    signal_w,
)
from spinkey.spin_algebra import rotation


def test_package_and_cli_import_without_scipy():
    """Only spinkey.qsp loads scipy; the package and its CLI do not."""
    code = (
        "import sys, spinkey, spinkey.cli\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
        "from spinkey.qsp import find_phases\n"
        "import spinkey.qsp\n"
        "print(callable(find_phases), callable(spinkey.qsp.minimize))\n"
    )
    src = str(Path(spinkey.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.splitlines() == ["[]", "True True"]


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
    spec = PolynomialSpec.sampled([(0.5, 0.7), (-0.5, 0.7)], degree=2)
    assert spec.parity == "even"


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
        find_phases(spec, n_starts=4)
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


def test_phase_json_round_trip():
    phases = np.array([0.1, -2.7182818284590452, np.pi])
    text = phases_to_json(phases)
    back = phases_from_json(text)
    np.testing.assert_array_equal(back, phases)
    assert json.loads(text) == [0.1, -2.7182818284590452, np.pi]


def test_phase_json_rejects_bad_input():
    with pytest.raises(ValueError):
        phases_from_json("[]")
    with pytest.raises(ValueError):
        phases_from_json('[1.0, "NaN"]')


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


def _plain_p(phases, a):
    """P(a) by explicit 2x2 row-vector algebra on Python complex numbers."""
    s = 1j * math.sqrt(max(0.0, 1.0 - a * a))
    u00, u01 = cmath.exp(1j * phases[0]), 0j
    for theta in phases[1:]:
        u00, u01 = u00 * a + u01 * s, u00 * s + u01 * a
        u00, u01 = u00 * cmath.exp(1j * theta), u01 * cmath.exp(-1j * theta)
    return u00


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
        r, jac = qsp._residuals_and_jacobian(phases, signal_w(a), t)
        np.testing.assert_array_equal(r, qsp._residual_terms(phases, list(zip(a, t))))
        assert jac.shape == (a.size, degree + 1)
        for k in range(degree + 1):
            step = np.zeros(degree + 1)
            step[k] = h
            central = (qsp._residual_terms(phases + step, list(zip(a, t)))
                       - qsp._residual_terms(phases - step, list(zip(a, t)))) / (2 * h)
            np.testing.assert_allclose(jac[:, k], central, rtol=0.0, atol=1e-8)


def test_zero_phases_are_stationary():
    # At theta = 0 every factor is real on the diagonal and imaginary off it,
    # so P is real and each dP/dtheta_k imaginary: the gradient is exactly 0.
    rng = np.random.default_rng(23)
    for degree in range(1, 20):
        a, t = _random_signals(rng, 7)
        r, jac = qsp._residuals_and_jacobian(np.zeros(degree + 1), signal_w(a), t)
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
    find_phases(PolynomialSpec.bisecting())
    assert calls


def test_each_start_is_logged_at_debug_level(caplog):
    with caplog.at_level(logging.DEBUG, logger="spinkey.qsp"):
        find_phases(PolynomialSpec.bisecting(), seed=3)
        # Degree 1 forces |P(a)| = |a|, so this spec is infeasible.
        with pytest.raises(PhaseFindingError) as err:
            find_phases(PolynomialSpec.sampled([(0.9, 1.0), (0.3, 0.0)], degree=1), n_starts=3)
    # args: (start index, residual sum, worst point residual, iterations)
    records = [rec.args for rec in caplog.records if rec.name == "spinkey.qsp"]
    solved, failed = records[:-3], records[-3:]
    assert [args[0] for args in solved] == list(range(len(solved)))
    assert solved[0][3] == 0 and solved[-1][3] > 0 and solved[-1][2] <= 1e-9
    assert [args[0] for args in failed] == [0, 1, 2]
    assert err.value.best_residual == min(args[1] for args in failed)


def _degree3_sampled_spec(seed):
    """Three |P| samples of a random degree-3 product and a finder seed."""
    rng = np.random.default_rng(seed)
    phases = rng.uniform(-math.pi, math.pi, 4)
    points = np.sort(rng.uniform(0.05, 0.95, 3))
    pairs = [(float(a), abs(_plain_p(phases, float(a)))) for a in points]
    return PolynomialSpec.sampled(pairs, 3), int(rng.integers(2**31))


def test_every_spec_kind_is_solved_under_an_independent_product():
    cases = [(PolynomialSpec.chebyshev(d), 0) for d in range(1, 18)]
    cases += [(PolynomialSpec.bisecting(), seed) for seed in (0, 1, 123)]
    cases += [_degree3_sampled_spec(seed) for seed in range(1000, 1040)]
    phases = np.random.default_rng(4).uniform(-math.pi, math.pi, 5)
    pairs = [(a, abs(_plain_p(phases, a))) for a in (-0.3, 0.3, 0.6, 0.9)]
    cases.append((PolynomialSpec.sampled(pairs, 4), 5))
    for spec, seed in cases:
        phases = find_phases(spec, seed=seed)
        assert phases.shape == (spec.degree + 1,)
        worst = max(abs(abs(_plain_p(phases.tolist(), a)) ** 2 - t * t)
                    for a, t in spec.samples)
        assert worst <= 1e-9 + 1e-12, (spec.kind, spec.degree, seed, worst)


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


@pytest.mark.parametrize("build, field", [
    (lambda: PolynomialSpec.sampled([(math.nan, 0.5), (0.3, math.nan)], 2), "sample 0"),
    (lambda: PolynomialSpec.sampled([(0.3, 0.5), (0.4, math.nan)], 2), "sample 1"),
    (lambda: PolynomialSpec.sampled([(math.inf, 0.5)], 2), "sample 0"),
    (lambda: PolynomialSpec.sampled([(0.3, -math.inf)], 2), "sample 0"),
    (lambda: PolynomialSpec.sampled([], 2), "at least one"),
    (lambda: PolynomialSpec.sampled([(0.3, 0.5)], -1), "degree"),
    (lambda: PolynomialSpec.sampled([(0.3, 0.5)], 0), "degree"),
    (lambda: PolynomialSpec.sampled([(0.3, 0.5)], 2.7), "degree"),
    (lambda: PolynomialSpec.sampled([(0.3, 0.5)], 2.0), "degree"),
    (lambda: PolynomialSpec.chebyshev(2.5), "degree"),
    (lambda: PolynomialSpec.chebyshev(0), "degree"),
    (lambda: PolynomialSpec.chebyshev(True), "degree"),
    (lambda: PolynomialSpec("sampled", 0, ((0.3, 0.5),)), "degree"),
    (lambda: PolynomialSpec("sampled", 2.0, ((0.3, 0.5),)), "degree"),
    (lambda: PolynomialSpec("bogus", 2, ((0.3, 0.5),)), "kind"),
    (lambda: PolynomialSpec("sampled", 2, ((math.nan, 0.5),)), "sample 0"),
    (lambda: PolynomialSpec("sampled", 2, ()), "at least one"),
    (lambda: PolynomialSpec("sampled", 2, ((0.3, 1.5),)), "infeasible target"),
    (lambda: PolynomialSpec("sampled", 2, ((0.5, 1.0), (-0.5, 0.2))), "definite-parity"),
], ids=["nan-point", "nan-target", "inf-point", "inf-target", "no-samples",
        "sampled-degree-negative", "sampled-degree-0", "sampled-degree-fraction",
        "sampled-degree-float", "chebyshev-degree-fraction", "chebyshev-degree-0",
        "chebyshev-degree-bool", "direct-degree-0", "direct-degree-float",
        "direct-unknown-kind", "direct-nan-point", "direct-no-samples",
        "direct-infeasible-target", "direct-parity-clash"])
def test_spec_rejects_invalid_samples_and_degrees(build, field):
    with pytest.raises(ValueError, match=field):
        build()


def test_spec_degree_accepts_numpy_integers():
    assert PolynomialSpec.chebyshev(np.int64(3)).degree == 3
    spec = PolynomialSpec.sampled([(0.3, 0.5)], np.int32(2))
    assert spec.degree == 2 and type(spec.degree) is int


@pytest.mark.parametrize("kwargs, field", [
    ({"n_starts": 0}, "n_starts"),
    ({"n_starts": -3}, "n_starts"),
    ({"n_starts": 2.5}, "n_starts"),
    ({"point_tol": math.nan}, "point_tol"),
    ({"point_tol": math.inf}, "point_tol"),
    ({"point_tol": -1.0}, "point_tol"),
    ({"point_tol": 0.0}, "point_tol"),
], ids=["n_starts-0", "n_starts-negative", "n_starts-fraction", "point_tol-nan",
        "point_tol-inf", "point_tol-negative", "point_tol-0"])
def test_find_phases_rejects_bad_arguments_before_any_start(monkeypatch, kwargs, field):
    monkeypatch.setattr(qsp, "minimize", lambda *a, **k: pytest.fail("a start ran"))
    with pytest.raises(ValueError, match=field):
        find_phases(PolynomialSpec.bisecting(), **kwargs)
