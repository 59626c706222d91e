import json

import numpy as np
import pytest

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
