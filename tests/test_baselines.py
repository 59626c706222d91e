import numpy as np
import pytest

from spinkey.baselines import (
    advantage_report,
    me_majority,
    me_majority_mc,
    me_single_shot,
    posterior_all_agree,
    srm_povm,
    symmetric_states,
    ud_multi,
    ud_success,
    SymmetricStateSet,
)


def test_triad_overlaps_and_priors():
    for encoding in ("ask", "psk"):
        s = symmetric_states(3, encoding)
        np.testing.assert_allclose(s.overlap_magnitudes(), 0.5, atol=1e-12)
        np.testing.assert_allclose(s.priors, 1 / 3)


def test_single_state_set_is_trivial():
    s = symmetric_states(1)
    assert s.overlap_magnitudes() == []
    assert me_single_shot(s) == pytest.approx(1.0, abs=1e-12)


def test_povm_completeness_and_positivity():
    s = symmetric_states(3)
    povm = srm_povm(s)
    np.testing.assert_allclose(sum(povm), np.eye(2), atol=1e-12)
    for e in povm:
        w = np.linalg.eigvalsh(e)
        assert np.all(w > -1e-12)


def test_single_shot_saturates_helstrom():
    assert me_single_shot(symmetric_states(3)) == pytest.approx(2 / 3, abs=1e-10)


def test_single_shot_orthogonal_pair():
    assert me_single_shot(symmetric_states(2)) == pytest.approx(1.0, abs=1e-10)


def test_non_symmetric_input_rejected():
    up = np.array([1.0, 0.0], dtype=complex)
    tilt = np.array([np.cos(0.2), np.sin(0.2)], dtype=complex)
    near = np.array([np.cos(0.1), np.sin(0.1)], dtype=complex)
    bad = SymmetricStateSet(3, (up, tilt, near), (1 / 3, 1 / 3, 1 / 3))
    with pytest.raises(ValueError, match="symmetric"):
        me_single_shot(bad)


def test_majority_vote_values():
    s = symmetric_states(3)
    assert me_majority(s, 1) == pytest.approx(2 / 3, abs=1e-12)
    # Ties count as failures; four queries then win with exactly 60/81.
    assert me_majority(s, 4) == pytest.approx(60 / 81, abs=1e-12)
    assert 0.73 <= me_majority(s, 4) <= 0.75


def test_majority_deterministic_states():
    s = symmetric_states(2)
    for k in (1, 2, 3, 5):
        assert me_majority(s, k) == pytest.approx(1.0, abs=1e-9)


def test_majority_increases_over_odd_k():
    s = symmetric_states(3)
    values = [me_majority(s, k) for k in (1, 3, 5, 7, 9)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_majority_matches_monte_carlo():
    s = symmetric_states(3)
    exact = me_majority(s, 4)
    estimate = me_majority_mc(s, 4, n_samples=1_000_000, seed=11)
    stderr = np.sqrt(exact * (1 - exact) / 1_000_000)
    assert abs(estimate - exact) < 3 * stderr


def test_posterior_consistency_and_concentration():
    s = symmetric_states(3)
    assert posterior_all_agree(s, 1) == pytest.approx(2 / 3, abs=1e-12)
    expected_k4 = (2 / 3) ** 4 / ((2 / 3) ** 4 + 2 * (1 / 6) ** 4)
    assert posterior_all_agree(s, 4) == pytest.approx(expected_k4, abs=1e-12)
    values = [posterior_all_agree(s, k) for k in range(1, 11)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[-1] > 0.9999


def test_ud_triad_values():
    s = symmetric_states(3)
    assert ud_success(s) == pytest.approx(0.5, abs=1e-12)
    assert ud_multi(s, 4) == pytest.approx(0.9375, abs=1e-12)


def test_ud_rejects_degenerate_sets():
    s = symmetric_states(3)
    identical = SymmetricStateSet(3, (s.states[0],) * 3, s.priors)
    with pytest.raises(ValueError, match="identical"):
        ud_success(identical)
    orthogonal_pair = symmetric_states(2)
    widened = SymmetricStateSet(
        3, orthogonal_pair.states + (orthogonal_pair.states[0],), (1 / 3,) * 3
    )
    with pytest.raises(ValueError):
        ud_success(widened)


def test_advantage_report_rows():
    report = advantage_report(0.994)
    assert len(report) == 5
    assert all(r["beaten"] for r in report[1:])
    low = advantage_report(0.5)
    assert not any(r["beaten"] for r in low[1:])
    probs = [r["success_probability"] for r in report]
    assert all(0.0 <= p <= 1.0 for p in probs)


def _majority_by_enumeration(state_set, k):
    """me_majority by enumerating every outcome tuple in turn."""
    from itertools import product

    from spinkey.baselines import outcome_probabilities

    p = outcome_probabilities(state_set)
    total = 0.0
    for i, eta in enumerate(state_set.priors):
        for outcomes in product(range(state_set.n), repeat=k):
            counts = np.bincount(outcomes, minlength=state_set.n)
            top = counts.max()
            if counts[i] == top and (counts == top).sum() == 1:
                total += eta * float(np.prod(p[i, list(outcomes)]))
    return total


def test_majority_matches_enumeration():
    triad = symmetric_states(3)
    up = np.array([1.0, 0.0], dtype=complex)
    tilted = np.array([np.cos(0.6), np.sin(0.6)], dtype=complex)
    sets = [
        triad,
        SymmetricStateSet(3, triad.states, (0.5, 0.3, 0.2)),
        symmetric_states(2),
        SymmetricStateSet(2, (up, tilted), (0.7, 0.3)),
    ]
    for state_set in sets:
        for k in range(1, 7):
            expected = _majority_by_enumeration(state_set, k)
            assert me_majority(state_set, k) == pytest.approx(expected, abs=1e-13)


@pytest.mark.parametrize("call, field", [
    (lambda s: me_majority(s, 2.5), "k"),
    (lambda s: me_majority(s, True), "k"),
    (lambda s: me_majority(s, 0), "k"),
    (lambda s: posterior_all_agree(s, np.nan), "k"),
    (lambda s: posterior_all_agree(s, 1.5), "k"),
    (lambda s: ud_multi(s, 2.5), "trials"),
    (lambda s: ud_multi(s, np.nan), "trials"),
    (lambda s: ud_multi(s, 0), "trials"),
    (lambda s: symmetric_states(0), "n"),
    (lambda s: symmetric_states(3.0), "n"),
], ids=["majority-fraction", "majority-bool", "majority-0", "posterior-nan",
        "posterior-fraction", "ud-fraction", "ud-nan", "ud-0", "states-0", "states-float"])
def test_baselines_reject_non_integer_counts(call, field):
    with pytest.raises(ValueError, match=rf"^{field} must be an integer"):
        call(symmetric_states(3))


@pytest.mark.parametrize("accuracy", [np.nan, np.inf, -0.1, 1.7])
def test_advantage_report_rejects_accuracy_outside_the_unit_interval(accuracy):
    with pytest.raises(ValueError, match="accuracy"):
        advantage_report(accuracy)
