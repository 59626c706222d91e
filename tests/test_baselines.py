import itertools
import math
import os
import resource
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from spinkey.baselines import (
    advantage_report,
    me_majority,
    me_single_shot,
    outcome_probabilities,
    posterior_all_agree,
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


def _srm_reference(state_set):
    """p[i, o] from the POVM elements E_o = rho^-1/2 eta_o |psi_o><psi_o| rho^-1/2,
    with rho inverted on its support."""
    states = np.array(state_set.states)
    rho = sum(eta * np.outer(psi, psi.conj()) for eta, psi in zip(state_set.priors, states))
    w, v = np.linalg.eigh(rho)
    keep = w > 1e-12
    inv_sqrt = (v[:, keep] / np.sqrt(w[keep])) @ v[:, keep].conj().T
    povm = [eta * np.outer(inv_sqrt @ psi, (inv_sqrt @ psi).conj())
            for eta, psi in zip(state_set.priors, states)]
    return np.array([[np.vdot(psi, e @ psi).real for e in povm] for psi in states])


def test_outcome_probabilities_match_the_povm_reference():
    triad = symmetric_states(3)
    up = np.array([1.0, 0.0], dtype=complex)
    tilted = np.array([np.cos(0.6), np.sin(0.6)], dtype=complex)
    sets = [symmetric_states(n, encoding) for n in (1, 2, 3) for encoding in ("ask", "psk")]
    sets += [SymmetricStateSet(triad.states, (0.5, 0.3, 0.2)),
             SymmetricStateSet((up, tilted), (0.7, 0.3))]
    for state_set in sets:
        p = outcome_probabilities(state_set)
        np.testing.assert_allclose(p, _srm_reference(state_set), rtol=0, atol=1e-14)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert np.all(p >= 0.0)


def test_single_shot_saturates_helstrom():
    assert me_single_shot(symmetric_states(3)) == pytest.approx(2 / 3, abs=1e-10)


def test_single_shot_orthogonal_pair():
    assert me_single_shot(symmetric_states(2)) == pytest.approx(1.0, abs=1e-10)


def test_non_symmetric_input_rejected():
    up = np.array([1.0, 0.0], dtype=complex)
    tilt = np.array([np.cos(0.2), np.sin(0.2)], dtype=complex)
    near = np.array([np.cos(0.1), np.sin(0.1)], dtype=complex)
    bad = SymmetricStateSet((up, tilt, near), (1 / 3, 1 / 3, 1 / 3))
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


def me_majority_mc(state_set, k=4, n_samples=1_000_000, seed=0):
    """Monte Carlo estimate of me_majority: the independent reference for its
    closed-form multinomial sum."""
    p = outcome_probabilities(state_set)
    n = state_set.n
    rng = np.random.default_rng(seed)
    wins = 0
    for i, eta in enumerate(state_set.priors):
        m = int(round(eta * n_samples))
        draws = rng.choice(n, size=(m, k), p=p[i])
        counts = np.stack([(draws == j).sum(axis=1) for j in range(n)], axis=1)
        top = counts.max(axis=1)
        unique = (counts == top[:, None]).sum(axis=1) == 1
        wins += int(np.sum(unique & (counts[:, i] == top)))
    return wins / n_samples


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
    identical = SymmetricStateSet((s.states[0],) * 3, s.priors)
    with pytest.raises(ValueError, match="identical"):
        ud_success(identical)
    orthogonal_pair = symmetric_states(2)
    widened = SymmetricStateSet(
        orthogonal_pair.states + (orthogonal_pair.states[0],), (1 / 3,) * 3
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


def test_advantage_report_solves_the_measurement_once(monkeypatch):
    """One eigh call in baselines per report, and the same rows bit for bit
    as the public functions called on a fresh triad."""
    from spinkey import baselines

    calls = []
    eigh = np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(sys._getframe(1).f_globals["__name__"])
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    report = advantage_report(0.994)
    assert calls.count(baselines.__name__) == 1
    monkeypatch.undo()
    expected = [0.994, me_single_shot(symmetric_states()), me_majority(symmetric_states(), 4),
                posterior_all_agree(symmetric_states(), 4), ud_multi(symmetric_states(), 4)]
    assert [float(r["success_probability"]).hex() for r in report] == [x.hex() for x in expected]


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
        SymmetricStateSet(triad.states, (0.5, 0.3, 0.2)),
        symmetric_states(2),
        SymmetricStateSet((up, tilted), (0.7, 0.3)),
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


@pytest.mark.parametrize("accuracy", [np.nan, np.inf, -0.1, 1.7, True])
def test_advantage_report_rejects_accuracy_outside_the_unit_interval(accuracy):
    with pytest.raises(ValueError, match="accuracy"):
        advantage_report(accuracy)


_TRIAD = symmetric_states(3)


@pytest.mark.parametrize("states, priors, field", [
    (_TRIAD.states, (1.0, 1.0, 1.0), "priors"),
    (_TRIAD.states, (0.5, 0.3, 0.1), "priors"),
    (_TRIAD.states, (0.0, 0.5, 0.5), "priors"),
    (_TRIAD.states, (-0.5, 1.0, 0.5), "priors"),
    (_TRIAD.states, (np.nan, 0.5, 0.5), "priors"),
    (tuple(2 * psi for psi in _TRIAD.states), _TRIAD.priors, "states"),
    (_TRIAD.states[:2] + (np.array([np.nan, 1.0]),), _TRIAD.priors, "states"),
    (_TRIAD.states[:2] + (np.array([np.inf, 0.0]),), _TRIAD.priors, "states"),
    (_TRIAD.states[:2] + (np.array([1.0, 0.0, 0.0]),), _TRIAD.priors, "states"),
    (_TRIAD.states, (0.5, 0.5), "priors"),
    ((), (), "priors"),
], ids=["priors-unnormalised", "priors-sum-0.9", "priors-zero", "priors-negative",
        "priors-nan", "states-doubled", "states-nan", "states-inf", "states-ragged",
        "two-priors", "empty"])
def test_state_set_rejects_invalid_fields(states, priors, field):
    with pytest.raises(ValueError, match=rf"^{field} must"):
        SymmetricStateSet(states, priors)


def test_state_set_counts_its_own_states():
    for n in (1, 2, 3, 5):
        assert symmetric_states(n).n == n
    with pytest.raises(AttributeError):
        symmetric_states(3).n = 4


@pytest.mark.parametrize("k", [1840, 10 ** 6])
def test_posterior_all_agree_stays_finite_at_large_k(k):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = posterior_all_agree(symmetric_states(3), k)
    assert math.isfinite(value) and 0.0 < value <= 1.0


@pytest.mark.parametrize("encoding", ["ask", "psk"])
def test_posterior_all_agree_is_within_4_ulp_of_the_exact_value(encoding):
    triad = symmetric_states(3, encoding)
    for k in range(1, 41):
        exact = 1 / (1 + 2 * Fraction(1, 4) ** k)
        value = posterior_all_agree(triad, k)
        assert abs(Fraction(value) - exact) <= 4 * Fraction(math.ulp(float(exact))), k
    assert posterior_all_agree(triad, 4) == 128 / 129


def _majority_vote_tuples(state_set, k):
    """me_majority with the count vectors taken from every k-long vote tuple
    of combinations_with_replacement and the factorials as floats."""
    p = outcome_probabilities(state_set)
    n = state_set.n
    votes = np.array(list(itertools.combinations_with_replacement(range(n), k)))
    counts = (votes[:, :, None] == np.arange(n)).sum(axis=1)
    factorial = np.array([math.factorial(j) for j in range(k + 1)], dtype=float)
    ways = factorial[k] / factorial[counts].prod(axis=1)
    top = counts.max(axis=1)
    unique = (counts == top[:, None]).sum(axis=1) == 1
    winner = counts.argmax(axis=1)
    priors = np.asarray(state_set.priors, dtype=float)
    weight = priors[winner] * ways * (p[winner] ** counts).prod(axis=1)
    return float(weight[unique].sum())


def _equal_overlap_states(n, a):
    """n unit vectors sqrt(1 - a) e_i + sqrt(a / n) (1, ..., 1), normalised:
    every pairwise overlap has one magnitude."""
    v = np.eye(n) * math.sqrt(1.0 - a) + math.sqrt(a / n)
    v /= np.linalg.norm(v, axis=1)[:, None]
    return SymmetricStateSet(tuple(v.astype(complex)), tuple([1.0 / n] * n))


def test_majority_is_bitwise_the_vote_tuple_sum():
    sets = ([symmetric_states(n, encoding) for n in (1, 2, 3) for encoding in ("ask", "psk")]
            + [_equal_overlap_states(n, a) for n in (2, 3, 4, 5) for a in (0.1, 0.5, 0.9)])
    for state_set in sets:
        for k in range(1, 11):
            assert me_majority(state_set, k) == _majority_vote_tuples(state_set, k), (state_set, k)


def _scaled(x, exponent):
    """x * 2**exponent as a mantissa in [0.5, 1) and a new exponent."""
    mantissa, shift = math.frexp(x)
    return mantissa, exponent + shift


def _triad_majority_closed_form(p, priors, k):
    """Majority-vote success on three outcomes, term by term over (c0, c1, c2):
    C(k, c0) from the exact integer, C(k - c0, c1) by its recurrence in c1,
    each power p[w, j]^c by repeated multiplication, every factor kept as a
    mantissa and a power of two, and the terms summed with math.fsum."""
    def powers(base):
        table, mantissa, exponent = [], 1.0, 0
        for _ in range(k + 1):
            table.append((mantissa, exponent))
            mantissa, exponent = _scaled(mantissa * base, exponent)
        return table

    table = {(w, j): powers(float(p[w, j])) for w in range(3) for j in range(3)}
    terms = []
    for c0 in range(k + 1):
        outer = math.comb(k, c0)
        ways, exponent = outer / (1 << outer.bit_length()), outer.bit_length()
        rest = k - c0
        for c1 in range(rest + 1):
            if c1:
                ways, exponent = _scaled(ways * (rest - c1 + 1) / c1, exponent)
            counts = (c0, c1, rest - c1)
            top = max(counts)
            if counts.count(top) > 1:
                continue
            w = counts.index(top)
            value, scale = ways, exponent
            for j, c in enumerate(counts):
                value *= table[w, j][c][0]
                scale += table[w, j][c][1]
            terms.append(priors[w] * math.ldexp(value, scale))
    return math.fsum(terms)


def test_majority_at_k_1000_runs_in_one_gib():
    """The vote-tuple sum builds a (C, k) array and a (C, k, n) compare at
    C = 501501, about 10 GB in all, and ends in MemoryError here."""
    code = ("from spinkey.baselines import me_majority, symmetric_states; "
            "print(repr(me_majority(symmetric_states(3), 1000)))")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(sys.path)}
    limit = 1 << 30
    child = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert child.returncode == 0, child.stderr
    triad = symmetric_states(3)
    expected = _triad_majority_closed_form(outcome_probabilities(triad), triad.priors, 1000)
    assert abs(float(child.stdout) - expected) <= 1e-12
