"""Incoherent discrimination baselines for the symmetric channel triad.

A single channel query reduces discrimination to distinguishing the
states the candidate rotations produce from a fixed probe. For the three
symmetric candidates all pairwise overlaps have magnitude 1/2, and the
square-root measurement attains the single-shot optimum of 2/3. This
module builds those state sets and evaluates the incoherent strategies the
coherent protocol is compared against: repeated minimum-error measurement
with a majority vote, the Bayesian confidence of unanimous outcomes, and
optimal unambiguous discrimination over several trials.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._checks import check_int, check_real
from .protocols import ASK, PSK
from .spin_algebra import rotation


@dataclass(frozen=True)
class SymmetricStateSet:
    """Candidate states with their priors; overlaps must share one magnitude."""

    n: int
    states: tuple
    priors: tuple

    def overlap_magnitudes(self):
        return [abs(np.vdot(self.states[i], self.states[k]))
                for i in range(self.n) for k in range(i + 1, self.n)]

    def is_symmetric(self, atol=1e-10):
        mags = self.overlap_magnitudes()
        return len(mags) == 0 or max(mags) - min(mags) <= atol


def symmetric_states(n=3, encoding=ASK):
    """States produced by the n equally spaced candidate rotations.

    Amplitude keying applies the candidate x-rotations to the upper basis
    state. Phase keying consists of pi-rotations about equally spaced
    equatorial axes, which all send a pole to the opposite pole; the probe
    is therefore the +x eigenstate, where the candidates differ and the
    pairwise overlap magnitudes match the amplitude-keyed ones. n is an
    integer >= 1.
    """
    n = check_int("n", n)
    angles = [2.0 * math.pi * k / n for k in range(n)]
    if encoding == ASK:
        probe = np.array([1.0, 0.0], dtype=complex)
        states = tuple(rotation(2, a, 0.0) @ probe for a in angles)
    elif encoding == PSK:
        probe = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
        states = tuple(rotation(2, math.pi, a) @ probe for a in angles)
    else:
        raise ValueError(f"unknown encoding {encoding!r}")
    return SymmetricStateSet(n=n, states=states, priors=tuple([1.0 / n] * n))


def srm_povm(state_set):
    """Square-root measurement elements E_i = rho^-1/2 eta_i |psi_i><psi_i| rho^-1/2.

    rho is inverted on its support; for state sets spanning the space the
    elements sum to the identity.
    """
    states = np.array(state_set.states)
    rho = np.einsum("i,ia,ib->ab", state_set.priors, states, states.conj())
    w, v = np.linalg.eigh(rho)
    inv_sqrt = np.zeros(w.size)
    inv_sqrt[w > 1e-12] = 1.0 / np.sqrt(w[w > 1e-12])
    r = (v * inv_sqrt) @ v.conj().T
    return [np.outer(r @ (eta * psi), (r @ psi).conj())
            for eta, psi in zip(state_set.priors, state_set.states)]


def _require_symmetric(state_set):
    if not state_set.is_symmetric():
        raise ValueError(
            "minimum-error analysis is only provided for symmetric state sets"
        )


def outcome_probabilities(state_set):
    """p[i, o]: probability of outcome o when state i was sent."""
    _require_symmetric(state_set)
    povm = np.array(srm_povm(state_set))
    states = np.array(state_set.states)
    return np.einsum("ia,oab,ib->io", states.conj(), povm, states).real


def me_single_shot(state_set):
    """Success probability of the single-query minimum-error measurement.

    The square-root measurement is optimal for symmetric pure states with
    equal priors; for the triad it returns 2/3.
    """
    p = outcome_probabilities(state_set)
    return float(sum(eta * p[i, i] for i, eta in enumerate(state_set.priors)))


def me_majority(state_set, k=4):
    """Majority vote over k independent minimum-error outcomes.

    A tied vote carries no decision and is counted as a failure; with that
    rule four queries on the triad succeed with probability 60/81, about
    74%. (Breaking ties randomly would instead give about 81%.)

    The vote depends only on how often each outcome occurs, so the sum runs
    over count vectors c weighted by the multinomial coefficient
    k! / prod(c_j!): (k+1)(k+2)/2 terms for the triad instead of 3^k
    outcome tuples. Each c with a unique top count contributes
    eta_w k! / prod(c_j!) prod_j p[w, j]^c_j for its winner w.
    """
    k = check_int("k", k)
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


def me_majority_mc(state_set, k=4, n_samples=1_000_000, seed=0):
    """Monte Carlo estimate of me_majority, for cross-checking."""
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


def posterior_all_agree(state_set, k=4):
    """Bayesian posterior of the modal hypothesis after k identical outcomes.

    For the triad this is (2/3)^k / ((2/3)^k + 2 (1/6)^k): 2/3 at k = 1 and
    128/129 = 0.99225 at k = 4, rising monotonically toward certainty.
    """
    k = check_int("k", k)
    p = outcome_probabilities(state_set)
    numer = state_set.priors[0] * p[0, 0] ** k
    denom = sum(eta * p[i, 0] ** k for i, eta in enumerate(state_set.priors))
    return float(numer / denom)


def ud_success(state_set):
    """Optimal unambiguous-discrimination success probability.

    For three states with priors eta_i and overlap magnitudes s_ij:

        P = eta_1 s12 s13 / s23 + eta_2 s12 s23 / s13 + eta_3 s13 s23 / s12

    which is 1/2 for the symmetric triad. Vanishing overlaps make the
    formula singular and identical states fall outside its validity; both
    are rejected.
    """
    if state_set.n != 3:
        raise ValueError("the closed form applies to sets of three states")
    s12, s13, s23 = state_set.overlap_magnitudes()
    for s in (s12, s13, s23):
        if s == 0.0:
            raise ValueError("zero overlap: unambiguous discrimination is trivial "
                             "and the closed form divides by zero")
        if s >= 1.0 - 1e-12:
            raise ValueError("identical states cannot be unambiguously discriminated")
    e1, e2, e3 = state_set.priors
    return float(e1 * s12 * s13 / s23 + e2 * s12 * s23 / s13 + e3 * s13 * s23 / s12)


def ud_multi(state_set, trials=4):
    """Probability that at least one of several trials is conclusive."""
    trials = check_int("trials", trials)
    return 1.0 - (1.0 - ud_success(state_set)) ** trials


def advantage_report(accuracy, state_set=None, k=4):
    """Compare a measured accuracy against the incoherent strategies.

    Returns five rows of (strategy, success_probability, beaten), where
    beaten records whether the supplied accuracy exceeds that strategy.
    accuracy must be a probability: finite and in [0, 1].
    """
    accuracy = float(check_real("accuracy", accuracy, 0.0, maximum=1.0))
    state_set = state_set or symmetric_states()
    rows = [
        ("coherent_protocol", accuracy, None),
        ("minimum_error_single_shot", me_single_shot(state_set), None),
        (f"minimum_error_majority_{k}", me_majority(state_set, k), None),
        (f"posterior_all_agree_{k}", posterior_all_agree(state_set, k), None),
        (f"unambiguous_{k}_trials", ud_multi(state_set, k), None),
    ]
    return [
        {"strategy": name, "success_probability": value,
         "beaten": None if name == "coherent_protocol" else bool(accuracy > value)}
        for name, value, _ in rows
    ]
