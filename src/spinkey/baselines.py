"""Incoherent discrimination baselines for the symmetric channel triad.

A single channel query reduces discrimination to distinguishing the
states the candidate rotations produce from a fixed probe. For the three
symmetric candidates all pairwise overlaps have magnitude 1/2, and the
square-root measurement attains the single-shot optimum of 2/3. Its
outcome table is read off the square root of the prior-weighted Gram
matrix of the states, with no measurement operators built. This module
builds those state sets and evaluates the incoherent strategies the
coherent protocol is compared against: repeated minimum-error measurement
with a majority vote, the Bayesian confidence of unanimous outcomes, and
optimal unambiguous discrimination over several trials.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._checks import check_int, check_real, finite_array, shown
from .protocols import ASK, PSK
from .spin_algebra import rotation


@dataclass(frozen=True)
class SymmetricStateSet:
    """Candidate states with their priors; overlaps must share one magnitude.

    There is one prior per state. The priors are finite, > 0 and sum to 1
    within 1e-9; the states are finite vectors of one length, each of unit
    norm within 1e-9.
    """

    states: tuple
    priors: tuple

    def __post_init__(self):
        priors = finite_array("priors", self.priors)
        if (priors.shape != (len(self.states),) or priors.size == 0 or priors.min() <= 0.0
                or abs(priors.sum() - 1.0) > 1e-9):
            raise ValueError(
                f"priors must be one per state, > 0 and sum to 1, got {shown(self.priors)}")
        if len({np.shape(psi) for psi in self.states}) != 1 or np.ndim(self.states[0]) != 1:
            raise ValueError("states must be vectors of one length")
        norms = np.linalg.norm(abs(np.asarray(self.states, dtype=complex)), axis=1)
        if not np.all(abs(norms - 1.0) <= 1e-9):
            raise ValueError(f"states must be finite vectors of unit norm, got norms {norms}")

    @property
    def n(self):
        """The number of states."""
        return len(self.states)

    def overlap_magnitudes(self):
        return [abs(np.vdot(self.states[i], self.states[k]))
                for i in range(self.n) for k in range(i + 1, self.n)]

    def is_symmetric(self):
        """Whether every pairwise overlap magnitude agrees within 1e-10."""
        mags = self.overlap_magnitudes()
        return len(mags) == 0 or max(mags) - min(mags) <= 1e-10


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
    return SymmetricStateSet(states=states, priors=tuple([1.0 / n] * n))


def outcome_probabilities(state_set):
    """p[i, o]: probability of square-root-measurement outcome o when state i was sent.

    With G[i, k] = sqrt(eta_i eta_k) <psi_i|psi_k> the prior-weighted Gram
    matrix, the measurement's amplitudes are the entries of G^1/2, so
    p[i, o] = |G^1/2[i, o]|^2 / eta_i and each row sums to G_ii / eta_i = 1.
    Eigenvalues of G at or below 1e-12 are set to 0, which restricts the
    measurement to the support of the states.
    """
    if not state_set.is_symmetric():
        raise ValueError("minimum-error analysis is only provided for symmetric state sets")
    priors = np.asarray(state_set.priors, dtype=float)
    amplitudes = np.sqrt(priors)[:, None] * np.array(state_set.states)
    w, v = np.linalg.eigh(amplitudes.conj() @ amplitudes.T)
    root = (v * np.sqrt(np.where(w > 1e-12, w, 0.0))) @ v.conj().T
    return np.abs(root) ** 2 / priors[:, None]


def me_single_shot(state_set):
    """Success probability of the single-query minimum-error measurement.

    The square-root measurement is optimal for symmetric pure states with
    equal priors; for the triad it returns 2/3.
    """
    return _me_single_shot(state_set.priors, outcome_probabilities(state_set))


def _me_single_shot(priors, p):
    """me_single_shot of the states with these priors and outcome table p."""
    return float(sum(eta * p[i, i] for i, eta in enumerate(priors)))


def me_majority(state_set, k=4):
    """Majority vote over k independent minimum-error outcomes.

    A tied vote carries no decision and is counted as a failure; with that
    rule four queries on the triad succeed with probability 60/81, about
    74%. (Breaking ties randomly would instead give about 81%.)
    """
    k = check_int("k", k)
    return _me_majority(state_set.priors, outcome_probabilities(state_set), k)


def _me_majority(priors, p, k):
    """me_majority of the states with these priors and outcome table p.

    The vote depends only on how often each outcome occurs, so the sum runs
    over count vectors c weighted by the multinomial coefficient
    k! / prod(c_j!): (k+1)(k+2)/2 terms for the triad instead of 3^k
    outcome tuples. Each c with a unique top count contributes
    eta_w k! / prod(c_j!) prod_j p[w, j]^c_j for its winner w.

    The count vectors are read off the n - 1 bar positions of each
    stars-and-bars arrangement, one (n,) row each, in the order
    itertools.combinations_with_replacement(range(n), k) lists them, so
    no k-long vote tuple is built. Each factorial and each power
    p[w, j]^c is held as a float mantissa and an integer power of two, the
    mantissa taken from the float itself wherever that float is normal.
    A term multiplies the mantissas, adds the powers of two and applies
    them last, so it is bitwise the float product wherever every factor
    is a normal float, and k! beyond the float range (k > 170) or a power
    below it neither overflows nor vanishes.
    """
    n = len(priors)
    edges = [(-1,) + b + (k + n - 1,) for b in itertools.combinations(range(k + n - 1), n - 1)]
    counts = np.diff(np.array(edges)[::-1], axis=1) - 1
    factorial = [math.factorial(j) for j in range(k + 1)]
    exponent = np.array([f.bit_length() - 1 for f in factorial])
    # Integer true division rounds once, so mantissa * 2**exponent is float(j!).
    mantissa = np.array([f / (1 << int(e)) for f, e in zip(factorial, exponent)])
    ways = mantissa[k] / mantissa[counts].prod(axis=1)
    # p[w, j]^c for c = 0..k; below the normal range, the power of p's mantissa.
    c = np.arange(k + 1)
    p_mantissa, p_exponent = np.frexp(p[:, :, None])
    power = p[:, :, None] ** c
    low = power < np.finfo(float).tiny
    power_mantissa, power_exponent = np.frexp(np.where(low, p_mantissa ** c, power))
    power_exponent += low * p_exponent * c
    unique = (counts == counts.max(axis=1)[:, None]).sum(axis=1) == 1
    winner = counts.argmax(axis=1)
    term = (winner[:, None], np.arange(n), counts)
    weight = np.asarray(priors)[winner] * ways * power_mantissa[term].prod(axis=1)
    scale = exponent[k] - exponent[counts].sum(axis=1) + power_exponent[term].sum(axis=1)
    return float(np.ldexp(weight, scale)[unique].sum())


def posterior_all_agree(state_set, k=4):
    """Bayesian posterior of the modal hypothesis after k identical outcomes.

    For the triad this is (2/3)^k / ((2/3)^k + 2 (1/6)^k): 2/3 at k = 1 and
    128/129 = 0.99225 at k = 4, rising monotonically toward certainty. It
    is evaluated as 1 / (1 + sum_{i>=1} (eta_i / eta_0) (p[i, 0] / p[0, 0])^k),
    whose terms underflow harmlessly to 0 at large k, where (2/3)^k and
    (1/6)^k would both reach 0 and leave 0 / 0.
    """
    k = check_int("k", k)
    return _posterior_all_agree(state_set.priors, outcome_probabilities(state_set), k)


def _posterior_all_agree(priors, p, k):
    """posterior_all_agree of the states with these priors and outcome table p."""
    rest = sum(priors[i] / priors[0] * (p[i, 0] / p[0, 0]) ** k for i in range(1, len(priors)))
    return float(1.0 / (1.0 + rest))


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


def advantage_report(accuracy):
    """Compare a measured accuracy against the incoherent strategies.

    The strategies act on the symmetric triad with four queries, the
    query count of the built-in sequences. Returns five rows of
    (strategy, success_probability, beaten), where beaten records whether
    the supplied accuracy exceeds that strategy. accuracy must be a
    probability: finite and in [0, 1].
    """
    accuracy = float(check_real("accuracy", accuracy, 0.0, maximum=1.0))
    triad = symmetric_states()
    # One outcome table serves the three minimum-error strategies.
    p = outcome_probabilities(triad)
    rows = [("coherent_protocol", accuracy),
            ("minimum_error_single_shot", _me_single_shot(triad.priors, p)),
            ("minimum_error_majority_4", _me_majority(triad.priors, p, 4)),
            ("posterior_all_agree_4", _posterior_all_agree(triad.priors, p, 4)),
            ("unambiguous_4_trials", ud_multi(triad, 4))]
    return [{"strategy": name, "success_probability": value,
             "beaten": None if name == "coherent_protocol" else bool(accuracy > value)}
            for name, value in rows]
