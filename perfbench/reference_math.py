"""Closed forms the output checks compare against, written independently of spinkey."""

import math
from itertools import product

import numpy as np


def qsp_p(phases, a):
    """Top-left entry P(a) of e^{i p0 Z} prod_k W(a) e^{i pk Z}, by explicit 2x2 algebra.

    W(a) = [[a, i s], [i s, a]] with s = sqrt(1 - a^2). Accepts a scalar or
    an array of signal parameters.
    """
    a = np.asarray(a, dtype=float)
    s = np.sqrt(np.maximum(0.0, 1.0 - a * a))
    # Row vector (u00, u01) of the running product; only row 0 is needed.
    u00 = np.exp(1j * phases[0]) * np.ones_like(a, dtype=complex)
    u01 = np.zeros_like(u00)
    for theta in phases[1:]:
        w00 = u00 * a + u01 * 1j * s
        w01 = u00 * 1j * s + u01 * a
        u00, u01 = w00 * np.exp(1j * theta), w01 * np.exp(-1j * theta)
    return u00


def triad_majority(k):
    """Majority-vote success over k square-root-measurement outcomes on the triad.

    Each outcome is correct with probability 2/3 and names each wrong
    candidate with probability 1/6; a tied top count is a failure. Sums the
    multinomial weights of the count vectors where the correct candidate
    holds the unique maximum.
    """
    total = 0.0
    for c0, c1 in product(range(k + 1), repeat=2):
        c2 = k - c0 - c1
        if c2 < 0 or c0 <= c1 or c0 <= c2:
            continue
        ways = math.factorial(k) // (math.factorial(c0) * math.factorial(c1) * math.factorial(c2))
        total += ways * (2.0 / 3.0) ** c0 * (1.0 / 6.0) ** (c1 + c2)
    return total
