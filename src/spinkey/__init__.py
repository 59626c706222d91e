"""spinkey: single-ion simulation of keyed-rotation channel discrimination.

A numpy library that simulates single-shot discrimination of
phase-keyed (PSK) and amplitude-keyed (ASK) rotation channels on a
spin-5/2 processing manifold with two ground shelving levels, together
with the supporting machinery: spin algebra, signal-processing phase
finding, noise and detuning budgets, a frequency feed-forward servo, and
incoherent measurement baselines.

The package namespace re-exports the spin operators, rotation and the
protocols. The other spin-algebra names are imported from
spinkey.spin_algebra, and the signal-processing names (find_phases,
PolynomialSpec, qsp_unitary, ...) from spinkey.qsp. No module imports
scipy; the tests use it as an independent reference.
"""

__version__ = "0.1.0"

from . import baselines, field_servo, ion_sim  # noqa: F401  (submodule access)
from .spin_algebra import (
    SpinOperators,
    spin_operators,
    rotation,
)
from .protocols import (
    Pulse,
    PulseSequence,
    OracleSpec,
    psk3_sequence,
    ask3_sequence,
    psk_to_ask_wrap,
    bisection_protocol,
    run_bisection,
    even_psk_disambiguation,
    run_disambiguation,
    query_count,
    DESIGN_ANGLES,
)
