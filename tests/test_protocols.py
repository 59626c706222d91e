import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from spinkey.protocols import (
    ASK,
    LASER,
    ORACLE,
    DESIGN_ANGLES,
    OracleSpec,
    Pulse,
    PulseSequence,
    ask3_sequence,
    bisection_protocol,
    even_psk_disambiguation,
    psk3_sequence,
    psk_to_ask_wrap,
    query_count,
    resolve_oracle_pulse,
    run_bisection,
    run_disambiguation,
)
from spinkey.qsp import qsp_unitary
from spinkey.spin_algebra import rotation


def test_psk3_table():
    seq = psk3_sequence()
    assert len(seq.pulses) == 11
    row3 = seq.pulses[2]
    assert (row3.label, row3.theta, row3.phi) == ("U0", -1.1885, 2.9271)
    oracle_rows = [p.index for p in seq.pulses if p.channel == ORACLE]
    assert oracle_rows == [2, 4, 8, 10]
    laser_rows = [p.index for p in seq.pulses if p.channel == LASER]
    assert laser_rows == [1, 6]
    for p in seq.pulses:
        if p.channel == LASER:
            assert p.theta == math.pi and p.phi == 0.0
        if p.channel == ORACLE:
            assert p.theta == math.pi and p.oracle_phase_offset == math.pi


def test_ask3_table():
    seq = ask3_sequence()
    assert len(seq.pulses) == 18
    row4 = seq.pulses[3]
    assert row4.channel == ORACLE and row4.phi == math.pi / 2
    # Extra cycling rotations accompany each second-half oracle call. A
    # variant tabulation gives the second one phase 0, which breaks the
    # cycle: branches 1 and 2 then send ~0.81 to the other branch's
    # readout state in two levels, and about two thirds ends as leakage in
    # six. Both are stored on the oracle axis here. See notes/decisions.md.
    assert (seq.pulses[12].theta, seq.pulses[12].phi) == (2 * math.pi / 3, math.pi / 2)
    assert (seq.pulses[15].theta, seq.pulses[15].phi) == (2 * math.pi / 3, math.pi / 2)
    assert [p.index for p in seq.pulses if p.channel == ORACLE] == [4, 6, 12, 15]
    assert seq.pulses[2].theta == 0.9603 and seq.pulses[4].theta == 1.2410


def test_ask3_exact_variant_angles():
    seq = ask3_sequence(exact=True)
    assert seq.pulses[2].theta == pytest.approx(math.atan(math.sqrt(2)), abs=1e-15)
    assert seq.pulses[4].theta == pytest.approx(math.acos(1.0 / 3.0), abs=1e-15)
    assert seq.pulses[6].theta == pytest.approx(math.atan(math.sqrt(2)) - math.pi, abs=1e-15)


def test_query_counts():
    assert query_count(psk3_sequence()) == 4
    assert query_count(ask3_sequence()) == 4
    # The halving construction needs n/2 + n/4 + ... + 1 = n - 1 queries;
    # the often-quoted total of 2n is not realized by any stage accounting
    # we could derive (see notes/decisions.md).
    assert query_count(bisection_protocol(8)) == 7
    with pytest.raises(TypeError):
        query_count(42)


def test_oracle_resolution():
    psk = psk3_sequence()
    theta, phi = resolve_oracle_pulse(psk.pulses[1], psk.encoding, 2 * math.pi / 3)
    assert theta == math.pi and phi == pytest.approx(2 * math.pi / 3 + math.pi)
    ask = ask3_sequence()
    theta, phi = resolve_oracle_pulse(ask.pulses[3], ask.encoding, 2 * math.pi / 3)
    assert theta == pytest.approx(2 * math.pi / 3) and phi == math.pi / 2
    with pytest.raises(ValueError):
        resolve_oracle_pulse(psk.pulses[0], psk.encoding, 0.0)


def test_oracle_spec_validation():
    with pytest.raises(ValueError, match="distinct"):
        OracleSpec(ASK, (0.0, 2 * math.pi), 0)
    with pytest.raises(ValueError, match="out of range"):
        OracleSpec(ASK, DESIGN_ANGLES, 5)
    with pytest.raises(ValueError, match="encoding"):
        OracleSpec("fsk", DESIGN_ANGLES, 0)
    for angles in ((math.nan, 1.0, 2.0), (0.0, math.inf, 2.0), (0.0, 1.0, -math.inf)):
        with pytest.raises(ValueError, match="candidate_angles"):
            OracleSpec(ASK, angles, 0)
    for index in (1.5, True, -1, "0"):
        with pytest.raises(ValueError, match="hidden_index"):
            OracleSpec(ASK, DESIGN_ANGLES, index)
    assert OracleSpec(ASK, DESIGN_ANGLES, np.int64(2)).hidden_angle == DESIGN_ANGLES[2]


def _distinct_by_loop(angles):
    wrapped = np.mod(np.asarray(angles, dtype=float), 2.0 * math.pi)
    return not any(np.isclose(wrapped[i], wrapped[k], atol=1e-12)
                   for i in range(len(wrapped)) for k in range(i + 1, len(wrapped)))


def test_oracle_spec_rejects_angles_equal_across_the_wrap():
    for angles in ((0.0, 2 * math.pi - 1e-13, 1.0), (2 * math.pi - 1e-13, 0.0),
                   (1.0, -1e-13, 0.0)):
        with pytest.raises(ValueError, match="distinct modulo"):
            OracleSpec(ASK, angles, 0)
    for angles in (DESIGN_ANGLES, (0.0, 2 * math.pi - 1e-3), (-1.0, 1.0, 3.0 + 2 * math.pi)):
        OracleSpec(ASK, angles, 0)
    # Every set the pairwise loop rejects is still rejected.
    rng = np.random.default_rng(12)
    for _ in range(300):
        angles = rng.choice([0.0, 1e-13, 1.0, 1.0 + 1e-13, 2 * math.pi - 1e-13, 4.0],
                            size=rng.integers(2, 5)) + 2 * math.pi * rng.integers(-2, 3)
        if not _distinct_by_loop(angles):
            with pytest.raises(ValueError, match="distinct modulo"):
                OracleSpec(ASK, tuple(angles), 0)


@pytest.mark.parametrize("dim", [2, 6])
def test_wrap_equals_doubled_x_rotation(dim):
    for phi in np.linspace(0, 2 * np.pi, 64, endpoint=False):
        wrapped = psk_to_ask_wrap(phi, dim)
        target = rotation(dim, 2 * phi, 0.0)
        trace = abs(np.trace(wrapped.conj().T @ target))
        assert abs(trace - dim) < 1e-10


def test_wrap_identity_at_zero_phase():
    wrapped = psk_to_ask_wrap(0.0, 2)
    # Pure global phase times identity.
    assert abs(abs(wrapped[0, 0]) - 1.0) < 1e-12
    np.testing.assert_allclose(wrapped / wrapped[0, 0], np.eye(2), atol=1e-12)


def test_wrap_two_thirds_matches_rotation_up_to_phase():
    wrapped = psk_to_ask_wrap(2 * np.pi / 3, 2)
    target = rotation(2, 4 * np.pi / 3, 0.0)
    ratio = np.trace(wrapped.conj().T @ target) / 2.0
    np.testing.assert_allclose(wrapped * ratio, target, atol=1e-12)


def test_wrap_pi_shift_flips_sign():
    for phi in np.linspace(0, np.pi, 9):
        lhs = psk_to_ask_wrap(phi + np.pi, 2)
        rhs = -psk_to_ask_wrap(phi, 2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_bisection_base_case_single_query():
    proto = bisection_protocol(2)
    assert proto.total_queries == 1
    assert len(proto.stages) == 1


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_bisection_identifies_with_certainty(n):
    proto = bisection_protocol(n)
    for hidden in range(n):
        identified, used, worst = run_bisection(proto, hidden)
        assert identified == hidden
        assert used == proto.total_queries
        assert worst < 1e-8


def test_bisection_rejects_other_counts():
    with pytest.raises(ValueError, match="power of two"):
        bisection_protocol(6)
    with pytest.raises(ValueError, match="power of two"):
        bisection_protocol(1)
    for n in (4.0, True, 0, -4):
        with pytest.raises(ValueError, match="n must be an integer"):
            bisection_protocol(n)


def test_disambiguation_sign_readout():
    step = even_psk_disambiguation((0.0, math.pi))
    for which in (0, 1):
        phi, p = run_disambiguation(step, which)
        assert phi == (0.0 if which == 0 else math.pi)
        assert p > 1 - 1e-10


def test_disambiguation_generic_pair():
    step = even_psk_disambiguation((math.pi / 3, 4 * math.pi / 3))
    for which in (0, 1):
        phi, p = run_disambiguation(step, which)
        assert phi == pytest.approx(step.phi_low if which == 0 else step.phi_high)
        assert p > 1 - 1e-10


def test_disambiguation_query_accounting():
    step = even_psk_disambiguation((0.1, 0.1 + math.pi))
    assert query_count(step) == 1
    # Six equally spaced phases reduce to the three-phase protocol plus one
    # extra query.
    assert query_count(psk3_sequence()) + query_count(step) == 5


def test_disambiguation_rejects_non_pi_pairs():
    with pytest.raises(ValueError, match="differ by pi"):
        even_psk_disambiguation((0.0, 2.0))


def test_sequence_json_round_trip():
    for seq in (psk3_sequence(), ask3_sequence(exact=True)):
        back = PulseSequence.from_json(seq.to_json())
        assert back == seq
        for p, q in zip(back.pulses, seq.pulses):
            assert p.theta == q.theta and p.phi == q.phi  # bit-exact floats


def test_psk3_first_half_flag_behavior():
    """The qubit composition of the first half returns the start state only
    for the zero phase; for the other candidates the sequence is native to
    the six-level space and the two-level composition is not a clean flip
    (the flip statement holds at the six-level layer, where the coupled
    level is vacated to a few 1e-6)."""
    populations = []
    for angle in DESIGN_ANGLES:
        u = np.eye(2, dtype=complex)
        seq = psk3_sequence()
        for pulse in seq.pulses[1:5]:
            if pulse.channel == ORACLE:
                theta, phi = resolve_oracle_pulse(pulse, seq.encoding, angle)
            else:
                theta, phi = pulse.theta, pulse.phi
            u = rotation(2, theta, phi) @ u
        populations.append(abs(u[0, 0]) ** 2)
    assert populations[0] > 1 - 1e-7  # printed precision leaves ~4e-8
    np.testing.assert_allclose(populations[1], 0.35444, atol=1e-4)
    np.testing.assert_allclose(populations[2], 0.35452, atol=1e-4)


def _product_bisection(protocol, hidden_index):
    """run_bisection from explicit zero-phase products, one per stage."""
    n = protocol.n
    theta = 2.0 * np.pi * hidden_index / n
    offset, queries, worst = 0.0, 0, 0.0
    for stage in protocol.stages:
        a = np.cos((theta - offset) / 2.0)
        p_return = abs(qsp_unitary(np.zeros(stage.qsp_degree + 1), a)[0, 0]) ** 2
        queries += stage.qsp_degree
        worst = max(worst, min(p_return, 1.0 - p_return))
        if p_return < 0.5:
            offset += stage.offset
    return int(round(offset / (2.0 * np.pi / n))) % n, queries, worst


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64])
def test_bisection_closed_form_matches_product(n):
    proto = bisection_protocol(n)
    for hidden in range(n):
        identified, used, worst = run_bisection(proto, hidden)
        ref_identified, ref_used, ref_worst = _product_bisection(proto, hidden)
        assert (identified, used) == (ref_identified, ref_used)
        assert abs(worst - ref_worst) <= 1e-12


@pytest.mark.parametrize("field, value", [
    ("channel", "microwave"), ("theta", "nan"), ("phi", float("inf")),
    ("oracle_phase_offset", None),
])
def test_pulse_rejects_bad_fields(field, value):
    fields = {**asdict(psk3_sequence().pulses[2]), field: value}
    with pytest.raises(ValueError, match=field):
        Pulse(**fields)


def test_sequence_rejects_bad_fields():
    seq = psk3_sequence()
    with pytest.raises(ValueError, match="encoding"):
        PulseSequence(seq.name, "fsk", seq.pulses, seq.readout_map)
    with pytest.raises(ValueError, match="readout_map"):
        PulseSequence(seq.name, seq.encoding, seq.pulses, {0: 0, 1: 1, 2: 5})
    text = seq.to_json()
    for broken, match in ((text.replace('"readout_map"', '"readout"'), "readout_map"),
                          (text.replace('"label"', '"lable"', 1), "lable"),
                          ("[]", "malformed"),
                          (json.dumps({**json.loads(text), "readout_map": [0, 1, 2]}),
                           "malformed")):
        with pytest.raises(ValueError, match=match):
            PulseSequence.from_json(broken)
