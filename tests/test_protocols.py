import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinkey.protocols import (
    ASK,
    LASER,
    ORACLE,
    PSK,
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
from spinkey.spin_algebra import rotation, rotation_z, two_level_rotation


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


def _clash_by_isclose(angles):
    """OracleSpec's clash test as np.isclose, on the wrapped angles and their 2*pi shifts."""
    wrapped = np.mod(np.asarray(angles, dtype=float), 2.0 * math.pi)
    shifted = wrapped[:, None, None] + 2.0 * math.pi * np.array([-1.0, 0.0, 1.0])
    clash = np.isclose(shifted, wrapped[None, :, None], atol=1e-12).any(axis=-1)
    return bool(np.triu(clash, 1).any())


def _ulps_around(x, n=3):
    """x and its n float neighbours on each side."""
    below, above = [x], [x]
    for _ in range(n):
        below.append(np.nextafter(below[-1], -math.inf))
        above.append(np.nextafter(above[-1], math.inf))
    return below[::-1] + above[1:]


def test_oracle_spec_clash_test_is_np_isclose_at_its_tolerance_edges():
    y_near_2pi = 2 * math.pi - 1e-3
    pairs = []
    # atol decides: 1e-12 apart at y = 0.
    pairs += [(x, 0.0) for x in _ulps_around(1e-12)]
    pairs += [(1.0 + x, 1.0) for x in (0.0, 5e-13)]
    # rtol decides: rtol |y| apart near 2*pi, on both sides of y.
    for sign in (-1.0, 1.0):
        edge = y_near_2pi + sign * (1e-12 + 1e-5 * y_near_2pi)
        pairs += [(x, y_near_2pi) for x in _ulps_around(edge)]
    # Across the wrap: one angle just above 0, one just below 2*pi, whose gap
    # through 0 is at the tolerance of the one just above 0 (atol decides) or
    # of the one just below 2*pi (rtol decides). The sums with 2*pi round to
    # its ulp, so the angle that moves steps by that ulp.
    small, high, step = 6e-13, 2 * math.pi - 3e-5, np.spacing(2 * math.pi)
    pairs += [(x, small) for x in _ulps_around(2 * math.pi + small - 1e-12 - 1e-5 * small)]
    edge = high + 1e-12 + 1e-5 * high - 2 * math.pi
    pairs += [(edge + k * step, high) for k in range(-3, 4)]
    pairs += [(edge + k * step - 2 * math.pi, high) for k in range(-3, 4)]
    clashes = 0
    for pair in pairs:
        for angles in (pair, pair[::-1]):
            if _clash_by_isclose(angles):
                clashes += 1
                with pytest.raises(ValueError, match="distinct modulo"):
                    OracleSpec(ASK, angles, 0)
            else:
                OracleSpec(ASK, angles, 0)
    assert 0 < clashes < 2 * len(pairs)


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


@pytest.mark.parametrize("hidden_index", [7, 4, -1, 2.0, True])
def test_run_bisection_rejects_hidden_index_outside_the_candidates(hidden_index):
    with pytest.raises(ValueError, match="hidden_index"):
        run_bisection(bisection_protocol(4), hidden_index)


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


def _walk_disambiguation(step, which):
    """The step walked by hand on the 8-vector: half-swap, the wrapped
    oracle and its known inverse as 6x6 matrices, closing half-swap."""
    phi_true = step.phi_low if which == 0 else step.phi_high
    d_level, s_level = step.block_levels
    state = two_level_rotation(np.eye(8, dtype=complex)[s_level], (d_level, s_level), math.pi / 2)
    undo = rotation(6, 2.0 * step.phi_low, 0.0).conj().T
    state[:6] = undo @ (psk_to_ask_wrap(phi_true, 6) @ state[:6])
    state = two_level_rotation(state, (d_level, s_level), math.pi / 2, phase=math.pi)
    p_ground, p_block = abs(state[s_level]) ** 2, abs(state[d_level]) ** 2
    if p_ground >= p_block:
        return step.phi_low, p_ground
    return step.phi_high, p_block


def test_disambiguation_program_is_the_hand_walk():
    """The 8-pulse program ion_sim.run reads gives the hand walk's phase and
    probability to 1e-12, over 64 phase pairs and both branches; its
    Ry(-pi) Rx(-pi) is rotation_z(6, pi/2) exactly."""
    np.testing.assert_allclose(rotation(6, -math.pi, math.pi / 2) @ rotation(6, -math.pi, 0.0),
                               rotation_z(6, math.pi / 2), rtol=0, atol=1e-14)
    rng = np.random.default_rng(5)
    for phi_low in np.concatenate([[0.0, math.pi, -math.pi / 3], rng.uniform(-7.0, 7.0, 61)]):
        step = even_psk_disambiguation((phi_low, phi_low + math.pi))
        for which in (0, 1):
            phi, p = run_disambiguation(step, which)
            expected_phi, expected_p = _walk_disambiguation(step, which)
            assert phi == expected_phi == (step.phi_low, step.phi_high)[which]
            assert abs(p - expected_p) <= 1e-12


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


def _float_bisection(protocol, hidden_index):
    """run_bisection with the signal and the offset in radians, as floats:
    (identified_index, queries_used)."""
    n = protocol.n
    theta = 2.0 * np.pi * hidden_index / n
    offset, queries = 0.0, 0
    for stage in protocol.stages:
        p_return = math.cos(stage.qsp_degree * (theta - offset) / 2.0) ** 2
        queries += stage.qsp_degree
        if p_return < 0.5:
            offset += stage.offset
    return int(round(offset / (2.0 * np.pi / n))) % n, queries


def test_bisection_index_and_queries_are_the_float_rule_up_to_4096():
    for k in range(1, 13):
        proto = bisection_protocol(2 ** k)
        for hidden in range(2 ** k):
            assert run_bisection(proto, hidden)[:2] == _float_bisection(proto, hidden)


@pytest.mark.parametrize("n", [2 ** 52, 2 ** 60, 2 ** 62])
def test_bisection_is_exact_at_large_n(n):
    """The floats lose the index from n = 2**52 (and the 1e-8 margin of
    bisect --verify from 2**41); integer counts of 2 pi / n keep both."""
    proto = bisection_protocol(n)
    for hidden in (n - 1, n - 2, n // 3):
        identified, used, worst = run_bisection(proto, hidden)
        assert (identified, used) == (hidden, n - 1)
        assert worst == math.cos(math.pi / 2) ** 2


@pytest.mark.parametrize("field, value", [
    ("channel", "microwave"), ("theta", "nan"), ("phi", float("inf")),
    ("oracle_phase_offset", None), ("theta", True),
    ("index", "abc"), ("index", 0), ("index", 1.5), ("index", True), ("label", 7),
    ("label", None),
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


_MAP = {0: 0, 1: 1, 2: 2}


@pytest.mark.parametrize("pulses, readout_map, field", [
    ((), 3, "readout_map"),
    ((), [0, 1, 2], "readout_map"),
    (5, _MAP, "pulses"),
    ("abc", _MAP, "pulses"),
    ((5,), _MAP, r"pulses\[0\]"),
    ((psk3_sequence().pulses[0], None), _MAP, r"pulses\[1\]"),
], ids=["map-number", "map-list", "pulses-number", "pulses-string", "pulse-number",
        "pulse-none"])
def test_sequence_checks_its_pulses_and_readout_map(pulses, readout_map, field):
    with pytest.raises(ValueError, match=rf"^{field} must"):
        PulseSequence("x", "psk", pulses, readout_map)


def test_sequence_stores_a_pulse_list_as_a_tuple():
    seq = psk3_sequence()
    listed = PulseSequence(seq.name, seq.encoding, list(seq.pulses), seq.readout_map)
    assert type(listed.pulses) is tuple and listed == seq
    assert PulseSequence.from_json(listed.to_json()) == seq


def _psk3_document(**fields):
    return json.dumps({**json.loads(psk3_sequence().to_json()), **fields})


_PULSE_WITHOUT_INDEX_LABEL_PHI = {"channel": "rf", "theta": 1.0}


@pytest.mark.parametrize("text, paths", [
    ("[]", ["the document"]),
    ('{"pulses": 5}', ["pulses", "name", "encoding", "readout_map"]),
    ("null", ["the document"]),
    ('"abc"', ["the document"]),
    (_psk3_document(pulses=[], readout_map=3), ["readout_map"]),
    (_psk3_document(pulses=[_PULSE_WITHOUT_INDEX_LABEL_PHI]),
     ["pulses[0].index", "pulses[0].label", "pulses[0].phi"]),
    (_psk3_document(pulses=[None]), ["pulses[0]"]),
    (_psk3_document(pulses={"0": {}}), ["pulses"]),
], ids=["array", "pulses-number", "null", "string", "readout_map-number",
        "pulse-missing-fields", "pulse-null", "pulses-object"])
def test_sequence_json_shape_errors_name_each_path(text, paths):
    with pytest.raises(ValueError) as err:
        PulseSequence.from_json(text)
    message = str(err.value)
    assert message.startswith("malformed sequence JSON: ")
    assert all(path in message for path in paths)


def test_sequence_json_pulse_value_errors_name_the_pulse():
    pulses = json.loads(psk3_sequence().to_json())["pulses"]
    pulses[3]["phi"] = "nan"
    with pytest.raises(ValueError, match=r"^pulses\[3\]: pulse phi "):
        PulseSequence.from_json(_psk3_document(pulses=pulses))


def _mutations(value):
    """(name, mutate) pairs: each key or item of value and its children dropped or
    replaced by a value of another kind. name is how an error names the part
    changed: its key, or [i] for an item of an array."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        name = key if isinstance(value, dict) else f"[{key}]"
        for other in (None, 5, "x", [], {}, True):
            yield name, lambda doc, key=key, other=other: doc.__setitem__(key, other)
        if isinstance(value, dict):
            yield name, lambda doc, key=key: doc.pop(key)
        if isinstance(child, (dict, list)):
            for inner, mutate in _mutations(child):
                yield inner, lambda doc, key=key, mutate=mutate: mutate(doc[key])


@pytest.mark.parametrize("sequence", [psk3_sequence(), ask3_sequence()], ids=["psk3", "ask3"])
def test_every_mutated_sequence_document_loads_or_names_the_part_changed(sequence):
    for name, mutate in _mutations(json.loads(sequence.to_json())):
        doc = json.loads(sequence.to_json())
        mutate(doc)
        try:
            PulseSequence.from_json(json.dumps(doc))
        except ValueError as err:
            assert name in str(err)


def _scalar_bisection(protocol, hidden_index):
    """run_bisection's rule one hidden index at a time, with Python ints and
    math.cos: (identified_index, queries_used, worst_margin)."""
    n = protocol.n
    shift, queries, worst = 0, 0, 0.0
    for stage in protocol.stages:
        period = n // stage.qsp_degree
        p_return = math.cos(math.pi * ((hidden_index - shift) % period) / period) ** 2
        queries += stage.qsp_degree
        worst = max(worst, min(p_return, 1.0 - p_return))
        if p_return < 0.5:
            shift += n // stage.subset_size
    return shift % n, queries, worst


def _assert_batch_is_the_scalar_rule(protocol, hidden):
    identified, used, worst = run_bisection(protocol, np.array(hidden))
    ref = [_scalar_bisection(protocol, h) for h in hidden]
    assert identified.shape == worst.shape == (len(hidden),)
    assert identified.tolist() == [r[0] for r in ref]
    assert {used} == {r[1] for r in ref}
    assert worst.view(np.uint64).tolist() == np.array([r[2] for r in ref]).view(np.uint64).tolist()


def test_batched_bisection_is_bitwise_the_scalar_rule_up_to_4096():
    for k in range(1, 13):
        _assert_batch_is_the_scalar_rule(bisection_protocol(2 ** k), list(range(2 ** k)))


@pytest.mark.parametrize("n", [2 ** 52, 2 ** 60, 2 ** 62])
def test_batched_bisection_is_bitwise_the_scalar_rule_at_large_n(n):
    _assert_batch_is_the_scalar_rule(bisection_protocol(n), [n - 1, n - 2, n // 3])


def test_batched_bisection_keeps_the_shape_of_its_indices():
    identified, used, worst = run_bisection(bisection_protocol(8), np.arange(8).reshape(2, 4))
    assert identified.tolist() == [[0, 1, 2, 3], [4, 5, 6, 7]]
    assert (used, worst.shape) == (7, (2, 4))


def test_scalar_bisection_returns_python_numbers():
    result = run_bisection(bisection_protocol(16), np.int64(5))
    assert [type(value) for value in result] == [int, int, float]
    assert result == _scalar_bisection(bisection_protocol(16), 5)


@pytest.mark.parametrize("hidden_index", [
    np.array([0.5]), np.array([True]), [-1], np.array([0, 4]), 2 ** 70, [2 ** 70],
    np.array([2 ** 64 - 1], dtype=np.uint64), np.array([1], dtype=object), [[1], [1, 2]]])
def test_batched_bisection_rejects_indices_outside_the_candidates(hidden_index):
    with pytest.raises(ValueError, match="hidden_index"):
        run_bisection(bisection_protocol(4), hidden_index)


def test_bisection_refuses_counts_beyond_int64():
    with pytest.raises(ValueError, match="n must be <= 2\\*\\*62"):
        bisection_protocol(2 ** 63)
    assert bisection_protocol(2 ** 62).n == 2 ** 62


# Angles, then angles near a clash with one of them: a tolerance
# 1e-12 + 1e-5 |y| away times a factor about 1, possibly turned by 2*pi.
near_clash_gaps = st.sampled_from([0.0, 0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 2.0, 1e4])


@st.composite
def candidate_tuples(draw):
    angles = draw(st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=4))
    for _ in range(draw(st.integers(0, 3))):
        y = draw(st.sampled_from(angles))
        gap = draw(near_clash_gaps) * (1e-12 + 1e-5 * (y % (2.0 * math.pi)))
        angles.append(y + draw(st.sampled_from((-1.0, 1.0))) * gap
                      + 2.0 * math.pi * draw(st.integers(-2, 2)))
    return tuple(draw(st.permutations(angles)))


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(candidate_tuples())
def test_oracle_spec_clash_loop_is_the_isclose_triu_rule(angles):
    """The pairwise loop refuses exactly the candidate tuples that the
    np.isclose / np.triu formulation over all pairs refuses."""
    if _clash_by_isclose(angles):
        with pytest.raises(ValueError, match="distinct modulo"):
            OracleSpec(ASK, angles, 0)
    else:
        OracleSpec(ASK, angles, 0)


@pytest.mark.parametrize("angles", [1.0, ((1.0, 2.0), (3.0, 4.0))], ids=["scalar", "2-d"])
def test_oracle_spec_refuses_candidates_that_are_not_a_sequence(angles):
    with pytest.raises(ValueError, match="candidate_angles must be a sequence"):
        OracleSpec(PSK, angles, 0)
