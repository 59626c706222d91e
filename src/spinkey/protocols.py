"""Discrimination protocols: built-in pulse tables, oracle wrapping, bisection.

A PulseSequence is an ordered program of rf, laser, and oracle pulses. The
two built-in sequences discriminate a symmetric triad of rotations in a
single shot with four oracle queries:

- psk3_sequence: phase-keyed pi-rotations (axis angle 0, 2pi/3, or 4pi/3)
- ask3_sequence: amplitude-keyed x/y-rotations (angle 0, 2pi/3, or 4pi/3)

Also here: the sandwich of fixed rotations that converts a phase-keyed
pi-pulse into an x-rotation of twice the phase (psk_to_ask_wrap), the
Chebyshev bisection protocol for 2^k equally spaced amplitude candidates,
the one-extra-query disambiguation of phase pairs (phi, phi + pi), and
query accounting.
"""

import json
import math
import numbers
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

from ._checks import check_int, check_real, finite_array, shown
from .spin_algebra import rotation, rotation_z, two_level_rotation

RF = "rf"
LASER = "laser"
ORACLE = "oracle"

DESIGN_ANGLES = (0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0)

PSK = "psk"
ASK = "ask"

CHANNELS = (RF, LASER, ORACLE)
ENCODINGS = (PSK, ASK)


@dataclass(frozen=True)
class Pulse:
    """One rotation instruction.

    index is the 1-based position in the program and label a free-text
    name; theta/phi are the table values in radians. Oracle pulses leave
    one parameter open: phase-keyed oracles always rotate by theta=pi
    about the encoded axis plus oracle_phase_offset, amplitude-keyed
    oracles rotate by the encoded angle about the fixed axis phi.
    """

    index: int
    label: str
    channel: str
    theta: float
    phi: float
    oracle_phase_offset: float = 0.0

    def __post_init__(self):
        check_int("pulse index", self.index)
        if not isinstance(self.label, str):
            raise ValueError(f"pulse label must be a string, got {shown(self.label)}")
        if self.channel not in CHANNELS:
            raise ValueError(f"pulse channel must be one of {CHANNELS}, got {shown(self.channel)}")
        for name in ("theta", "phi", "oracle_phase_offset"):
            check_real(f"pulse {name}", getattr(self, name))


@dataclass(frozen=True)
class PulseSequence:
    """Ordered pulse program with its encoding and readout assignment.

    pulses is a tuple or list of Pulse, stored as a tuple. readout_map is
    a dict that sends each oracle index 0, 1 and 2 to the readout state
    (0, 1, 2) where an ideal run deterministically ends; the built-in maps
    were frozen from noiseless simulation of the tables.
    """

    name: str
    encoding: str
    pulses: tuple
    readout_map: dict

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ValueError(f"sequence name must be a string, got {shown(self.name)}")
        if self.encoding not in ENCODINGS:
            raise ValueError(f"encoding must be one of {ENCODINGS}, got {shown(self.encoding)}")
        if not isinstance(self.pulses, (tuple, list)):
            raise ValueError(f"pulses must be a tuple or list of Pulse, got {shown(self.pulses)}")
        for i, pulse in enumerate(self.pulses):
            if not isinstance(pulse, Pulse):
                raise ValueError(f"pulses[{i}] must be a Pulse, got {shown(pulse)}")
        object.__setattr__(self, "pulses", tuple(self.pulses))
        if not isinstance(self.readout_map, dict):
            raise ValueError(f"readout_map must be a dict, got {shown(self.readout_map)}")
        for index, state in self.readout_map.items():
            if (isinstance(state, bool) or not isinstance(state, numbers.Integral)
                    or not 0 <= state <= 2):
                raise ValueError(
                    f"readout_map[{index}] must be a readout state 0, 1 or 2, got {shown(state)}")
        if set(self.readout_map) != {0, 1, 2}:
            raise ValueError("readout_map must have one entry for each oracle index 0, 1 "
                             f"and 2, got indices {list(self.readout_map)}")

    def to_json(self):
        payload = {
            "name": self.name,
            "encoding": self.encoding,
            "pulses": [asdict(p) for p in self.pulses],
            "readout_map": {str(k): v for k, v in self.readout_map.items()},
        }
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text):
        """The sequence a to_json() document describes.

        The document's shape is checked before anything is built: one
        ValueError names every path at fault, such as pulses, pulses[0].phi
        or readout_map. A field value Pulse rejects is reported with its
        pulse's path too.
        """
        data = json.loads(text)
        problems = _object_problems(None, data, _SEQUENCE_FIELDS)
        doc = data if isinstance(data, dict) else {}
        records = doc.get("pulses", [])
        if isinstance(records, list):
            for i, record in enumerate(records):
                problems += _object_problems(f"pulses[{i}]", record, _PULSE_REQUIRED,
                                             _PULSE_FIELDS)
        else:
            problems.append(f"pulses must be an array, got {_json_kind(records)}")
        problems += _object_problems("readout_map", doc.get("readout_map", {}), ())
        if problems:
            raise ValueError("malformed sequence JSON: " + "; ".join(problems))
        pulses = []
        for i, record in enumerate(records):
            try:
                pulses.append(Pulse(**record))
            except ValueError as err:
                raise ValueError(f"pulses[{i}]: {err}") from None
        # A key that is not a decimal integer stays a string, which
        # __post_init__ rejects as an index other than 0, 1 or 2.
        readout_map = {int(k) if k.isdecimal() else k: v
                       for k, v in data["readout_map"].items()}
        return cls(name=data["name"], encoding=data["encoding"],
                   pulses=tuple(pulses), readout_map=readout_map)


_SEQUENCE_FIELDS = tuple(field.name for field in fields(PulseSequence))
_PULSE_FIELDS = tuple(field.name for field in fields(Pulse))
_PULSE_REQUIRED = tuple(field.name for field in fields(Pulse) if field.default is MISSING)


def _json_kind(value):
    """The JSON name of a decoded value's type."""
    if value is None:
        return "null"
    return {bool: "boolean", str: "string", list: "array", dict: "object"}.get(type(value), "number")


def _object_problems(path, value, required, allowed=None):
    """What keeps value, at path in a sequence document (None for the
    document itself), from being a JSON object with every key in required
    and, if allowed is given, no key outside it: one phrase per fault, each
    naming its path."""
    if not isinstance(value, dict):
        return [f"{path or 'the document'} must be an object, got {_json_kind(value)}"]
    prefix = f"{path}." if path else ""
    problems = [f"missing {prefix}{key}" for key in required if key not in value]
    if allowed is not None:
        problems += [f"unknown field {prefix}{key}" for key in value if key not in allowed]
    return problems


_TWO_PI = 2.0 * math.pi
# The turns OracleSpec shifts a wrapped angle by to find a clash across 0 and 2*pi.
_SHIFTS = (-_TWO_PI, 0.0, _TWO_PI)


@dataclass(frozen=True)
class OracleSpec:
    """The unknown channel: an encoding, its candidate angles, a hidden index."""

    encoding: str
    candidate_angles: tuple
    hidden_index: int

    def __post_init__(self):
        if self.encoding not in ENCODINGS:
            raise ValueError(f"unknown encoding {self.encoding!r}")
        angles = finite_array("candidate_angles", self.candidate_angles)
        if angles.ndim != 1:
            raise ValueError(f"candidate_angles must be a sequence of angles, got shape "
                             f"{angles.shape}")
        # Pair (i, k), i < k, clashes when wrapped[i], shifted by -2*pi, 0
        # or 2*pi, is close to wrapped[k]: the shifts catch 0 and 2*pi - eps.
        # Close is np.isclose(x, y, atol=1e-12) written out: |x - y| <= 1e-12
        # + 1e-5 |y|, where y = wrapped[k] >= 0.
        wrapped = [angle % _TWO_PI for angle in angles.tolist()]
        for k, y in enumerate(wrapped):
            for x in wrapped[:k]:
                if any(abs(x + shift - y) <= 1e-12 + 1e-5 * y for shift in _SHIFTS):
                    raise ValueError("candidate angles must be distinct modulo 2*pi")
        if check_int("hidden_index", self.hidden_index, 0) >= len(angles):
            raise ValueError(
                f"hidden index {shown(self.hidden_index)} out of range for "
                f"{len(angles)} candidates"
            )

    @property
    def hidden_angle(self):
        return float(self.candidate_angles[self.hidden_index])


def resolve_oracle_pulse(pulse, encoding, signal_angle):
    """Concrete (theta, phi) of an oracle pulse for a given signal angle."""
    if pulse.channel != ORACLE:
        raise ValueError("not an oracle pulse")
    if encoding == PSK:
        return pulse.theta, signal_angle + pulse.oracle_phase_offset
    return signal_angle, pulse.phi


_PI = math.pi


def psk3_sequence():
    """The 11-pulse phase-keyed triad discriminator.

    Oracle pulses are fixed-length pi-rotations whose axis is the encoded
    phase plus a fixed pi offset; the two laser pulses couple the shelving
    pair, first loading the processing manifold and then parking the
    "phase = 0" branch in the ground manifold mid-sequence.
    """
    rows = (
        Pulse(1, "Laser", LASER, _PI, 0.0),
        Pulse(2, "Oracle", ORACLE, _PI, 0.0, oracle_phase_offset=_PI),
        Pulse(3, "U0", RF, -1.1885, 2.9271),
        Pulse(4, "Oracle", ORACLE, _PI, 0.0, oracle_phase_offset=_PI),
        Pulse(5, "U1", RF, -1.1881, 0.2146),
        Pulse(6, "Laser", LASER, _PI, 0.0),
        Pulse(7, "U2", RF, 1.0557, -2.2241),
        Pulse(8, "Oracle", ORACLE, _PI, 0.0, oracle_phase_offset=_PI),
        Pulse(9, "U3", RF, -0.8414, -1.0725),
        Pulse(10, "Oracle", ORACLE, _PI, 0.0, oracle_phase_offset=_PI),
        Pulse(11, "U4", RF, -1.1807, 2.0282),
    )
    return PulseSequence(name="psk3", encoding=PSK, pulses=rows,
                         readout_map=dict(_PSK3_READOUT_MAP))


def ask3_sequence(exact=False):
    """The 18-pulse amplitude-keyed triad discriminator.

    Oracle pulses rotate by the encoded angle about the y axis (phi = pi/2);
    the second half appends the extra 2pi/3 rotations that cycle the
    candidate set before re-running the splitter.

    The default stores the three processing angles as tabulated. They were
    solved in the two-level picture to a 1e-4 tolerance (branches 0 and 2
    reach 0.9999 there), 0.005-0.010 rad from the closed forms. In spin J a
    transfer out of an extreme level goes as p^(2J), so the six-level space
    scales that tolerance by 2J = 5 and caps the noiseless branch fidelity
    near 0.9995. exact=True substitutes the closed-form values
    (arctan(sqrt(2)), arccos(1/3), and arctan(sqrt(2)) - pi), making every
    branch deterministic to 1e-9.
    """
    if exact:
        u1 = math.atan(math.sqrt(2.0))
        u2 = math.acos(1.0 / 3.0)
        u3 = math.atan(math.sqrt(2.0)) - _PI
    else:
        u1, u2, u3 = 0.9603, 1.2410, -2.1813
    rows = (
        Pulse(1, "Laser", LASER, _PI, 0.0),
        Pulse(2, "U0", RF, _PI / 2.0, 0.0),
        Pulse(3, "U1", RF, u1, 0.0),
        Pulse(4, "Oracle", ORACLE, 0.0, _PI / 2.0),
        Pulse(5, "U2", RF, u2, 0.0),
        Pulse(6, "Oracle", ORACLE, 0.0, _PI / 2.0),
        Pulse(7, "U3", RF, u3, 0.0),
        Pulse(8, "U4", RF, -_PI / 2.0, 0.0),
        Pulse(9, "Laser", LASER, _PI, 0.0),
        Pulse(10, "U5", RF, _PI / 2.0, 0.0),
        Pulse(11, "U6", RF, u1, 0.0),
        Pulse(12, "Oracle", ORACLE, 0.0, _PI / 2.0),
        Pulse(13, "U7", RF, 2.0 * _PI / 3.0, _PI / 2.0),
        Pulse(14, "U8", RF, u2, 0.0),
        Pulse(15, "Oracle", ORACLE, 0.0, _PI / 2.0),
        # The cycling rotation must share the oracle axis for both calls.
        # With phi = 0 here the second call is not cycled: branches 1 and 2
        # then send ~0.81 to the other branch's readout state in two levels,
        # and about two thirds ends as leakage in six (notes/decisions.md,
        # "The ASK U9 cycling phase").
        Pulse(16, "U9", RF, 2.0 * _PI / 3.0, _PI / 2.0),
        Pulse(17, "U10", RF, u3, 0.0),
        Pulse(18, "U11", RF, -_PI / 2.0, 0.0),
    )
    name = "ask3-exact" if exact else "ask3"
    return PulseSequence(name=name, encoding=ASK, pulses=rows,
                         readout_map=dict(_ASK3_READOUT_MAP))


# Frozen from ideal simulation of the tables (see tests): readout state 0 is
# the ground manifold, 1 and 2 the two metastable readout sublevels.
_PSK3_READOUT_MAP = {0: 0, 1: 1, 2: 2}
_ASK3_READOUT_MAP = {0: 0, 1: 1, 2: 2}


def psk_to_ask_wrap(phi, dim):
    """Sandwich converting a phase-pi-rotation into an x-rotation of 2*phi.

    Returns Rz * Ry(+pi/2-type) * R(pi, phi) * Ry(-pi/2-type), which equals
    rotation(dim, 2*phi, 0) up to a global phase; with the sign conventions
    used here the equality is exact in dim 2 and holds in any spin-J space
    because the identity lives at the group level.
    """
    return (
        rotation_z(dim, _PI / 2.0)
        @ rotation(dim, -_PI / 2.0, _PI / 2.0)
        @ rotation(dim, _PI, phi)
        @ rotation(dim, _PI / 2.0, _PI / 2.0)
    )


# The largest candidate count bisection_protocol accepts: run_bisection holds
# every index, offset and difference of two of them as an int64.
_MAX_CANDIDATES = 1 << 62


@dataclass(frozen=True)
class BisectionStage:
    """One halving step: a pure-Chebyshev product plus an oracle pre-rotation.

    qsp_degree is the number of oracle queries the stage consumes; offset is
    subtracted from the signal angle by appending a fixed x-rotation to each
    oracle call, so the surviving candidate subset always sits on the node
    grid of the stage polynomial.
    """

    stage: int
    subset_size: int
    qsp_degree: int
    offset: float


@dataclass(frozen=True)
class BisectionProtocol:
    """Halving protocol for n = 2^k equally spaced amplitude candidates."""

    n: int
    stages: tuple

    @property
    def total_queries(self):
        return sum(stage.qsp_degree for stage in self.stages)


def bisection_protocol(n):
    """Build the stage list that identifies one of n = 2^k candidates.

    Stage j applies the pure Chebyshev product of degree n / 2^j (all-zero
    phases), whose squared response at the candidate angles alternates
    exactly between 1 and 0, splitting the surviving set in half. The
    offsets accumulated by earlier answers ride along as pre-rotations on
    the oracle, so they cost no extra queries. The final stage (degree 1)
    is a single query: apply the re-centered oracle and measure.
    """
    n = check_int("n", n)
    if n > _MAX_CANDIDATES:
        raise ValueError(f"n must be <= 2**62, so every count of 2 pi / n fits int64, got {n}")
    if n < 2 or (n & (n - 1)) != 0:
        raise ValueError(
            f"n = {n} is not a power of two; protocols for other candidate "
            "counts concatenate prime-factor subprotocols and are not "
            "implemented here"
        )
    k = n.bit_length() - 1
    stages = tuple(
        BisectionStage(stage=j, subset_size=n >> (j - 1),
                       qsp_degree=n >> j, offset=2.0 * np.pi / (n >> (j - 1)))
        for j in range(1, k + 1)
    )
    return BisectionProtocol(n=n, stages=stages)


def run_bisection(protocol, hidden_index):
    """Noiseless simulation of the bisection protocol.

    Each stage applies the all-zero-phase product of degree d to the offset
    signal x and measures the return population. That product's top-left
    entry is the Chebyshev polynomial T_d(cos(x/2)) = cos(d x / 2), so the
    population is cos(d x / 2)^2 in closed form: 1 for the even half of
    the surviving subset and 0 for the odd half. The signal and the
    accumulated offset are held as int64 counts of 2 pi / n, and the
    population has period n / d in that count, so the count is reduced
    modulo n / d before the cosine: every population is exactly 1 or
    cos(pi / 2)^2 and the identified index is exact at every n.
    hidden_index is the candidate the oracle holds: an integer in [0, n),
    or an integer array of them, all run at once with one loop over the
    stages.

    Returns
    -------
    (identified_index, queries_used, worst_margin)
        worst_margin is the largest distance of any stage population from
        its ideal 0/1 value. For an integer these are int, int and float;
        for an array, identified_index and worst_margin are arrays of its
        shape.
    """
    n = protocol.n
    try:
        hidden = np.asarray(hidden_index)
    except ValueError:  # a ragged nest of sequences
        raise ValueError(
            f"hidden_index must be an integer array, got {shown(hidden_index)}") from None
    scalar = hidden.ndim == 0
    if scalar and check_int("hidden_index", hidden_index, minimum=0) >= n:
        raise ValueError(f"hidden_index must be < {n}, got {shown(hidden_index)}")
    if hidden.dtype.kind not in "iu":
        raise ValueError(f"hidden_index must hold integers, got dtype {hidden.dtype}")
    if hidden.size and (hidden.min() < 0 or hidden.max() >= n):
        raise ValueError(f"hidden_index must lie in [0, {n}), got values from "
                         f"{hidden.min()} to {hidden.max()}")
    hidden = hidden.astype(np.int64)
    shift = np.zeros_like(hidden)
    worst = np.zeros(hidden.shape)
    for stage in protocol.stages:
        period = n // stage.qsp_degree
        p_return = np.cos(np.pi * ((hidden - shift) % period) / period) ** 2
        np.maximum(worst, np.minimum(p_return, 1.0 - p_return), out=worst)
        # Odd half survives: shift the reference onto that subset by
        # stage.offset, n // subset_size counts of 2 pi / n.
        shift += (p_return < 0.5) * (n // stage.subset_size)
    identified = shift % n
    if scalar:
        return int(identified), protocol.total_queries, float(worst)
    return identified, protocol.total_queries, worst


@dataclass(frozen=True)
class DisambiguationStep:
    """Descriptor of the one-query test separating phases phi and phi + pi.

    The wrapped oracle is +/- the known x-rotation by 2*phi_low; one query
    sandwiched between two half-swaps on an auxiliary two-level block turns
    that global sign into orthogonal measurement outcomes. Every step
    spends one extra query on the same auxiliary block, so extra_queries
    and block_levels are class constants, not fields.
    """

    phi_low: float
    phi_high: float
    extra_queries = 1
    block_levels = (4, 6)  # metastable m=-3/2 and ground m=+1/2


def even_psk_disambiguation(phi_pair):
    """Build the disambiguation step for two phases differing by pi."""
    phi_low, phi_high = (float(phi_pair[0]), float(phi_pair[1]))
    if not np.isclose((phi_high - phi_low) % (2.0 * np.pi), np.pi, atol=1e-9):
        raise ValueError("phases must differ by pi")
    return DisambiguationStep(phi_low=phi_low, phi_high=phi_high)


def run_disambiguation(step, which):
    """Ideal simulation of the disambiguation step on the 8-level ion space.

    Population starts in the ground block level; a half-swap creates the
    superposition, the hidden phase oracle is applied once (wrapped into
    +/- x-rotation form and then undone by the known inverse), and the
    closing half-swap interferes the branches.

    Returns
    -------
    (identified_phi, p_correct)
    """
    if which not in (0, 1):
        raise ValueError("which must be 0 (low phase) or 1 (high phase)")
    phi_true = step.phi_low if which == 0 else step.phi_high

    d_level, s_level = step.block_levels
    state = np.eye(8, dtype=complex)[s_level]

    state = two_level_rotation(state, (d_level, s_level), _PI / 2.0)
    # The wrapped oracle and the known inverse act on the metastable block.
    undo = rotation(6, 2.0 * step.phi_low, 0.0).conj().T
    state[:6] = undo @ (psk_to_ask_wrap(phi_true, 6) @ state[:6])
    state = two_level_rotation(state, (d_level, s_level), _PI / 2.0, phase=_PI)

    p_ground = abs(state[s_level]) ** 2
    p_block = abs(state[d_level]) ** 2
    # The +1 branch interferes back into the ground level, the -1 branch
    # into the metastable block level.
    if p_ground >= p_block:
        return step.phi_low, p_ground
    return step.phi_high, p_block


def query_count(obj):
    """Number of oracle queries a sequence or protocol consumes."""
    if isinstance(obj, PulseSequence):
        return sum(1 for p in obj.pulses if p.channel == ORACLE)
    if isinstance(obj, BisectionProtocol):
        return obj.total_queries
    if isinstance(obj, DisambiguationStep):
        return obj.extra_queries
    raise TypeError(f"cannot count queries of {type(obj).__name__}")
