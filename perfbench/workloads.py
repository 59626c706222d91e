"""Seeded operation lists for the three workloads, and the call that runs one op.

Each workload is a fixed list of operations drawn from a seed and run as a
closed loop with one client: the next op starts when the previous one has
returned. Every list has a fixed composition (exact counts per op kind,
balanced sequence, noise and format assignments, and a fixed ladder of
sizes), so two seeds differ in which inputs they use
(sequences paired with sizes, noise values, angles, oracle indices, phase
vectors, servo seeds, order) but hardly in how much work they hold. That
keeps throughput and latency percentiles comparable across seeds.

CLI ops go through ``spinkey.cli.main(argv)`` in-process; API ops call the
public functions the demos use. The library receives only the generated
argv lists and arrays. Module attributes are looked up at call time so a
tracer that rebinds them sees every call.
"""

import contextlib
import io
import itertools
import math
from dataclasses import dataclass

import numpy as np

import spinkey.cli
from spinkey import baselines, field_servo, qsp

from .reference_math import qsp_p

SEQUENCES = ("psk3", "ask3", "ask3-exact")
FORMATS = ("csv", "json")
SERVO_TAUS = (1, 2, 5, 10, 20, 50, 100, 200)

WHY = {
    "resonant-scans": (
        "resonant angle/time scans and single runs: every grid point reuses the "
        "same pulses and generators, the case a compile-once propagator cache serves"
    ),
    "detuned-budget": (
        "detuning scans and the servo error budget: each grid point has its own "
        "Hamiltonian per pulse, so a resonant-only cache is bypassed"
    ),
    "qsp-protocols": (
        "phase finding, response curves, bisection and baselines: qsp, protocols "
        "and baselines work only, the ion model is never called"
    ),
}


@dataclass(frozen=True)
class Op:
    """One operation of a workload.

    kind names what runs; argv is the CLI argument list (without --out) for
    CLI ops and None for API ops; params holds the structured inputs the
    output checks need; points is the number of grid points in the input
    (1 for a single evaluation).
    """

    kind: str
    params: dict
    argv: tuple = None
    points: int = 1


def _ladder(rng, n):
    """The midpoints of n equal strata of (0, 1), in random order."""
    return rng.permutation((np.arange(n) + 0.5) / n)


def _balanced(rng, values, n):
    """n items cycling through values, in random order."""
    return [values[i] for i in rng.permutation(np.arange(n) % len(values))]


def _design(rng, n, lo, hi, *factors):
    """n rows (size, *levels) in random order.

    Every combination of factor levels occurs equally often, and within
    each combination the sizes form the same log-uniform ladder on
    [lo, hi], so the work a list holds, and how it is spread over the ops,
    barely depends on the seed.
    """
    combos = list(itertools.product(*factors))
    if n % len(combos):
        raise ValueError(f"{n} rows do not split evenly over {len(combos)} combinations")
    rows = [(_log_int(u, lo, hi),) + combo
            for combo in combos for u in _ladder(rng, n // len(combos))]
    return [rows[i] for i in rng.permutation(n)]


def _log_int(u, lo, hi):
    return int(round(lo * (hi / lo) ** u))


def _noise(rng, noisy):
    """Ideal, or each channel drawn at the scale of NoiseModel.lab().

    The leakage rate reaches 200/s, where a psk3 run loses about 6% of its
    norm to leakage.
    """
    if not noisy:
        return {}
    u = rng.random(4)
    return {"spam_error": 4e-4 * u[0], "laser_pi_error": 1e-3 * u[1],
            "rf_amp_error": 2e-3 * u[2] - 1e-3, "leakage_rate": 200.0 * u[3]}


def _flag(name, value):
    # "--name=value": argparse would read a separate "-5e-05" as an option.
    return f"--{name.replace('_', '-')}={float(value)!r}"


def _noise_argv(noise):
    return [_flag(name, value) for name, value in noise.items()]


def _cli_op(kind, params, argv, points=1):
    return Op(kind, params, tuple(argv) + ("--format", params["format"]), points)


def _resonant_scans(rng):
    ops = []
    # (kind, count, fixed params, sequences, noise levels); the two-level
    # reduction ignores noise, and --check-period only acts on psk3.
    blocks = (("angle", 36, {"dim": 6}, SEQUENCES, (False, True)),
              ("angle", 12, {"dim": 2}, SEQUENCES, (False,)),
              ("angle", 12, {"dim": 6, "check_period": True}, ("psk3",), (False, True)),
              ("time", 30, {}, SEQUENCES, (False, True)),
              ("run", 30, {}, SEQUENCES, (False, True)))
    for kind, n, extra, seqs, noise_levels in blocks:
        formats = _balanced(rng, FORMATS, n)
        for (points, seq, noisy), fmt in zip(_design(rng, n, 4, 241, seqs, noise_levels), formats):
            noise = _noise(rng, noisy)
            params = {"seq": seq, "noise": noise, "format": fmt, **extra}
            if kind == "run":
                params["oracle"] = int(rng.integers(3))
                argv = ["run", "--seq", seq, "--oracle", str(params["oracle"])]
                ops.append(_cli_op("run", params, argv + _noise_argv(noise)))
                continue
            params["points"] = points
            argv = ["scan", kind, "--seq", seq, "--points", str(points)]
            if kind == "angle":
                start = float(rng.uniform(-math.pi, math.pi))
                stop = start + float(rng.uniform(math.pi, 2.0 * math.pi))
                params.update(start=start, stop=stop)
                argv += [_flag("start", start), _flag("stop", stop), "--dim", str(extra["dim"])]
                if extra.get("check_period"):
                    argv.append("--check-period")
            else:
                params["oracle"] = int(rng.integers(3))
                argv += ["--oracle", str(params["oracle"])]
            ops.append(_cli_op("scan-" + kind, params, argv + _noise_argv(noise), points))
    return ops


def _detuned_budget(rng):
    ops = []
    n = 84
    formats = _balanced(rng, FORMATS, n)
    for (points, seq, noisy), fmt in zip(_design(rng, n, 3, 41, SEQUENCES, (False, True)),
                                         formats):
        span = float(rng.uniform(10.0, 80.0))
        noise = _noise(rng, noisy)
        params = {"seq": seq, "noise": noise, "format": fmt,
                  "points": points, "start": -span, "stop": span}
        argv = ["scan", "detuning", "--seq", seq, "--points", str(points),
                _flag("start", -span), _flag("stop", span)]
        ops.append(_cli_op("scan-detuning", params, argv + _noise_argv(noise), points))
    for u in _ladder(rng, 24):
        params = {"duration": float(round(300.0 + 3300.0 * u)),
                  "seed": int(rng.integers(2**31))}
        ops.append(Op("servo-budget", params))
    return ops


def _sampled_pairs(rng, degree, count):
    """Sample points and |P(a)| of a random phase vector, so a solution exists."""
    phases = rng.uniform(-math.pi, math.pi, degree + 1)
    points = np.sort(rng.uniform(0.05, 0.95, count))
    return [[float(a), float(abs(qsp_p(phases, a)))] for a in points]


def _qsp_protocols(rng):
    ops = []
    for i in range(16):
        k = 1 + i % 8
        params = {"n": 2 ** k, "format": FORMATS[(i // 8) % 2]}
        ops.append(_cli_op("bisect", params, ["bisect", "--n", str(2 ** k), "--verify"]))
        ops.append(Op("me_majority", {"k": k}))
    for u in _ladder(rng, 16):
        ops.append(Op("find_phases", {"spec": "chebyshev", "degree": 2 + int(15 * u)}))
    for _ in range(8):
        ops.append(Op("find_phases", {"spec": "bisecting", "seed": int(rng.integers(2**31))}))
    # Degree 2 only: at degree 3 the multi-start finder fails on about one
    # spec in a hundred and needs up to 17 s on others.
    for i in range(16):
        ops.append(Op("find_phases", {"spec": "sampled", "degree": 2,
                                      "pairs": _sampled_pairs(rng, 2, 2 + i % 2),
                                      "seed": int(rng.integers(2**31))}))
    # Every pairing of a degree quarter with an angle-count quarter once.
    for i, j in itertools.product(range(4), repeat=2):
        degree = _log_int((i + 0.5) / 4, 4, 64)
        points = _log_int((j + 0.5) / 4, 101, 1001)
        params = {"phases": rng.uniform(-math.pi, math.pi, degree + 1),
                  "angles": np.linspace(0.0, 2.0 * math.pi, points)}
        ops.append(Op("response_curve", params, points=points))
    formats = _balanced(rng, FORMATS, 16)
    for i in range(16):
        params = {"accuracy": float(rng.uniform(0.5, 1.0)), "format": formats[i]}
        ops.append(_cli_op("baselines", params,
                           ["baselines", _flag("accuracy", params["accuracy"])]))
    return ops


GENERATORS = {
    "resonant-scans": _resonant_scans,
    "detuned-budget": _detuned_budget,
    "qsp-protocols": _qsp_protocols,
}


def generate(workload, seed):
    """The workload's op list for a seed, in execution order."""
    rng = np.random.default_rng([seed, sorted(GENERATORS).index(workload)])
    ops = GENERATORS[workload](rng)
    return [ops[i] for i in rng.permutation(len(ops))]


@dataclass(frozen=True)
class CliOutput:
    code: int
    stdout: str
    stderr: str


def execute(op, out_path):
    """Run one op. CLI ops write to out_path and return a CliOutput."""
    if op.argv is not None:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = spinkey.cli.main(list(op.argv) + ["--out", out_path])
            except SystemExit as exc:  # argparse rejected the argv
                code = exc.code if isinstance(exc.code, int) else 2
        return CliOutput(code, stdout.getvalue(), stderr.getvalue())
    p = op.params
    if op.kind == "find_phases":
        if p["spec"] == "chebyshev":
            return qsp.find_phases(qsp.PolynomialSpec.chebyshev(p["degree"]))
        if p["spec"] == "bisecting":
            return qsp.find_phases(qsp.PolynomialSpec.bisecting(), seed=p["seed"])
        spec = qsp.PolynomialSpec.sampled(p["pairs"], p["degree"])
        return qsp.find_phases(spec, seed=p["seed"])
    if op.kind == "response_curve":
        return qsp.response_curve(p["phases"], p["angles"])
    if op.kind == "me_majority":
        return baselines.me_majority(baselines.symmetric_states(), p["k"])
    if op.kind == "servo-budget":
        drift, servo = field_servo.DriftModel.lab(), field_servo.ServoConfig.lab()
        trace = field_servo.simulate_servo(drift, servo, p["duration"], p["seed"])
        y = trace.true_freq_hz / drift.carrier_hz
        taus = [float(m) for m in SERVO_TAUS if 2 * m <= y.size]
        sigma = field_servo.allan_deviation(y, taus, dt=servo.period_s)
        budget = field_servo.detuning_error_budget(trace.residual_hz)
        return {"residual_hz": trace.residual_hz, "taus": taus, "sigma": sigma,
                "budget": budget}
    raise ValueError(f"unknown op kind {op.kind!r}")
