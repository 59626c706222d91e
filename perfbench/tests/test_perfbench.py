"""Tests of the benchmark itself: op generation, tracing and output checks.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import spinkey  # noqa: E402
from perfbench import checks, tracing, workloads  # noqa: E402
from perfbench.reference_math import qsp_p, triad_majority  # noqa: E402
from perfbench.run import Runner  # noqa: E402
from spinkey import baselines, qsp  # noqa: E402


def _listing(ops):
    return json.dumps([(op.kind, op.argv, op.params, op.points) for op in ops],
                      default=lambda a: np.asarray(a).tolist())


def _cheap(workload, kinds, limit=2):
    """Up to `limit` small ops of each kind, in list order."""
    picked = {}
    for op in workloads.generate(workload, 7):
        small = (op.points <= (200 if op.kind == "response_curve" else 40)
                 and op.params.get("n", 0) <= 16 and op.params.get("k", 0) <= 4)
        if op.kind in kinds and small and len(picked.setdefault(op.kind, [])) < limit:
            picked[op.kind].append(op)
    return [op for ops in picked.values() for op in ops]


def _run(op, tmp_path, tracer=None):
    out = tmp_path / "op.out"
    out.unlink(missing_ok=True)
    if tracer is None:
        output = workloads.execute(op, str(out))
    else:
        output = tracer.call_op(0, op.kind, workloads.execute, op, str(out))
    return output, (out.read_text() if out.exists() else None)


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_same_seed_gives_same_op_list(workload):
    first = workloads.generate(workload, 3)
    assert _listing(first) == _listing(workloads.generate(workload, 3))
    assert _listing(first) != _listing(workloads.generate(workload, 4))
    assert len(first) >= 100


def _bindings():
    return {(mod.__name__, name): id(value)
            for mod in tracing.spinkey_modules() for name, value in vars(mod).items()}


def test_install_and_remove_restore_original_functions():
    before = _bindings()
    original_rotation = spinkey.spin_algebra.rotation
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = spinkey.spin_algebra.rotation
        assert wrapped is not original_rotation
        # By-name imports share the one wrapper.
        assert spinkey.protocols.rotation is wrapped
        assert spinkey.baselines.rotation is wrapped
        assert spinkey.rotation is wrapped
        assert qsp.minimize is not scipy.optimize.minimize
    finally:
        tracer.remove()
    assert _bindings() == before
    assert spinkey.spin_algebra.rotation is original_rotation


def test_traced_and_untraced_outputs_are_identical(tmp_path):
    ops = (_cheap("resonant-scans", {"run", "scan-angle", "scan-time"})
           + _cheap("detuned-budget", {"scan-detuning"})
           + _cheap("qsp-protocols", {"bisect", "me_majority", "response_curve",
                                      "find_phases", "baselines"}))
    untraced = [checks.fingerprint(*_run(op, tmp_path)) for op in ops]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = [checks.fingerprint(*_run(op, tmp_path, tracer)) for op in ops]
    finally:
        tracer.remove()
    assert traced == untraced
    for name in ("cli.main", "ion_sim.rf_unitary", "ion_sim.sequential_readout",
                 "spin_algebra.rotation", "qsp.qsp_unitary", "qsp.minimize",
                 "protocols.run_bisection", "baselines.me_majority"):
        assert tracer.stats[name][0] > 0, name
    # Each span's parent opened before it and closed after it.
    for name, start, end, parent, _ in tracer.spans:
        if parent >= 0:
            assert tracer.spans[parent][1] <= start <= end <= tracer.spans[parent][2]


def test_output_check_flags_injected_perturbation(tmp_path, monkeypatch):
    ops = _cheap("qsp-protocols", {"response_curve", "me_majority"}, limit=1)
    honest = Runner(ops, None, tmp_path)
    honest.run_pass()
    assert honest.failed == 0
    references = []
    for op in ops:
        fails, vector = checks.check(op, *_run(op, tmp_path))
        assert fails == []
        references.append(checks.digest(vector))

    curve = qsp.response_curve
    majority = baselines.me_majority
    monkeypatch.setattr(qsp, "response_curve", lambda *a: curve(*a) * (1.0 - 1e-6))
    monkeypatch.setattr(baselines, "me_majority", lambda *a: majority(*a) + 1e-7)
    runner = Runner(ops, references, tmp_path)
    runner.run_pass()
    assert runner.failed == len(ops) and runner.known == 0
    assert {name for _, _, name, _ in runner.failures} >= {"reference", "majority-value"}


def test_invariants_flag_impossible_probabilities(tmp_path):
    op = next(op for op in workloads.generate("resonant-scans", 0)
              if op.kind == "run" and op.params["format"] == "csv")
    output, text = _run(op, tmp_path)
    assert checks.check(op, output, text)[0] == []
    lines = text.splitlines()
    lines[-4] = "state0,1.5"
    names = {name for name, _ in checks.check(op, output, "\n".join(lines))[0]}
    assert names == {"probability-range", "readout-sum"}


def test_time_series_leakage_mismatch_is_reported(tmp_path):
    ops = [op for op in workloads.generate("resonant-scans", 0)
           if op.kind == "scan-time" and op.points <= 20]
    for op in ops:
        names = {name for name, _ in checks.check(op, *_run(op, tmp_path))[0]}
        leaks = op.params["noise"].get("leakage_rate", 0.0) > 0.0
        assert names == ({checks.KNOWN_DEFECT} if leaks else set())
    assert any(op.params["noise"] for op in ops)


def test_reference_math_matches_library():
    rng = np.random.default_rng(5)
    for degree in (1, 4, 9):
        phases = rng.uniform(-np.pi, np.pi, degree + 1)
        for a in (-0.9, 0.0, 0.3, 1.0):
            assert abs(qsp_p(phases, a) - qsp.qsp_unitary(phases, a)[0, 0]) < 1e-12
    triad = baselines.symmetric_states()
    for k in range(1, 6):
        assert abs(triad_majority(k) - baselines.me_majority(triad, k)) < 1e-12
