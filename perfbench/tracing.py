"""Spans around the public functions of each spinkey module, from outside the library.

install() wraps every listed function and rebinds each spinkey module
attribute that is the same function object, which also catches by-name
imports (``from .spin_algebra import rotation``), call-time imports, and
``qsp.minimize``. remove() puts the original objects back. The untraced
run never installs wrappers.

Spans are kept in memory as (name, start, end, parent, op id) and written
out by save(). A span's self time is its duration minus the durations of
its direct children; calls run on one thread, so children never overlap.
"""

import functools
import sys
import time
from collections import defaultdict

import numpy as np

TARGETS = {
    "spin_algebra": ("rotation",),
    "qsp": ("qsp_unitary", "find_phases", "minimize", "response_curve"),
    "protocols": ("resolve_oracle_pulse", "run_bisection"),
    "ion_sim": ("run", "rf_unitary", "apply_laser_pi", "sequential_readout",
                "angle_scan", "time_series", "detuning_scan", "run_qubit_reduction"),
    "field_servo": ("simulate_servo", "ramsey_probability", "detuning_error_budget",
                    "allan_deviation"),
    "baselines": ("me_majority", "outcome_probabilities"),
    "cli": ("main",),
}


def spinkey_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "spinkey" or name.startswith("spinkey.")]


class Tracer:
    def __init__(self):
        self.spans = []
        # name -> [calls, self seconds, calls that raised]
        self.stats = defaultdict(lambda: [0, 0.0, 0])
        self.op_id = -1
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        spans, stack, stats, clock = self.spans, self._stack, self.stats[name], time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            raised = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = clock()
                stack.pop()
                spans[frame[0]] = (name, start, end, parent[0] if parent else -1, tracer.op_id)
                stats[0] += 1
                stats[1] += (end - start) - frame[1]
                stats[2] += raised
                if parent:
                    parent[1] += end - start

        return traced

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = spinkey_modules()
        for module, functions in TARGETS.items():
            home = sys.modules["spinkey." + module]
            for fname in functions:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{module}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def remove(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def call_op(self, op_id, kind, fn, *args):
        """Run fn(*args) as the root span of one op."""
        self.op_id = op_id
        try:
            return self._wrap("op." + kind, fn)(*args)
        finally:
            self.op_id = -1

    def save(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        cols = list(zip(*self.spans)) if self.spans else [()] * 5
        np.savez(path, names=np.array(names),
                 name=np.array([index[n] for n in cols[0]], dtype=np.int32),
                 start=np.array(cols[1], dtype=float), end=np.array(cols[2], dtype=float),
                 parent=np.array(cols[3], dtype=np.int64), op=np.array(cols[4], dtype=np.int32))


def layer_metrics(tracer, passes, points_per_pass, bytes_per_pass):
    """Per-layer metrics per pass over the op list, named <module>.<function>.<kind>."""
    stats = tracer.stats
    metrics = {}

    def calls(name):
        return stats[name][0] / passes if name in stats else 0.0

    def self_s(name):
        return stats[name][1] / passes if name in stats else 0.0

    for name in ("ion_sim.run", "ion_sim.rf_unitary", "ion_sim.apply_laser_pi",
                 "ion_sim.sequential_readout", "spin_algebra.rotation",
                 "protocols.run_bisection", "qsp.qsp_unitary", "qsp.find_phases",
                 "field_servo.simulate_servo", "baselines.me_majority", "cli.main"):
        metrics[name + ".calls"] = (calls(name), "count")
        metrics[name + ".self_s"] = (self_s(name), "s")
    for name in ("ion_sim.angle_scan", "ion_sim.time_series", "ion_sim.detuning_scan",
                 "ion_sim.run_qubit_reduction", "qsp.response_curve",
                 "field_servo.detuning_error_budget", "field_servo.allan_deviation"):
        metrics[name + ".self_s"] = (self_s(name), "s")
    for name in ("protocols.resolve_oracle_pulse", "qsp.minimize",
                 "field_servo.ramsey_probability", "baselines.outcome_probabilities"):
        metrics[name + ".calls"] = (calls(name), "count")
    metrics["ion_sim.rf_unitary.calls_per_point"] = (
        calls("ion_sim.rf_unitary") / points_per_pass, "calls/point")
    solves = calls("qsp.find_phases") - (stats["qsp.find_phases"][2] / passes
                                          if "qsp.find_phases" in stats else 0.0)
    metrics["qsp.find_phases.minimize_per_solve"] = (
        calls("qsp.minimize") / solves if solves else 0.0, "calls/solve")
    metrics["cli.bytes_written"] = (bytes_per_pass, "bytes")
    return metrics


def module_shares(tracer):
    """Share of all op time spent as self time in each module (op.* is benchmark glue)."""
    per_module = defaultdict(float)
    for name, (_, self_time, _) in tracer.stats.items():
        per_module[name.split(".")[0]] += self_time
    total = sum(per_module.values())
    return {m: t / total for m, t in sorted(per_module.items())} if total else {}
