"""Run one benchmark workload and print its result as the last line of stdout.

    python3 perfbench/run.py --workload resonant-scans --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root; the library is imported from src/. With
--trace 0 the end-to-end metrics are measured with no wrappers installed;
with --trace 1 a separate traced run gives the per-layer metrics. --workload
all runs every workload, one fresh process each, one after another, and
prints a table of all end-to-end metrics with units. Each run also writes
its full record (environment, inputs, sample counts, failures) and, when
traced, its spans under perfbench/out/.
"""

import os

# Pin BLAS threads before numpy loads. One thread: the library's matrices
# are 2x2 to 8x8, where more threads only add scheduling noise.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("resonant-scans", "detuned-budget", "qsp-protocols")
MODULES = ("spin_algebra", "qsp", "protocols", "ion_sim", "field_servo", "baselines", "cli")
# The timed run repeats the op list at least this often; each op's latency
# is the median over passes of its speed-scaled time (see SpeedGauge).
MIN_PASSES = 4
SETUP_PROBES = 12
END_TO_END = ("ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb", "setup_s")
# Reported times are scaled to a machine on which the gauge kernel takes
# CAL_REF_S; the median of the GAUGE_WINDOW kernel samples around a call
# gives the speed it ran at. 31 samples span about one second of ops.
CAL_REF_S = 5e-4
GAUGE_WINDOW = 31


class SpeedGauge:
    """Machine speed, from a fixed kernel timed next to every measured call.

    The shared host this benchmark was defined on runs the same code up to
    twice as slowly for minutes at a time, so raw times of two runs are
    only comparable under equal load. The kernel, small Hermitian
    eigendecompositions and propagators like the library's hot path, is
    the benchmark's own code and never changes. An op's time over the
    kernel's time nearby moves far less with the load than either alone.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        h = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        self._h = h + h.conj().T
        self.samples = []

    def sample(self):
        clock = time.perf_counter
        start = clock()
        for k in range(20):
            w, v = np.linalg.eigh(self._h * (1.0 + 1e-3 * k))
            (v * np.exp(-1j * w)) @ v.conj().T
        self.samples.append(clock() - start)

    def factors(self):
        """CAL_REF_S over the running median of the samples, one per sample."""
        padded = np.pad(np.asarray(self.samples), GAUGE_WINDOW // 2, mode="edge")
        windows = np.lib.stride_tricks.sliding_window_view(padded, GAUGE_WINDOW)
        return CAL_REF_S / np.median(windows, axis=1)


def quantile(values, q):
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of all order statistics.

    Interpolating between two neighbours jumps wherever the sorted
    latencies have gaps; this estimate moves smoothly.
    """
    from scipy.special import betainc

    x = np.sort(values)
    edges = betainc(q * (x.size + 1), (1.0 - q) * (x.size + 1), np.arange(x.size + 1) / x.size)
    return float(np.diff(edges) @ x)


def _probe_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class SetupProbes:
    """Set-up timings from fresh interpreters running setup_probe.py.

    The run calls keep_pace() between passes, so the probes sample the
    whole measuring window: the machine has slow phases lasting seconds,
    and probes taken back to back would all land in one of them. Probes
    never run concurrently with each other or with the workload.
    """

    def __init__(self, importtime, gauge=None):
        self.cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
        self.cmd.append(str(ROOT / "perfbench" / "setup_probe.py"))
        self.totals, self.imports = [], {m: [] for m in MODULES}
        self.gauge, self.gauge_spans = gauge, []

    def keep_pace(self, window_share):
        """Run probes until their share of SETUP_PROBES covers window_share."""
        while len(self.totals) < min(SETUP_PROBES, math.ceil(SETUP_PROBES * window_share)):
            self._take()

    def finish(self):
        self.keep_pace(1.0)

    def _take(self):
        if self.gauge is not None:
            first = len(self.gauge.samples)
            for _ in range(GAUGE_WINDOW // 2):
                self.gauge.sample()
        proc = subprocess.run(self.cmd, cwd=ROOT, env=_probe_env(), capture_output=True,
                              text=True, timeout=120, check=True)
        if self.gauge is not None:
            for _ in range(GAUGE_WINDOW // 2):
                self.gauge.sample()
            self.gauge_spans.append((first, len(self.gauge.samples)))
        self.totals.append(float(proc.stdout.split()[-1]))
        for line in proc.stderr.splitlines():
            fields = [f.strip() for f in line.partition("import time:")[2].split("|")]
            if len(fields) == 3 and fields[2].startswith("spinkey."):
                module = fields[2][len("spinkey."):]
                if module in self.imports:
                    self.imports[module].append(int(fields[1]) / 1e6)

    def setup_s(self):
        """Median set-up seconds, each probe scaled by the gauge samples taken around it."""
        samples = self.gauge.samples
        return statistics.median(t * CAL_REF_S / statistics.median(samples[a:b])
                                 for t, (a, b) in zip(self.totals, self.gauge_spans))

    def import_s(self, module):
        """Median cumulative import seconds of spinkey.<module>."""
        return statistics.median(self.imports[module]) if self.imports[module] else 0.0


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment():
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sources = hashlib.sha1()
    for path in sorted((SRC / "spinkey").glob("*.py")):
        sources.update(path.name.encode() + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
        "source_sha1": sources.hexdigest(),
    }


class Runner:
    """Runs passes over one op list and checks every op's output.

    The first pass checks each output against the invariants and, where
    recorded, the reference digest; later passes must reproduce the first
    pass's output exactly. Checks run between ops, outside the timed calls.
    """

    def __init__(self, ops, references, workdir):
        from perfbench import checks, workloads

        self.checks, self.workloads = checks, workloads
        self.ops = ops
        self.references = references
        self.workdir = workdir
        self.fingerprints = [None] * len(ops)
        self.first_failures = [set() for _ in ops]
        self.failures = []  # (op index, kind, check, detail), each reported once
        self.attempted = self.failed = self.known = 0

    def run_pass(self, tracer=None, gauge=None):
        """Run every op once; returns (latencies in seconds, CLI bytes written).

        With a gauge, one gauge sample follows each op, outside its timing.
        """
        execute, clock = self.workloads.execute, time.perf_counter
        latencies, written = [], 0
        for i, op in enumerate(self.ops):
            out_path = self.workdir / ("op." + op.params.get("format", "out"))
            if out_path.exists():
                out_path.unlink()
            start = clock()
            try:
                if tracer is None:
                    output = execute(op, str(out_path))
                else:
                    output = tracer.call_op(i, op.kind, execute, op, str(out_path))
            except Exception as exc:  # an op that raises counts as failed
                output = exc
            latencies.append(clock() - start)
            if gauge is not None:
                gauge.sample()
            self.attempted += 1
            text = out_path.read_text() if out_path.exists() else None
            written += len(text.encode()) if text is not None else 0
            self._check(i, op, output, text)
        return latencies, written

    def _check(self, i, op, output, text):
        if isinstance(output, Exception):
            names = {"raised"}
            self.failures.append((i, op.kind, "raised", repr(output)))
        elif self.fingerprints[i] is None:
            self.fingerprints[i] = self.checks.fingerprint(output, text)
            fails, vector = self.checks.check(op, output, text)
            if self.references is not None:
                fails += self.checks.reference_failures(vector, self.references[i])
            self.failures += [(i, op.kind, name, detail) for name, detail in fails]
            names = self.first_failures[i] = {name for name, _ in fails}
        else:
            names = set(self.first_failures[i])
            if self.checks.fingerprint(output, text) != self.fingerprints[i]:
                names.add("repeatable")
                self.failures.append((i, op.kind, "repeatable", "output differs between passes"))
        if names:
            self.failed += 1
            self.known += names == {self.checks.KNOWN_DEFECT}


def run_workload(args):
    from perfbench import tracing, workloads

    ops = workloads.generate(args.workload, args.seed)
    points = sum(op.points for op in ops)
    references = _load_references(args.workload, args.seed, len(ops))
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        runner = Runner(ops, references, workdir)
        gauge = None if args.trace else SpeedGauge()
        probes = SetupProbes(importtime=bool(args.trace), gauge=gauge)
        metrics, samples, extra = {}, {}, {}
        if args.trace:
            tracer = tracing.Tracer()
            runner.run_pass()
            untraced, traced, written, pairs = 0.0, 0.0, 0, 0
            start = time.perf_counter()
            while pairs == 0 or time.perf_counter() < start + args.seconds:
                probes.keep_pace((time.perf_counter() - start) / args.seconds + 0.1)
                untraced += sum(runner.run_pass()[0])
                tracer.install()
                try:
                    lat, nbytes = runner.run_pass(tracer)
                finally:
                    tracer.remove()
                traced += sum(lat)
                written += nbytes
                pairs += 1
            probes.finish()
            metrics.update(tracing.layer_metrics(tracer, pairs, points, written / pairs))
            for module in MODULES:
                metrics[module + ".import_s"] = (probes.import_s(module), "s")
            metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
            samples = {"traced_passes": pairs, "setup_probes": SETUP_PROBES}
            extra["self_time_shares"] = tracing.module_shares(tracer)
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
            tracer.save(spans_path)
            extra["spans"] = str(spans_path.relative_to(ROOT))
        else:
            passes, op_samples = [], []
            start = time.perf_counter()
            while len(passes) < MIN_PASSES or time.perf_counter() < start + args.seconds:
                probes.keep_pace((time.perf_counter() - start) / args.seconds + 0.1)
                first = len(gauge.samples)
                passes.append(runner.run_pass(gauge=gauge)[0])
                op_samples.append(np.arange(first, len(gauge.samples)))
            probes.finish()
            raw = np.array(passes)
            per_op = np.median(raw * gauge.factors()[np.array(op_samples)], axis=0)
            metrics["ops_per_s"] = (len(ops) / float(per_op.sum()), "1/s")
            metrics["op_p50_ms"] = (quantile(per_op, 0.5) * 1e3, "ms")
            metrics["op_p90_ms"] = (quantile(per_op, 0.9) * 1e3, "ms")
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
            metrics["setup_s"] = (probes.setup_s(), "s")
            samples = {"ops": len(ops), "passes": len(passes),
                       "latency_samples": len(ops) * len(passes),
                       "setup_probes": SETUP_PROBES, "gauge_samples": len(gauge.samples)}
            extra["op_latency_ms"] = [round(float(x) * 1e3, 4) for x in per_op]
            unscaled = np.median(raw, axis=0)
            extra["unscaled"] = {"ops_per_s": len(ops) / float(unscaled.sum()),
                                 "op_p50_ms": quantile(unscaled, 0.5) * 1e3,
                                 "op_p90_ms": quantile(unscaled, 0.9) * 1e3,
                                 "setup_s": statistics.median(probes.totals),
                                 "gauge_median_s": statistics.median(gauge.samples)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": runner.failed == runner.known,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "why": workloads.WHY[args.workload],
        "inputs": {"ops": len(ops), "grid_points": points,
                   "reference_checked": references is not None},
        "environment": environment(),
        "samples": samples,
        "fail_ratio": runner.failed / runner.attempted,
        "known_defect_failures": runner.known,
        "failures": [list(f) for f in runner.failures[:200]],
        **extra, **result,
    }
    record_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    _summary(record, record_path)
    print(json.dumps(result))
    return 0


def _load_references(workload, seed, n_ops):
    path = ROOT / "perfbench" / "reference.json"
    recorded = json.loads(path.read_text()).get(workload, {}).get(str(seed))
    if recorded is not None and len(recorded) != n_ops:
        raise RuntimeError(f"reference for {workload} seed {seed} has {len(recorded)} ops, "
                           f"the op list {n_ops}")
    return recorded


def _summary(record, record_path):
    """Human-readable result on stderr: every metric with its unit and sample counts."""
    err = sys.stderr
    print(f"{record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{record['inputs']['ops']} ops, {record['inputs']['grid_points']} grid points; "
          f"samples {record['samples']}", file=err)
    for name, m in record["metrics"].items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}", file=err)
    print(f"  {'fail_ratio':44s} {record['fail_ratio']:.6g} "
          f"({record['failed']} of {record['attempted']} ops; {record['known_defect_failures']} "
          f"fail only the known time_series leakage check)", file=err)
    print(f"  record: {record_path.relative_to(ROOT)}", file=err)


def run_all(args):
    """Every workload in its own fresh process, one after another; prints a table."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        if proc.returncode != 0:
            return proc.returncode
        results[workload] = json.loads(proc.stdout.splitlines()[-1])
    names = sorted({n for r in results.values() for n in r["metrics"]},
                   key=lambda n: (END_TO_END.index(n) if n in END_TO_END else len(END_TO_END), n))
    print(f"{'metric':44s} {'unit':12s}" + "".join(f"{w:>16s}" for w in WORKLOADS))
    for name in names:
        unit = next(r["metrics"][name]["unit"] for r in results.values() if name in r["metrics"])
        print(f"{name:44s} {unit:12s}" + "".join(
            f"{results[w]['metrics'][name]['value']:16.6g}" for w in WORKLOADS))
    print(f"{'fail_ratio':44s} {'failed/op':12s}" + "".join(
        f"{results[w]['failed'] / results[w]['attempted']:16.6g}" for w in WORKLOADS))
    print(f"{'attempted':44s} {'ops':12s}" + "".join(
        f"{results[w]['attempted']:16d}" for w in WORKLOADS))
    print(json.dumps(results))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "spinkey" / "__init__.py").is_file():
        print(f"error: no spinkey sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
