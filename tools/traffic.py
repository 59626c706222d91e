"""List the public spinkey functions and methods that no demo or benchmark op enters.

    python3 tools/traffic.py

A sys.settrace tracer, limited to frames whose code lives in src/spinkey,
counts every entry into each function. It starts before spinkey is
imported, so the calls made at import time count too. The script then
runs the six demos, with their stdout suppressed and a temporary
directory as the working directory, and every op of seeds 0-2 of every
workload in perfbench/workloads.py through perfbench.workloads.execute.
Last it prints, one per line, each public function and method of the
public spinkey modules (module.function or module.Class.method; a
property counts as a method) that nothing entered. It writes nothing
under perfbench/.
"""

import collections
import contextlib
import inspect
import io
import os
import pkgutil
import runpy
import sys
import tempfile
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_SOURCE = str(_ROOT / "src" / "spinkey")
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT)]

_entries = collections.Counter()


def _trace(frame, event, arg):
    """Count a call into src/spinkey; trace no lines."""
    if frame.f_code.co_filename.startswith(_SOURCE):
        _entries[frame.f_code] += 1


sys.settrace(_trace)
import spinkey  # noqa: E402
from perfbench import workloads  # noqa: E402


def public_functions():
    """{name: code object} of every public function and method of the
    public spinkey modules, each under the module that defines it."""
    found = {}
    for info in pkgutil.iter_modules(spinkey.__path__):
        if info.name.startswith("_"):
            continue
        module = sys.modules[f"spinkey.{info.name}"]
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    member = getattr(member, "fget", getattr(member, "__func__", member))
                    if not attr.startswith("_") and inspect.isfunction(member):
                        found[f"{info.name}.{name}.{attr}"] = member.__code__
            elif inspect.isfunction(inspect.unwrap(obj)):
                found[f"{info.name}.{name}"] = inspect.unwrap(obj).__code__
    return found


def run_everything():
    """Run the six demos and every op of seeds 0-2 of every workload."""
    with tempfile.TemporaryDirectory() as tmp:
        here = os.getcwd()
        os.chdir(tmp)
        try:
            for demo in sorted((_ROOT / "demos").glob("*.py")):
                with contextlib.redirect_stdout(io.StringIO()):
                    runpy.run_path(str(demo), run_name="__main__")
        finally:
            os.chdir(here)
        out_path = Path(tmp) / "op.out"
        for workload in sorted(workloads.GENERATORS):
            for seed in (0, 1, 2):
                for op in workloads.generate(workload, seed):
                    out_path.unlink(missing_ok=True)
                    workloads.execute(op, str(out_path))


def entries():
    """{name: entries} for every public function and method, after one run."""
    run_everything()
    sys.settrace(None)
    return {name: _entries[code] for name, code in public_functions().items()}


def main():
    for name, count in sorted(entries().items()):
        if count == 0:
            print(name)


if __name__ == "__main__":
    main()
