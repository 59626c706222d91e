"""Print one sha1 per benchmark op output, and one digest of them all.

    python3 tools/op_fingerprints.py

Every op of seeds 0-2 of every workload in
perfbench/workloads.py runs through perfbench.workloads.execute, with its
--out file in a temporary directory. An op's sha1 is that of
perfbench.checks.fingerprint: a CLI op's exit code, stdout and output
file, or an API op's returned values as float64 bytes. The script prints
one line per op, "workload seed index kind sha1", and last "combined
sha1", the digest of every op line in order. Two trees whose combined
digests agree produced byte-identical outputs on every op. It writes
nothing under perfbench/.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT)]

from perfbench import checks, workloads  # noqa: E402


def op_digest(op, out_path):
    """sha1 of everything one op produced."""
    out_path.unlink(missing_ok=True)
    output = workloads.execute(op, str(out_path))
    text = out_path.read_text() if out_path.exists() else None
    return hashlib.sha1(checks.fingerprint(output, text)).hexdigest()


def op_lines(workload_names, seeds):
    """One "workload seed index kind sha1" line per op, in order."""
    with tempfile.TemporaryDirectory() as tmp:
        out_path = Path(tmp) / "op.out"
        return [f"{workload} {seed} {index} {op.kind} {op_digest(op, out_path)}"
                for workload in workload_names for seed in seeds
                for index, op in enumerate(workloads.generate(workload, seed))]


def main():
    text = "".join(f"{line}\n" for line in op_lines(sorted(workloads.GENERATORS), (0, 1, 2)))
    print(f"{text}combined {hashlib.sha1(text.encode()).hexdigest()}")


if __name__ == "__main__":
    main()
