"""Record the reference digest of every op's output for seeds 0-9.

    python3 perfbench/record_reference.py

Run from the repository root, at a commit whose outputs are trusted; it
rewrites perfbench/reference.json. An op whose output fails a check gets no
reference (null), so a later fix of that failure is not reported as a
change of output.
"""

import json
import sys

from run import OUT, ROOT, SRC

SEEDS = range(10)


def main():
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import checks, workloads

    OUT.mkdir(parents=True, exist_ok=True)
    out_path = OUT / "record-reference.out"
    recorded = {}
    for workload in sorted(workloads.GENERATORS):
        recorded[workload] = {}
        for seed in SEEDS:
            digests = []
            for op in workloads.generate(workload, seed):
                out_path.unlink(missing_ok=True)
                output = workloads.execute(op, str(out_path))
                text = out_path.read_text() if out_path.exists() else None
                fails, vector = checks.check(op, output, text)
                digests.append(None if fails else checks.digest(vector))
            recorded[workload][str(seed)] = digests
            print(f"{workload} seed {seed}: {sum(d is None for d in digests)} of "
                  f"{len(digests)} ops without reference", file=sys.stderr)
    out_path.unlink(missing_ok=True)
    lines = ",\n".join(
        f" {json.dumps(w)}: {{\n" + ",\n".join(
            f"  {json.dumps(s)}: {json.dumps(d)}" for s, d in seeds.items()) + "\n }"
        for w, seeds in recorded.items())
    (ROOT / "perfbench" / "reference.json").write_text("{\n" + lines + "\n}\n")


if __name__ == "__main__":
    main()
