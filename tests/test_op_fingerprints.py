"""The benchmark op fingerprints of tools/op_fingerprints.py."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "op_fingerprints", Path(__file__).resolve().parents[1] / "tools" / "op_fingerprints.py")
op_fingerprints = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(op_fingerprints)


def test_fingerprints_repeat_and_cover_every_op():
    first = op_fingerprints.op_lines(["qsp-protocols"], [0])
    assert op_fingerprints.op_lines(["qsp-protocols"], [0]) == first
    ops = op_fingerprints.workloads.generate("qsp-protocols", 0)
    assert [line.split()[:4] for line in first] == [
        ["qsp-protocols", "0", str(i), op.kind] for i, op in enumerate(ops)]
    # Different outputs give different digests.
    assert len({line.split()[4] for line in first}) > len(ops) // 2
    assert all(len(line.split()[4]) == 40 for line in first)
