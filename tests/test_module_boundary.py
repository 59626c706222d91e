"""The modules of spinkey use one another only through public names."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "spinkey"


def _private_imports(path):
    """(line, module, name) for each underscore name path imports from a sibling module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and (
                node.level == 1 or (node.module or "").startswith("spinkey")):
            found += [(node.lineno, node.module, alias.name) for alias in node.names
                      if alias.name.startswith("_") and not alias.name.startswith("__")]
    return found


def test_private_imports_are_found(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("from .spin_algebra import _jx_eigenbasis, rotation\n"
                      "from ._checks import check_int\nfrom . import __version__\n"
                      "from spinkey.qsp import _half_factor\nfrom numpy import _core\n")
    assert _private_imports(sample) == [(1, "spin_algebra", "_jx_eigenbasis"),
                                        (4, "spinkey.qsp", "_half_factor")]


def test_no_module_imports_a_private_name_of_a_sibling():
    found = {path.name: _private_imports(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert "ion_sim.py" in found
    assert {name: names for name, names in found.items() if names} == {}
