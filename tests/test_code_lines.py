"""The code-line counter in tools/code_lines.py."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).resolve().parents[1] / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SAMPLE = '''"""Module docstring

over three lines."""

# A comment line.
import math  # a trailing comment keeps the line


def f(x):
    """Function docstring."""
    text = """a string that is
not a docstring"""
    return x


class C:
    """Class docstring."""
    y = 1
'''


def test_counts_code_but_not_comments_blanks_or_docstrings(tmp_path):
    (tmp_path / "sample.py").write_text(SAMPLE)
    (tmp_path / "notes.txt").write_text("x = 1\n")
    # import, def, the two lines of text, return, class and y.
    assert code_lines.count_file(tmp_path / "sample.py") == 7
    assert code_lines.count(tmp_path) == 7
