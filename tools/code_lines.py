"""Count the code lines of Python sources.

A code line is a non-blank line that is neither a comment nor part of a
docstring. Docstrings (module, class and function) are found with ast;
comments and blank lines with tokenize, so a line holding code and a
trailing comment counts as code, and a line inside a non-docstring
multi-line string counts as code.

    python3 tools/code_lines.py src/spinkey tests

prints one count per argument (a file or a directory, searched for *.py)
and, when there is more than one, their total.
"""

import ast
import sys
import tokenize
from pathlib import Path

_NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count_file(path):
    """Number of code lines in one Python file."""
    source = Path(path).read_bytes()
    lines = set()
    with open(path, "rb") as fh:
        for token in tokenize.tokenize(fh.readline):
            if token.type not in _NON_CODE:
                lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def count(path):
    """Code lines of a file, or of every *.py file under a directory."""
    path = Path(path)
    files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return sum(count_file(f) for f in files)


def main(argv=None):
    paths = sys.argv[1:] if argv is None else argv
    if not paths:
        print("usage: code_lines.py PATH [PATH ...]", file=sys.stderr)
        return 2
    counts = [count(p) for p in paths]
    for p, n in zip(paths, counts):
        print(f"{n}\t{p}")
    if len(paths) > 1:
        print(f"{sum(counts)}\ttotal")
    return 0


if __name__ == "__main__":
    sys.exit(main())
