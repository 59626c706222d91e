"""Count the settable values of Python modules.

A settable value is one a caller can choose:

- every parameter of a public module-level function;
- every field of a public dataclass;
- every parameter, other than self and cls, of a public method of a
  public class.

A name is public when it does not start with an underscore. The modules
are read with ast, not imported, so a decorated function (such as one
under functools.lru_cache) counts like any other.

    python3 tools/settable_values.py [FILE ...]

prints one count per file and their total. With no argument it counts the
seven modules of src/spinkey that hold the library and the CLI.
"""

import ast
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
MODULES = tuple(f"src/spinkey/{name}.py" for name in
                ("spin_algebra", "protocols", "ion_sim", "qsp", "baselines", "field_servo", "cli"))


def _parameters(function):
    args = function.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    names += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
    return names


def _is_dataclass(node):
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _public(node):
    return not node.name.startswith("_")


def count_file(path):
    """Number of settable values defined at the top level of one module."""
    total = 0
    for node in ast.parse(Path(path).read_bytes()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _public(node):
            total += len(_parameters(node))
        elif isinstance(node, ast.ClassDef) and _public(node):
            if _is_dataclass(node):
                total += sum(isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
                             for s in node.body)
            for method in node.body:
                if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)) and _public(method):
                    total += sum(name not in ("self", "cls") for name in _parameters(method))
    return total


def main(argv=None):
    paths = sys.argv[1:] if argv is None else argv
    if paths:
        counts = [count_file(p) for p in paths]
    else:
        paths = MODULES
        counts = [count_file(_ROOT / p) for p in paths]
    for p, n in zip(paths, counts):
        print(f"{n}\t{p}")
    print(f"{sum(counts)}\ttotal")
    return 0


if __name__ == "__main__":
    sys.exit(main())
