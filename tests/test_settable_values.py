"""The settable-value counter in tools/settable_values.py."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "settable_values", Path(__file__).resolve().parents[1] / "tools" / "settable_values.py")
settable_values = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(settable_values)

SAMPLE = '''"""A sample module."""

import functools
from dataclasses import dataclass


def public(a, b=1, *rest, c, **options):
    def nested(x):
        return x
    return nested(a)


@functools.lru_cache(maxsize=None)
def cached(n):
    return n


def _private(a, b):
    return a


@dataclass(frozen=True)
class Config:
    x: float = 0.0
    y: int = 1
    z = 3

    def method(self, u, v=0):
        return u

    @classmethod
    def build(cls, w):
        return cls()

    @staticmethod
    def helper(s):
        return s

    @property
    def derived(self):
        return self.x

    def _hidden(self, q):
        return q


class Plain:
    attribute: int = 0

    def __init__(self, value):
        self.value = value

    def read(self, index):
        return index


class _Private:
    def read(self, index):
        return index
'''


def test_counts_public_parameters_fields_and_method_parameters(tmp_path):
    (tmp_path / "sample.py").write_text(SAMPLE)
    # public 5 (a, b, rest, c, options) + cached 1; Config fields x, y and the
    # parameters u, v, w, s; Plain.read's index. Not nested, _private,
    # Config.z, self, cls, _hidden, Plain.attribute, __init__ or _Private.
    assert settable_values.count_file(tmp_path / "sample.py") == 6 + 2 + 4 + 1
