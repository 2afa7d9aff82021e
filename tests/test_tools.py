"""Tests of the repository tools, with the standard library alone."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""A module docstring,
over two lines."""

# a comment line
import math

UNITS = """square
metres"""


def area(r):
    """A function docstring."""
    total = (math.pi
             * r * r)  # a trailing comment
    return total
'''


def test_code_lines_counts_only_code():
    # Code lines: the import, both lines of the string constant, the def,
    # both lines of the continued expression and the return.  Docstrings,
    # the comment line and blank lines do not count.
    assert _load("code_lines").code_lines(SOURCE) == 7
