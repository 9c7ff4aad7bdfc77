"""Every error class in ``errors.py`` is raised somewhere in the toolkit.

A deletion easily leaves the class of a removed raise behind.  The base class
``QuasifreeError`` is exempt: callers catch it, nothing raises it.
"""

import ast
from pathlib import Path

import pytest

from quasifree.errors import MalformedInput, require_int

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "quasifree"
MODULES = sorted(PACKAGE.glob("*.py"))


def error_classes(source: str) -> list[str]:
    """Names of the classes a module defines at its top level."""
    return [node.name for node in ast.parse(source).body
            if isinstance(node, ast.ClassDef)]


def raised_names(source: str) -> set[str]:
    """Names raised as ``raise Name`` or ``raise Name(...)``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
    return names


RAISED = set().union(*(raised_names(p.read_text(encoding="utf-8"))
                       for p in MODULES))
CLASSES = [name for name in error_classes(
    (PACKAGE / "errors.py").read_text(encoding="utf-8"))
    if name != "QuasifreeError"]


def test_the_check_finds_a_class_never_raised():
    source = ("class A(Exception): pass\nclass B(Exception): pass\n"
              "def f(x):\n    if x:\n        raise A(x)\n    raise ValueError\n")
    assert error_classes(source) == ["A", "B"]
    assert raised_names(source) == {"A", "ValueError"}


def test_errors_module_has_classes():
    assert len(CLASSES) >= 10


@pytest.mark.parametrize("name", CLASSES)
def test_error_class_is_raised(name):
    assert name in RAISED


# --- the bounded integer reader ------------------------------------------------

def test_require_int_bounds():
    assert require_int(1, "n", least=1, most=4) == 1
    assert require_int(4, "n", least=1, most=4) == 4
    with pytest.raises(MalformedInput, match="^n must be at least 1, got 0$"):
        require_int(0, "n", least=1, most=4)
    with pytest.raises(MalformedInput, match="^n must be at most 4, got 5$"):
        require_int(5, "n", least=1, most=4)


def test_require_int_types():
    value = require_int(3.0, "n")
    assert value == 3 and type(value) is int
    for bad in (True, "3"):
        with pytest.raises(MalformedInput, match="^n must be an integer"):
            require_int(bad, "n", least=0)
