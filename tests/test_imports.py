"""Every name a toolkit module imports is used in that module.

A deletion easily leaves an import behind.  The package ``__init__`` is
skipped: it imports names to re-export them.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "quasifree"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no expression refers to."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import math\nimport numpy as np\n"
              "from .errors import A, B\n"
              "x = np.zeros(1) + math.pi\nraise A\n")
    assert unused_imports(source) == ["B (line 4)"]


def test_package_has_modules():
    assert len(MODULES) >= 9


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
