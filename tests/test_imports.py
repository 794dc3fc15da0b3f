"""Every module of the package uses every name it imports, and every
name the package exports exists.

No linter ships with the test environment, so this is a small ``ast``
check: a name bound by an import (other than ``from __future__``) must
appear as a name somewhere else in the module, in code or in a string
annotation.  ``__init__.py`` is left out, since it imports to re-export;
its ``__all__`` is checked by star-importing it instead.
"""

import ast
from pathlib import Path

import pytest

import qmct

SRC = Path(__file__).resolve().parent.parent / "src" / "qmct"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # Quoted annotations such as ``-> "Network"``.
            try:
                expression = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(expression) if isinstance(n, ast.Name))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_check_catches_an_unused_import():
    source = "import math\nfrom typing import Mapping, Sequence\n\nx: Sequence[int] = []\n"
    assert unused_imports(source) == ["line 1: math", "line 2: Mapping"]
    assert unused_imports('from typing import Mapping\n\ny: "Mapping" = {}\n') == []


@pytest.mark.parametrize(
    "module", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
)
def test_module_uses_every_import(module):
    assert unused_imports((SRC / module).read_text()) == []


def test_every_exported_name_resolves():
    assert [name for name in qmct.__all__ if not hasattr(qmct, name)] == []
    namespace: dict = {}
    exec("from qmct import *", namespace)
    assert set(qmct.__all__) <= set(namespace)
