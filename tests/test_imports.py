"""Every module of the package uses every name it imports, every name
it defines is used somewhere, and every name the package exports exists.

No linter ships with the test environment, so these are small ``ast``
checks.  A name bound by an import (other than ``from __future__``) must
appear as a name somewhere else in the module, in code or in a string
annotation.  ``__init__.py`` is left out, since it imports to re-export;
its ``__all__`` is checked by star-importing it instead.

A function, class or variable defined at module level in the package
must be loaded somewhere in the package, the tests or the benchmark
harness: read as a name, as an attribute, imported by name, or written
as a string (``__all__`` entries and the harness's patch targets are
strings).  Dunder names are exempt.  Likewise every annotated class
field in the package must be read as an attribute somewhere there; a
field nobody reads is a stored fact nobody needs.

The ``test`` extra of ``pyproject.toml`` lists exactly the modules
outside the standard library that the tests and the benchmark harness
import, so installing it is enough to collect both.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

import qmct

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qmct"
USERS = (SRC, ROOT / "tests", ROOT / "perfbench")


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


def defined_names(source: str) -> dict[str, int]:
    """Module-level functions, classes and assigned names, with their lines."""
    defined: dict[str, int] = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined[name.id] = node.lineno
    return {
        name: line
        for name, line in defined.items()
        if not (name.startswith("__") and name.endswith("__"))
    }


def loaded_names(source: str) -> set[str]:
    loaded = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.Attribute):
            loaded.add(node.attr)
        elif isinstance(node, ast.alias):
            loaded.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            loaded.add(node.value)
    return loaded


def test_dead_name_check_catches_an_unloaded_definition():
    source = "X = 1\nY = 2\n__all__ = ['f']\n\ndef f():\n    return Y\n\nclass C:\n    pass\n"
    loaded = loaded_names(source)
    assert [name for name in defined_names(source) if name not in loaded] == ["X", "C"]
    assert {"C", "X"} <= loaded_names("from m import C\nm.X\n")


def test_every_defined_name_is_loaded_somewhere():
    loaded: set[str] = set()
    for folder in USERS:
        for path in folder.glob("*.py"):
            loaded |= loaded_names(path.read_text())
    dead = [
        f"{path.name}:{line}: {name}"
        for path in sorted(SRC.glob("*.py"))
        for name, line in defined_names(path.read_text()).items()
        if name not in loaded
    ]
    assert dead == []


def class_fields(source: str) -> dict[str, int]:
    """Annotated fields of the module's classes, as ``Class.field``, with their lines."""
    return {
        f"{node.name}.{item.target.id}": item.lineno
        for node in ast.parse(source).body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
    }


def attributes_read(source: str) -> set[str]:
    return {
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_field_check_catches_an_unread_field():
    source = "class C:\n    x: int\n    y: int\n\n    def f(self):\n        self.y = self.x\n"
    read = attributes_read(source)
    assert [f for f in class_fields(source) if f.split(".")[1] not in read] == ["C.y"]


def test_every_class_field_is_read_somewhere():
    read: set[str] = set()
    for folder in USERS:
        for path in folder.glob("*.py"):
            read |= attributes_read(path.read_text())
    unread = [
        f"{path.name}:{line}: {field}"
        for path in sorted(SRC.glob("*.py"))
        for field, line in class_fields(path.read_text()).items()
        if field.split(".")[1] not in read
    ]
    assert unread == []


def imported_modules(source: str) -> set[str]:
    """Top-level names of the modules that ``source`` imports absolutely."""
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module.split(".")[0])
    return modules


def test_the_test_extra_lists_what_the_tests_import():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(ROOT / "pyproject.toml", "rb") as handle:
        extra = tomllib.load(handle)["project"]["optional-dependencies"]["test"]
    listed = {re.match(r"\w+", entry)[0] for entry in extra}  # the name before any version
    paths = [path for folder in USERS[1:] for path in folder.glob("*.py")]
    imported = set().union(*(imported_modules(path.read_text()) for path in paths))
    imported -= {*sys.stdlib_module_names, "qmct", *(path.stem for path in paths)}
    assert (sorted(imported - listed), sorted(listed - imported)) == ([], [])


def test_every_exported_name_resolves():
    assert [name for name in qmct.__all__ if not hasattr(qmct, name)] == []
    namespace: dict = {}
    exec("from qmct import *", namespace)
    assert set(qmct.__all__) <= set(namespace)
