"""The oracle stays independent of the reduction it cross-checks.

:mod:`qmct.oracle` may import, from the package, only the flow kernels,
the network, the errors and the rationals.  An import of the pair
costs, the transportation stage, the admissible subnetwork, the pruned
time expansion or the pipeline would let the oracle read what it is
meant to check, and the cross-check would get weaker without any test
failing; these ``ast`` checks make it fail.  The oracle also calls the
kernels as attributes of ``_kernel``, never bound by ``from ._kernel
import``, so that whatever wraps those attributes (the benchmark's
traced run) sees its calls.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qmct"
ALLOWED = {"_kernel", "network", "errors", "rationals"}
# The oracle's code, which no other module of the package defines.
ORACLE_NAMES = {"horizon_upper_bound", "_static_optimum", "_GrowingExpansion", "quickest_mincost"}


def package_imports(source: str) -> list[tuple[int, str]]:
    """(line, module) for every import of the package by ``source``, a
    module of ``qmct``, with the module named relative to the package.

    ``from qmct import x`` and ``from . import x`` name module ``x``; an
    import of the package itself, or from above it, names ``qmct``.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for parts in (alias.name.split(".") for alias in node.names):
                if parts[0] == "qmct":
                    found.append((node.lineno, parts[1] if len(parts) > 1 else "qmct"))
        elif isinstance(node, ast.ImportFrom):
            parts = node.module.split(".") if node.module else []
            if node.level == 0 and parts[0] != "qmct":
                continue
            inner = parts[1:] if node.level == 0 else parts
            if node.level > 1:
                found.append((node.lineno, "qmct"))
            elif inner:
                found.append((node.lineno, inner[0]))
            else:
                found += [(node.lineno, alias.name) for alias in node.names]
    return found


def boundary_violations(source: str) -> list[str]:
    imports = package_imports(source)
    return [f"line {line}: {module}" for line, module in imports if module not in ALLOWED]


def kernel_names_bound(source: str) -> list[str]:
    """Names bound by ``from ._kernel import`` or ``from qmct._kernel import``."""
    kernel = {(1, "_kernel"), (0, "qmct._kernel")}
    return [
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and (node.level, node.module) in kernel
        for alias in node.names
    ]


@pytest.mark.parametrize(
    "snippet",
    [
        "from . import temporal\n",
        "from . import _kernel, cheapest\n",
        "from .transport import solve\n",
        "from .admissible.deep import x\n",
        "import qmct.pipeline\n",
        "import qmct.temporal as t\n",
        "from qmct import pipeline\n",
        "from qmct.cheapest import pair_costs\n",
        "def f():\n    from .temporal import expand\n",
    ],
)
def test_check_flags_an_import_of_the_reduction(snippet):
    assert len(boundary_violations(snippet)) == 1


def test_check_flags_the_package_itself_and_passes_the_allowed_modules():
    assert boundary_violations("import qmct\n") == ["line 1: qmct"]
    assert boundary_violations("from .. import qmct\n") == ["line 1: qmct"]
    assert boundary_violations("from qmct import Network\n") == ["line 1: Network"]
    allowed = (
        "from . import _kernel\nfrom .errors import InternalCheckError\n"
        "from .network import Network\nfrom qmct.rationals import as_rational\n"
        "import math\nfrom fractions import Fraction\n"
    )
    assert boundary_violations(allowed) == []
    assert kernel_names_bound("from ._kernel import build, max_flow\n") == ["build", "max_flow"]
    assert kernel_names_bound("from qmct._kernel import augment\n") == ["augment"]
    assert kernel_names_bound(allowed) == []


def test_the_oracle_imports_only_kernels_network_errors_and_rationals():
    source = (SRC / "oracle.py").read_text()
    assert boundary_violations(source) == []
    assert kernel_names_bound(source) == []


def test_the_oracle_code_lives_in_the_oracle_module_only():
    defined = {
        path.name: {
            node.name
            for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        }
        for path in SRC.glob("*.py")
    }
    assert ORACLE_NAMES <= defined.pop("oracle.py")
    elsewhere = {module: ORACLE_NAMES & names for module, names in defined.items()}
    assert {module: names for module, names in elsewhere.items() if names} == {}
