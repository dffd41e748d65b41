"""The structural route shares no code with the sweep or the dense oracle.

The routes check each other only while they stay independent, so `codes.py`
and `matrix.py` must import nothing from `_kernels`, `stabilizer` or `dense`.
"""

import ast
from pathlib import Path

import pytest

import kunigraph

PACKAGE = Path(kunigraph.__file__).parent
OTHER_ROUTES = {"_kernels", "stabilizer", "dense"}


def imported_names(source: str) -> set[str]:
    """Every module path component and imported name in the source's imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names.update(alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
            names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("module", ["codes.py", "matrix.py"])
def test_structural_route_imports_no_other_route(module):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    assert imported_names(source) & OTHER_ROUTES == set()


@pytest.mark.parametrize(
    "line",
    [
        "from .stabilizer import minimum_support",
        "from . import dense",
        "from ._kernels import sweep",
        "import kunigraph.dense as d",
        "from kunigraph import stabilizer",
        "def f():\n    from .dense import graph_state",
    ],
)
def test_every_import_form_is_seen(line):
    assert imported_names(line) & OTHER_ROUTES
