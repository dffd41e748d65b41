"""The three verification routes share no code.

The routes check each other only while they stay independent. The
structural route (`codes.py`, `matrix.py`) imports nothing from the sweep
(`stabilizer.py`, `_kernels.py`) or the dense oracle (`dense.py`); the
sweep imports nothing from the dense oracle, and the dense oracle nothing
from the sweep. Each rule holds for every chain of imports inside the
package, not only for the module's own import lines.
"""

import ast
from pathlib import Path

import pytest

import kunigraph

PACKAGE = Path(kunigraph.__file__).parent
MODULES = {path.stem for path in PACKAGE.glob("*.py")}
SWEEP = {"_kernels", "stabilizer"}
DENSE = {"dense"}
OTHER_ROUTES = SWEEP | DENSE


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


def reachable(module: str) -> set[str]:
    """The package modules that module imports, directly or through others."""
    seen, todo = set(), [module]
    while todo:
        source = (PACKAGE / f"{todo.pop()}.py").read_text(encoding="utf-8")
        for name in (imported_names(source) & MODULES) - seen:
            seen.add(name)
            todo.append(name)
    return seen


@pytest.mark.parametrize("module", ["codes.py", "matrix.py"])
def test_structural_route_imports_no_other_route(module):
    assert reachable(Path(module).stem) & OTHER_ROUTES == set()


@pytest.mark.parametrize(
    "module, others",
    [("stabilizer", DENSE), ("_kernels", DENSE), ("dense", SWEEP)],
)
def test_sweep_and_dense_routes_import_nothing_of_each_other(module, others):
    assert reachable(module) & others == set()


def test_a_chain_of_imports_is_followed():
    # cli imports every route; analysis reaches dense through its own import
    assert OTHER_ROUTES <= reachable("cli")
    assert "dense" in reachable("analysis")
    assert {"codes", "matrix"} <= reachable("stabilizer")


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
