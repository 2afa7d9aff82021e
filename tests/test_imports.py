"""Static checks on the package sources, with the standard library alone."""

import ast
from pathlib import Path

import pytest

import demlab

SRC = Path(demlab.__file__).resolve().parent


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports and never reads, in import order.

    ``import a.b`` binds ``a``; ``from __future__`` imports bind nothing.
    A name counts as used when it appears as an ``ast.Name`` anywhere,
    the root of an attribute chain included.
    """
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


# __init__.py imports to re-export, which its __all__ lists.
@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name
)
def test_module_uses_every_name_it_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_unused_import_check_sees_an_unused_name():
    tree = ast.parse("import os\nimport a.b\nfrom x import y as z, w\nprint(w, a.b)\n")
    assert _unused_imports(tree) == ["os", "z"]


# The package's layers, bottom up.  A module imports only modules before it,
# so the checks in ``diagnostics`` judge solver output without calling the
# solvers; ``__init__`` and ``__main__`` sit outside the order.
LAYERS = ("geometry", "krylov", "model", "diagnostics", "solvers", "homotopy", "cli")


def _relative_imports(tree: ast.Module) -> set[str]:
    """The sibling modules a module imports, as ``from .x import ...`` or
    ``from . import x``."""
    siblings = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                siblings.add(node.module.split(".")[0])
            else:
                siblings.update(alias.name for alias in node.names)
    return siblings


def test_layer_order_names_every_module():
    exempt = {"__init__", "__main__"}
    assert {p.stem for p in SRC.glob("*.py")} - exempt == set(LAYERS)


@pytest.mark.parametrize("module", LAYERS)
def test_module_imports_only_lower_layers(module):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    assert _relative_imports(tree) <= set(LAYERS[: LAYERS.index(module)])


def test_relative_import_check_sees_each_form():
    tree = ast.parse("from .a import x\nfrom .b.c import y\nfrom . import z\nfrom d import w\n")
    assert _relative_imports(tree) == {"a", "b", "z"}
