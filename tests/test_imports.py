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
