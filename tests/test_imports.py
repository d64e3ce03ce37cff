"""Every name a module of the package imports is used in that module.

No linter ships with the project, so this catches imports left behind when
the code that needed them goes.  ``__init__`` re-exports what it imports,
and ``from __future__`` imports are directives, so both are exempt.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ellnet"
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def test_unused_import_is_reported():
    source = "from __future__ import annotations\nimport os, sys\nfrom a import b as c, d\nsys.exit(d)\n"
    assert unused_imports(source) == ["os (line 2)", "c (line 3)"]
