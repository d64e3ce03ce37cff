"""Every name a module of the package imports is used in that module, no
module imports inside a function, and every private function, method or
module-level name it defines is used in the package.

No linter ships with the project, so this catches imports, helpers and
tables left behind when the code that needed them goes.  ``__init__``
re-exports what it imports, and ``from __future__`` imports are
directives, so both are exempt.  A private definition (one leading
underscore, not a dunder) is a ``def`` or a name that a module-level
assignment binds; it is used when its name occurs as a name or an
attribute anywhere in the package outside the definition itself (the
function, or the assignment statement); tests do not count.
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


def imports_in_function_bodies(source: str) -> list[int]:
    """The lines of the imports inside a function or method: every import
    of the package stands at the top of its module (or of a class body),
    so what a module depends on is read off its head."""
    functions = [node for node in ast.walk(ast.parse(source))
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return sorted({node.lineno for function in functions for node in ast.walk(function)
                   if isinstance(node, (ast.Import, ast.ImportFrom))})


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_no_import_inside_a_function(module):
    assert imports_in_function_bodies((PACKAGE / module).read_text()) == []


def test_import_inside_a_function_is_reported():
    source = ("import os\nclass C:\n    import sys\n    def m(self):\n        import json\n"
              "def f():\n    def g():\n        from a import b\n    return g\n")
    assert imports_in_function_bodies(source) == [5, 8]


def unreferenced_private_definitions(sources: dict[str, str]) -> list[str]:
    """The private functions, methods and module-level names defined in the
    sources, by module, whose name no other place in the sources uses as a
    name or attribute."""
    private = lambda name: name.startswith("_") and not name.endswith("__")
    definitions, references = [], []
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
                definitions += [(module, name, node.lineno, node.end_lineno) for name in names if private(name)]
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if private(node.name):
                    definitions.append((module, node.name, node.lineno, node.end_lineno))
            elif isinstance(node, (ast.Name, ast.Attribute)):
                references.append((module, getattr(node, "id", None) or node.attr, node.lineno))
    return [f"{module}: {name} (line {start})" for module, name, start, end in definitions
            if not any(used == name and not (where == module and start <= line <= end)
                       for where, used, line in references)]


def test_every_private_definition_is_used():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_private_definitions(sources) == []


def test_unused_private_definition_is_reported():
    sources = {"a.py": "def _used():\n    return _used()\n\ndef _left(x):\n    return x\n"
                       "_ROWS = (1, 2)\n_STEPS = tuple(_ROWS)\n_TABLE: dict = {}\n_A, _B = 1, 2\n"
                       "__all__ = []\n",
               "b.py": "import a\nclass C:\n    def _method(self):\n        return a._used()\n"
                       "    def __repr__(self):\n        return a._STEPS, a._A\n"
                       "    _slot = None\n"}
    assert unreferenced_private_definitions(sources) == [
        "a.py: _TABLE (line 8)", "a.py: _B (line 9)", "a.py: _left (line 4)", "b.py: _method (line 3)"]
