"""Count the lines of each module of a package: physical lines, and code
lines with no docstring, comment or blank line (``ast`` finds the
docstrings, ``tokenize`` the lines that hold code).  Next to them, the
options: the parameters with a default of the public functions, the
public methods and ``__init__``, and the dataclass fields with a default.

    python tools/count_lines.py [PACKAGE_DIR]    # default: src/ellnet
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

DEFAULT_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ellnet"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER}


def docstring_lines(source: str) -> set[int]:
    """The lines of the docstrings of the module, its classes and functions."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Lines that hold a token of code, docstrings left out."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(source))


def _defaults(node: ast.FunctionDef | ast.AsyncFunctionDef) -> int:
    args = node.args
    return len(args.defaults) + sum(d is not None for d in args.kw_defaults)


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in node.decorator_list)


def options(source: str) -> int:
    """Parameters with a default of the module's public functions, of the
    public methods and ``__init__`` of its classes, and dataclass fields
    with a default."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    total = 0
    for node in ast.parse(source).body:
        if isinstance(node, functions) and not node.name.startswith("_"):
            total += _defaults(node)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, functions) and (item.name == "__init__"
                                                    or not item.name.startswith("_")):
                    total += _defaults(item)
                elif isinstance(item, ast.AnnAssign) and item.value is not None:
                    total += _is_dataclass(node)
    return total


def count(package: Path) -> list[tuple[str, int, int, int]]:
    """(module, physical lines, code lines, options) for each module of the
    package."""
    rows = []
    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        rows.append((path.name, len(source.splitlines()), code_lines(source), options(source)))
    return rows


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    rows = count(Path(argv[0]) if argv else DEFAULT_PACKAGE)
    total = ("total", *(sum(row[k] for row in rows) for k in (1, 2, 3)))
    width = max(len(row[0]) for row in rows + [("module",)])
    print(f"{'module':<{width}} {'lines':>6} {'code':>6} {'options':>7}")
    for name, lines, code, opts in rows + [total]:
        print(f"{name:<{width}} {lines:>6} {code:>6} {opts:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
