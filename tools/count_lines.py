"""Count the lines of each module of a package: physical lines, and code
lines with no docstring, comment or blank line (``ast`` finds the
docstrings, ``tokenize`` the lines that hold code).

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


def count(package: Path) -> list[tuple[str, int, int]]:
    """(module, physical lines, code lines) for each module of the package."""
    rows = []
    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        rows.append((path.name, len(source.splitlines()), code_lines(source)))
    return rows


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    rows = count(Path(argv[0]) if argv else DEFAULT_PACKAGE)
    width = max(len(name) for name, _, _ in rows + [("module", 0, 0)])
    print(f"{'module':<{width}} {'lines':>6} {'code':>6}")
    for name, lines, code in rows + [("total", sum(r[1] for r in rows), sum(r[2] for r in rows))]:
        print(f"{name:<{width}} {lines:>6} {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
