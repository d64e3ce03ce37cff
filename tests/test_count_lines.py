"""tools/count_lines.py counts code lines with no docstring, comment or
blank line, and options, per module."""

from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"

SNIPPET = '''"""Module docstring,
over two lines."""

import math  # a comment after code counts


class Box:
    """Class docstring."""

    # a comment line
    def area(self, side):
        """Method docstring."""
        text = """a string that is
        not a docstring"""
        return math.prod(
            [side, side])
'''


def test_code_lines_skip_docstrings_comments_and_blank_lines(monkeypatch, tmp_path, capsys):
    monkeypatch.syspath_prepend(str(TOOLS))
    from count_lines import code_lines, main

    # import, class, def, the two lines of the string, the two of return
    assert code_lines(SNIPPET) == 7
    assert code_lines("") == 0
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "module  lines   code options",
        "a.py       16      7       0",
        "b.py        3      1       0",
        "total      19      8       0",
    ]


OPTIONS_SNIPPET = '''from dataclasses import dataclass, field


def public(a, b=1, *, c=2, d):
    def inner(e=3):
        pass


def _private(a=1):
    pass


@dataclass(frozen=True)
class Report:
    name: str
    count: int = 0
    tags: list = field(default_factory=list)
    LIMIT = 5

    def __init__(self, x=1):
        pass

    def show(self, fmt="plain"):
        pass

    def _hidden(self, y=2):
        pass


class Plain:
    size: int = 3

    def grow(self, by=1):
        pass
'''


def test_options_count_defaults_of_the_public_api(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    from count_lines import options

    # public: b and c; Report: count, tags, __init__'s x and show's fmt;
    # Plain: grow's by (not a dataclass, so size is no field).  Nested,
    # private and unannotated definitions do not count.
    assert options(OPTIONS_SNIPPET) == 7
    assert options("@dataclass\nclass A:\n    x: int = 1\n    y: int\n") == 1
    assert options(SNIPPET) == 0
