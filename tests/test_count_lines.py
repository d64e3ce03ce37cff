"""tools/count_lines.py counts code lines with no docstring, comment or
blank line, per module."""

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
        "module  lines   code",
        "a.py       16      7",
        "b.py        3      1",
        "total      19      8",
    ]
