"""The code-line counter in ``tools/code_lines.py`` on a small fixture."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# 9 code lines: the import, the class and def lines, both lines of the string
# assignment, both lines of the return, ``async def`` and ``pass``
FIXTURE = '''"""Module docstring
over two lines."""

import os  # a trailing comment

# a comment line


class A:
    """Class docstring."""

    x = """not a docstring,
    but an assigned string"""

    def f(self):
        """Function
        docstring."""
        return (1 +
                2)


async def g():
    """One line."""
    pass
'''


def test_counts_lines_outside_comments_and_docstrings():
    assert code_lines.code_lines(FIXTURE) == 9
    assert code_lines.code_lines("") == 0
    assert code_lines.code_lines('"""Only a docstring."""\n# and a comment\n') == 0


def test_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE, encoding="utf-8")
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\ny = 2\n", encoding="utf-8")
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n", encoding="utf-8")
    assert code_lines.main([str(tmp_path / "pkg")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["9", str(tmp_path / "pkg" / "a.py")],
        ["2", str(tmp_path / "pkg" / "b.py")],
        ["11", "total"],
    ]
    assert code_lines.main([]) == 2
