"""Count code lines in Python files: non-blank lines outside comments and docstrings.

A line counts when it holds at least one token that is neither a comment nor
part of a docstring (the string that opens a module, class or function
body).  Prints one ``COUNT PATH`` line per file, then the total:

    python tools/code_lines.py src
    python tools/code_lines.py src/envarkit/derivation.py
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIPPED = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers spanned by every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of code lines in Python ``source``."""
    docstrings = _docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _SKIPPED:
            lines.update(n for n in range(token.start[0], token.end[0] + 1) if n not in docstrings)
    return len(lines)


def python_files(paths) -> list[Path]:
    """Each path that is a file, and every ``*.py`` file under each directory, sorted."""
    files: list[Path] = []
    for path in map(Path, paths):
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if not paths:
        print("usage: python tools/code_lines.py PATH...", file=sys.stderr)
        return 2
    total = 0
    for path in python_files(paths):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
