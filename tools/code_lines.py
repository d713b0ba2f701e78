"""Code lines of each module under `src/`, and their total.

    python tools/code_lines.py

A code line is a physical line that holds a token other than a comment, a
docstring or a line break.  A docstring is a string statement that opens a
module, class or function body.  A statement that spans several lines counts
each of them.  Prints a markdown table: one row per module, by path, then the
total.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set:
    lines = set()
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """The number of code lines of one module's source text."""
    docs = _docstring_lines(ast.parse(text))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main() -> None:
    rows = [(path.relative_to(SRC).as_posix(), code_lines(path.read_text()))
            for path in sorted(SRC.rglob("*.py"))]
    print("| module | code lines |\n|---|---|")
    for name, count in rows:
        print(f"| {name} | {count:,} |")
    print(f"| total | {sum(c for _, c in rows):,} |")


if __name__ == "__main__":
    main()
