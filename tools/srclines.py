"""Count the code lines of each ``src/sumgraph`` module, beside its raw line count.

    python tools/srclines.py [DIR]

A code line is a line that holds a token of code: blank lines, comment
lines and the docstrings of modules, classes and functions do not count,
and a statement or string that spans lines counts each line it spans.
This is the count "a net drop in ``src/`` lines" is measured by; the
second column is what ``wc -l`` reports.  DIR defaults to
``src/sumgraph``; every ``*.py`` file in it is counted, then the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """The number of code lines in the Python source ``text``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(text)))


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    folder = Path(args[0]) if args else ROOT / "src" / "sumgraph"
    rows = []
    for path in sorted(folder.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        rows.append((path.name, code_lines(text), len(text.splitlines())))
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print(f"{'file':<16}{'code':>6}{'lines':>7}")
    for name, code, raw in rows:
        print(f"{name:<16}{code:>6}{raw:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
