"""Code lines per module: no blank, comment or docstring line counts.

A line counts when a token other than a comment or a line break lies on
it, a token that spans lines (a string, say) counting on each line it
covers, and it is no line of a docstring: the string that opens a
module, class or function body.  Standard library only.

    python tools/loc.py [PATH ...]

Each PATH is a Python file or a directory, whose ``*.py`` files are read
recursively; the default is ``src/sphfan`` beside this script.  Prints
one line per module, then the total.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines of one Python file."""
    with path.open("rb") as f:
        tokens = list(tokenize.tokenize(f.readline))
    lines = set()
    for tok in tokens:
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(path.read_bytes())))


def main(argv: list[str]) -> int:
    roots = [Path(a) for a in argv] or [Path(__file__).resolve().parent.parent / "src" / "sphfan"]
    total = 0
    for root in roots:
        for f in sorted(root.rglob("*.py")) if root.is_dir() else [root]:
            n = code_lines(f)
            total += n
            print(f"{n:6d}  {f.relative_to(root.parent)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
