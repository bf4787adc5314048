"""Count the code lines of each module of the package in a checkout.

A code line is a physical line that holds at least one token other than
a comment, and that lies outside every docstring (the first statement of
a module, class or function, when it is a string literal). Blank lines,
comment lines and docstring lines do not count; a line that continues a
multi-line expression or string does.

Usage: python tools/code_lines.py [CHECKOUT]   (default: the current directory)

Prints one line per module of CHECKOUT/src/modalfuse and their total.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """Number of code lines in one Python file."""
    with open(path, "rb") as f:
        tokens = list(tokenize.tokenize(f.readline))
    lines = set()
    for tok in tokens:
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(path.read_bytes())))


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print("usage: python tools/code_lines.py [CHECKOUT]", file=sys.stderr)
        return 2
    package = Path(argv[0] if argv else ".") / "src" / "modalfuse"
    paths = sorted(package.glob("*.py"))
    if not paths:
        print(f"no modules under {package}", file=sys.stderr)
        return 2
    counts = {path.name: code_lines(path) for path in paths}
    for name, n in counts.items():
        print(f"{n:6d}  {name}")
    print(f"{sum(counts.values()):6d}  src/modalfuse/ (total)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
