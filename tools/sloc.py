"""Print the code lines of each module of the defreg package, and their total.

A code line is a physical line that holds a token of code, a closing
bracket included: blank lines, comment lines and the lines of docstrings
(the leading string of a module, class or function) are not counted.
Only the standard library is used.

    python3 tools/sloc.py [package directory]

The directory defaults to src/defreg beside this script's parent.  The
script only reports; it sets no bound.
"""

from __future__ import annotations

import ast
import pathlib
import sys
import tokenize

SKIPPED = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """(line, column) of every docstring in the tree."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                starts.add((body[0].lineno, body[0].col_offset))
    return starts


def code_lines(path: pathlib.Path) -> int:
    """The number of lines of path that hold a token of code."""
    with path.open("rb") as f:
        source = f.read()
    docstrings = docstring_starts(ast.parse(source))
    lines: set[int] = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type in SKIPPED:
                continue
            if tok.type == tokenize.STRING and tok.start in docstrings:
                continue
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    root = pathlib.Path(__file__).resolve().parents[1]
    package = pathlib.Path(argv[0]) if argv else root / "src" / "defreg"
    total = 0
    for path in sorted(package.glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
