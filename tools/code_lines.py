"""Print the code lines and the branches of each module under src/optimin,
and their totals.

A code line is a source line that holds at least one token other than a
comment: blank lines, comment-only lines and docstrings do not count.  A
docstring is the string that opens a module, class or function body; a
token that spans lines, such as a multi-line string, counts every line it
spans.  A branch is a decision point: an `if` or `elif`, a conditional
expression, a `for` or `while` loop, an `except` clause, an `if` of a
comprehension, or an `and`/`or` operand past the first.  Standard library
only; run from anywhere:

    python tools/code_lines.py
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
# An `elif` is an `ast.If` nested in its parent's `orelse`.
DECISIONS = (ast.If, ast.IfExp, ast.For, ast.AsyncFor, ast.While, ast.ExceptHandler)
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "optimin"


def docstring_lines(source: str) -> set[int]:
    """The lines that docstrings span."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, BODIES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in `source`."""
    docstrings = docstring_lines(source)
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def branches(source: str) -> int:
    """The number of branches in `source`."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DECISIONS):
            count += 1
        elif isinstance(node, ast.comprehension):
            count += len(node.ifs)
        elif isinstance(node, ast.BoolOp):
            count += len(node.values) - 1
    return count


def main() -> None:
    total = total_branches = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        count, branch_count = code_lines(source), branches(source)
        total += count
        total_branches += branch_count
        print(f"{count:6d}  {path.name}  {branch_count} branches")
    print(f"{total:6d}  total  {total_branches} branches")


if __name__ == "__main__":
    main()
