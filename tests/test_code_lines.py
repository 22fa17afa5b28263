"""`tools/code_lines.py`, the code-line and branch counts that CI prints, loaded by path."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("optimin_code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Code lines: 6 (import), 9 (def), 13 and 14 (the two-line string), 15 (code
# before a comment) and 17 (class).
SOURCE = '''"""A module docstring
over two lines."""

# A comment-only line.

import math


def f(x):
    """A function docstring."""
    # Another comment-only line.

    text = """a string literal
over two lines"""
    return math.floor(x) + len(text)  # a comment after code

class C:
    """A class docstring
    over two lines."""
'''


def test_code_lines_counts_code_only():
    tool = load_tool()
    assert tool.code_lines(SOURCE) == 6
    assert tool.docstring_lines(SOURCE) == {1, 2, 10, 18, 19}
    assert tool.code_lines("") == 0


# Branches: the `if` and its `or` and `and` operands (3), the comprehension's
# two `if`s (its `for` is not one), the `elif`, the `while`, the conditional
# expression, the `for` and the two `except` clauses.
BRANCHY = '''
def f(xs, y):
    if y and xs or not y:
        return [x for x in xs if x if x > 1]
    elif y:
        pass
    while y:
        y = y - 1 if y > 1 else 0
    for x in xs:
        try:
            pass
        except ValueError:
            pass
        except KeyError:
            pass
'''


def test_branches_counts_decision_points():
    tool = load_tool()
    assert tool.branches(BRANCHY) == 11
    assert tool.branches(SOURCE) == 0
    assert tool.branches("") == 0


def test_main_prints_one_line_per_module_and_a_total(capsys):
    tool = load_tool()
    tool.main()
    lines = capsys.readouterr().out.splitlines()
    modules = sorted(path.name for path in tool.PACKAGE.glob("*.py"))
    assert [line.split()[1] for line in lines] == [*modules, "total"]
    counts = [int(line.split()[0]) for line in lines]
    assert counts[-1] == sum(counts[:-1]) > 0
    assert "__init__.py" in modules and "noncoop.py" in modules
