"""No `optimin` module catches every exception.

A bare ``except:`` or an ``except Exception`` (alone or in a tuple) would
relabel a program fault as a library error, so each handler names what it
expects.  As in `test_imports`, this walks each module's syntax tree.
"""

import ast
from pathlib import Path

import pytest

import optimin

MODULES = sorted(Path(optimin.__file__).resolve().parent.glob("*.py"))
BROAD = {"Exception", "BaseException"}


def broad_handlers(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler):
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if node.type is None or any(isinstance(c, ast.Name) and c.id in BROAD for c in caught):
                found.append(f"line {node.lineno}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_handler_catches_every_exception(path):
    assert broad_handlers(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_a_broad_handler():
    source = (
        "try:\n    f()\nexcept:\n    pass\n"
        "try:\n    f()\nexcept Exception:\n    pass\n"
        "try:\n    f()\nexcept (ValueError, BaseException):\n    pass\n"
        "try:\n    f()\nexcept ValueError:\n    pass\n"
    )
    assert broad_handlers(source) == ["line 3", "line 7", "line 11"]
