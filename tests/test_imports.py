"""Every import in each `optimin` module is used.

No linter ships with the project, so this walks each module's syntax tree: a
name an import binds counts as used when the module reads it.  The names that
`__init__.py` imports from the package's own modules are its public API, so
there a relative import counts as used.
"""

import ast
from pathlib import Path

import pytest

import optimin

MODULES = sorted(Path(optimin.__file__).resolve().parent.glob("*.py"))


def unused_imports(source: str, reexports: bool = False) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            if not (reexports and node.level):
                for alias in node.names:
                    bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items()) if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8"), path.name == "__init__.py") == []


def test_the_check_sees_an_unused_import():
    source = "import math\nfrom fractions import Fraction\nfrom .x import y as z\nprint(Fraction)\n"
    assert unused_imports(source) == ["line 1: math", "line 3: z"]
    assert unused_imports(source, reexports=True) == ["line 1: math"]
