"""Every import in each `optimin` module is used, no module has an `assert`,
and every private helper is read by the package.

No linter ships with the project, so this walks each module's syntax tree: a
name an import binds counts as used when the module reads it.  The names that
`__init__.py` imports from the package's own modules are its public API, so
there a relative import counts as used.  `python -O` strips `assert`
statements, and every check must hold under it, so each one raises.  A
function, method, class or module-level name bound by an assignment, named
with one leading underscore, is the package's own, so some module of the
package must read it; one that only tests read is dead code.  Likewise
each `__slots__` entry of a class must be read as an attribute somewhere in
the package; a slot that is only assigned holds nothing anyone uses.
Equality has one home: `rational.Record` compares and hashes each record's
`_key()`, and only `Record` and `Matching` (whose equality needs the same
problem object) define `__eq__` or `__hash__`.
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


def assert_lines(source: str) -> list[int]:
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_check_is_an_assert(path):
    assert assert_lines(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_assert():
    assert assert_lines("x = 1\nif x:\n    assert x, 'x'\nraise AssertionError(x)\n") == [3]


def private_names(tree: ast.Module) -> list[str]:
    """The module-level functions, classes and assigned names, and the
    methods, of `tree` named with one leading underscore."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            names.append(node.name)
            names += [fn.name for fn in node.body if isinstance(fn, ast.FunctionDef)]
        elif isinstance(node, ast.FunctionDef):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [name.id for target in targets for name in ast.walk(target) if isinstance(name, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def orphaned_helpers(sources: dict[str, str]) -> list[str]:
    """The `private_names` that no source reads, by name or as an
    attribute, as "module: name"; binding a name is no read of it."""
    defined, read = [], set()
    for module, source in sorted(sources.items()):
        tree = ast.parse(source)
        defined += [f"{module}: {name}" for name in private_names(tree)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [entry for entry in defined if entry.partition(": ")[2] not in read]


def test_every_private_helper_is_read():
    assert orphaned_helpers({path.name: path.read_text(encoding="utf-8") for path in MODULES}) == []


def test_the_check_sees_an_orphaned_helper():
    sources = {
        "a.py": "def _used():\n    pass\n\ndef _orphan():\n    pass\n\ndef __getattr__(name):\n    pass\n",
        "b.py": (
            "from .a import _used\n\nclass C:\n    def _method(self):\n        pass\n\n"
            "    def _idle(self):\n        pass\n\n    def __eq__(self, other):\n        pass\n\n"
            "_used()\nC()._method()\n"
        ),
    }
    assert orphaned_helpers(sources) == ["a.py: _orphan", "b.py: _idle"]


def test_the_check_sees_an_orphaned_private_name():
    sources = {
        "a.py": (
            "_READ = 1\n_UNREAD = 2\n_PAIR, _TWIN = 3, 4\n_TYPED: int = 5\n__version__ = '1'\n"
            "class _Error(Exception):\n    pass\n\nclass _Idle:\n    pass\n"
        ),
        "b.py": "from .a import _READ, _Error\n\n_TWIN = _READ\nraise _Error(_TWIN)\n",
    }
    assert orphaned_helpers(sources) == [
        "a.py: _UNREAD", "a.py: _PAIR", "a.py: _TYPED", "a.py: _Idle",
    ]


def unread_slots(sources: dict[str, str]) -> list[str]:
    """The `__slots__` entries of the classes in `sources` that no source
    loads as an attribute, as "module: Class.slot"; storing one is no read."""
    declared, read = [], set()
    for module, source in sorted(sources.items()):
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if isinstance(stmt, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets
                    ):
                        value = stmt.value
                        entries = value.elts if isinstance(value, (ast.Tuple, ast.List)) else [value]
                        declared += [(module, node.name, entry.value) for entry in entries]
    return [f"{module}: {cls}.{slot}" for module, cls, slot in declared if slot not in read]


def test_every_slot_is_read():
    assert unread_slots({path.name: path.read_text(encoding="utf-8") for path in MODULES}) == []


def test_the_check_sees_an_unread_slot():
    sources = {
        "a.py": (
            "class A:\n    __slots__ = ('kept', 'stored')\n\n    def __init__(self):\n"
            "        self.kept = 1\n        self.stored = 2\n\n"
            "class B:\n    __slots__ = 'lone'\n\n"
            "class C:\n    __slots__ = ['used']\n"
        ),
        "b.py": "from .a import A, C\n\nprint(A().kept, C().used)\n",
    }
    assert unread_slots(sources) == ["a.py: A.stored", "a.py: B.lone"]


# The classes that may define `__eq__` or `__hash__`.
EQUALITY_OWNERS = ("Record", "Matching")


def equality_definers(source: str) -> list[str]:
    """The classes of `source`, other than `EQUALITY_OWNERS`, that define
    `__eq__` or `__hash__` by a method or an assignment, as "line n: Class.name"."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and node.name not in EQUALITY_OWNERS:
            for stmt in node.body:
                if isinstance(stmt, ast.FunctionDef):
                    names = [stmt.name]
                else:
                    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
                    names = [t.id for t in targets if isinstance(t, ast.Name)]
                found += [f"line {stmt.lineno}: {node.name}.{name}" for name in names if name in ("__eq__", "__hash__")]
    return found


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_only_record_and_matching_define_equality(path):
    assert equality_definers(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_a_hand_written_equality():
    source = (
        "class Record:\n    def __eq__(self, other):\n        pass\n\n    def __hash__(self):\n        pass\n\n"
        "class Game(Record):\n    def _key(self):\n        return ()\n\n"
        "class Pair:\n    def __eq__(self, other):\n        pass\n\n"
        "class Open:\n    __hash__ = None\n\n"
        "class Typed:\n    __hash__: None = None\n\n"
        "def outer():\n    class Inner:\n        def __hash__(self):\n            pass\n"
    )
    assert equality_definers(source) == [
        "line 13: Pair.__eq__", "line 17: Open.__hash__", "line 20: Typed.__hash__", "line 24: Inner.__hash__",
    ]
