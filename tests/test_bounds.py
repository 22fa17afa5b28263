"""Every enumeration bound is stated once, in `optimin.errors`, and refused
through `ResourceLimitError.check`.

The table-driven tests ask each bound for one unit past it, in the unit its
input is given in, and check the one message form, the requested size, the
bound and the constant, with the refusal made before anything is built; the
cheap bounds are also asked for exactly their limit, which is accepted.  The
syntax-tree guards, in the style of `test_imports.py`, keep the bounds and
their message form in `errors.py`, and have every bound checked by a
`ResourceLimitError.check` call that names that bound's own constant.
"""

import ast
import random
import re
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import pytest

import optimin
from optimin import (
    DecisionProblem,
    MarriageProblem,
    Matching,
    ResourceLimitError,
    TUGame,
    all_matchings,
    core,
    errors,
    gen_centipede,
    gen_public_goods,
    gen_travelers,
    imputation_grid,
    nucleolus,
    optimin_matchings,
    profitable_group_deviations,
    shapley,
    value_table,
)
from optimin import cli, coop, decisions, generators, matching, noncoop, rational
from optimin.noncoop import grid_profiles_2p
from optimin.rational import to_fraction
from conftest import zero_game

MODULES = sorted(Path(optimin.__file__).resolve().parent.glob("*.py"))
MESSAGE = re.compile(r"(?P<what>.+) exceeds the (?P<bound>\d+)-(?P<unit>[a-z-]+) bound \((?P<name>[A-Z_]+)\)(?:; (?P<hint>.+))?")


def zero_tu_game(n):
    return TUGame(n, dict.fromkeys(range(1, 1 << n), 0))


def marriage(n):
    rng = random.Random(n)
    side_a = tuple(f"a{i}" for i in range(n))
    side_b = tuple(f"b{i}" for i in range(n))
    prefs = {a: tuple(rng.sample(side_b, n)) + (a,) for a in side_a}
    prefs.update({b: tuple(rng.sample(side_a, n)) + (b,) for b in side_b})
    return MarriageProblem(side_a, side_b, prefs)


def everyone_single(n):
    problem = marriage(n)
    return problem, Matching(problem, {})


# (constant, the module that checks it, unit, set-up building the input
# outside the trace, the refused call on it, the requested size named).
# Each input is one unit past the bound in the unit it is given in.
D, E = errors.RATIONAL_MAX_DIGITS, errors.RATIONAL_MAX_EXPONENT
BOUNDS = [
    ("RATIONAL_MAX_DIGITS", rational, "digit", lambda: "9" * (D + 1), to_fraction, f"{D + 1} digits"),
    ("RATIONAL_MAX_EXPONENT", rational, "exponent", lambda: f"1e{E + 1}", to_fraction, f"exponent {E + 1}"),
    ("GRID_PROFILE_LIMIT", noncoop, "profile",
     lambda: zero_game((1, errors.GRID_PROFILE_LIMIT + 1)), lambda g: grid_profiles_2p(g, 1),
     f"grid of {errors.GRID_PROFILE_LIMIT + 1} profiles"),
    # A 1 x 1000 game at k = 1: 1000 profiles, whose 1000 points hold 1000 weights each.
    ("GRID_WEIGHT_LIMIT", noncoop, "weight", lambda: zero_game((1, 1000)), lambda g: grid_profiles_2p(g, 1),
     f"grid of {1 + 1000 * 1000} weights"),
    # 12x11x11x11 counts 90 832 764 deviation profiles, within the bound.
    ("VALUE_TABLE_MAX_PROFILES", noncoop, "profile", lambda: zero_game((12, 12, 11, 11)), value_table,
     f"({17424 * (1452 * 2 + 1584 * 2)} deviation profiles)"),
    ("SHAPLEY_MAX_PLAYERS", coop, "player",
     lambda: zero_tu_game(errors.SHAPLEY_MAX_PLAYERS + 1), shapley,
     f"{errors.SHAPLEY_MAX_PLAYERS + 1} players"),
    ("IMPUTATION_GRID_MAX_POINTS", coop, "point",
     lambda: TUGame(2, {1: 0, 2: 0, 3: errors.IMPUTATION_GRID_MAX_POINTS}), lambda g: imputation_grid(g, 1),
     f"{errors.IMPUTATION_GRID_MAX_POINTS + 1} points"),
    ("NUCLEOLUS_MAX_PLAYERS", coop, "player",
     lambda: zero_tu_game(errors.NUCLEOLUS_MAX_PLAYERS + 1), nucleolus,
     f"{errors.NUCLEOLUS_MAX_PLAYERS + 1} players"),
    ("CORE_MAX_PLAYERS", coop, "player",
     lambda: zero_tu_game(errors.CORE_MAX_PLAYERS + 1), core, f"{errors.CORE_MAX_PLAYERS + 1} players"),
    ("DEVIATION_MAX_SIZE", matching, "per-side",
     lambda: everyone_single(errors.DEVIATION_MAX_SIZE + 1), lambda pm: profitable_group_deviations(*pm),
     f"{errors.DEVIATION_MAX_SIZE + 1} per side"),
    ("OPTIMIN_MAX_SIZE", matching, "per-side",
     lambda: marriage(errors.OPTIMIN_MAX_SIZE + 1), optimin_matchings, f"{errors.OPTIMIN_MAX_SIZE + 1} per side"),
    ("MATCHINGS_MAX_SIZE", matching, "per-side",
     lambda: marriage(errors.MATCHINGS_MAX_SIZE + 1), all_matchings, f"{errors.MATCHINGS_MAX_SIZE + 1} per side"),
    # 501 claims a side, one past gen_travelers' 500.
    ("TRAVELERS_CELL_LIMIT", generators, "cell", lambda: 502, lambda high: gen_travelers(2, high), "251001 cells"),
    # 17 players of 2 levels, one past the 16 that fill the bound.
    ("PUBLIC_GOODS_CELL_LIMIT", generators, "cell", lambda: 17, gen_public_goods, "17 players with 2 levels"),
    ("CENTIPEDE_MAX_NODES", generators, "node",
     lambda: errors.CENTIPEDE_MAX_NODES + 1, gen_centipede, f"{errors.CENTIPEDE_MAX_NODES + 1} nodes"),
    ("DECISION_MAX_CELLS", decisions, "cell",
     lambda: [f"a{k}" for k in range(errors.DECISION_MAX_CELLS + 1)], lambda acts: DecisionProblem(acts, ["s"], {}),
     f"({errors.DECISION_MAX_CELLS + 1} cells)"),
    ("SWEEP_MAX_POINTS", cli, "point",
     lambda: F(errors.SWEEP_MAX_POINTS), lambda stop: cli._sweep_values(F(0), stop, F(1)),
     f"{errors.SWEEP_MAX_POINTS + 1} points"),
]


# (constant, set-up building the input, the call on it that is accepted).
# Each input asks for exactly the bound; the bounds whose limit takes seconds
# to reach are left out.
AT_LIMIT = [
    ("RATIONAL_MAX_DIGITS", lambda: "9" * D, to_fraction),
    ("RATIONAL_MAX_EXPONENT", lambda: f"1e{E}", to_fraction),
    ("SWEEP_MAX_POINTS", lambda: F(errors.SWEEP_MAX_POINTS), lambda stop: cli._sweep_values(F(1), stop, F(1))),
    ("DECISION_MAX_CELLS", lambda: [f"a{k}" for k in range(errors.DECISION_MAX_CELLS)],
     lambda acts: DecisionProblem(acts, ["s"], {act: {"s": 0} for act in acts})),
    # 500 claims a side fill the bound.
    ("TRAVELERS_CELL_LIMIT", lambda: 501, lambda high: gen_travelers(2, high)),
    ("CENTIPEDE_MAX_NODES", lambda: errors.CENTIPEDE_MAX_NODES, gen_centipede),
    ("SHAPLEY_MAX_PLAYERS", lambda: zero_tu_game(errors.SHAPLEY_MAX_PLAYERS), shapley),
    ("NUCLEOLUS_MAX_PLAYERS", lambda: zero_tu_game(errors.NUCLEOLUS_MAX_PLAYERS), nucleolus),
    ("IMPUTATION_GRID_MAX_POINTS",
     lambda: TUGame(2, {1: 0, 2: 0, 3: errors.IMPUTATION_GRID_MAX_POINTS - 1}), lambda g: imputation_grid(g, 1)),
    ("OPTIMIN_MAX_SIZE", lambda: marriage(errors.OPTIMIN_MAX_SIZE), optimin_matchings),
]


@pytest.mark.parametrize("name, module, unit, setup, call, requested", BOUNDS, ids=[b[0] for b in BOUNDS])
def test_one_past_every_bound_is_refused_in_the_one_form(name, module, unit, setup, call, requested):
    bound = getattr(errors, name)
    assert getattr(module, name) is bound  # still importable where it lived
    arg = setup()
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError) as info:
            call(arg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # refused before the enumeration is built
    found = MESSAGE.fullmatch(str(info.value))
    assert found, str(info.value)
    assert (found["bound"], found["unit"], found["name"]) == (str(bound), unit, name)
    assert requested in found["what"]


@pytest.mark.parametrize("name, setup, call", AT_LIMIT, ids=[b[0] for b in AT_LIMIT])
def test_exactly_the_limit_is_accepted(name, setup, call):
    call(setup())


def test_check_accepts_the_bound_and_refuses_one_past_it():
    assert ResourceLimitError.check(7, 7, "box of 7 cells", "cell", "BOX_LIMIT") is None
    with pytest.raises(ResourceLimitError) as info:
        ResourceLimitError.check(8, 7, "box of 8 cells", "cell", "BOX_LIMIT")
    assert str(info.value) == "box of 8 cells exceeds the 7-cell bound (BOX_LIMIT)"
    with pytest.raises(ResourceLimitError) as info:
        ResourceLimitError.check(8, 7, "box of 8 cells", "cell", "BOX_LIMIT", "lower --box")
    assert str(info.value) == "box of 8 cells exceeds the 7-cell bound (BOX_LIMIT); lower --box"


def test_every_bound_is_in_the_table():
    stated = {name for name in vars(errors) if name.endswith("_LIMIT") or "_MAX_" in name}
    assert stated == {b[0] for b in BOUNDS}


def stray_bounds(source: str) -> list[str]:
    """Module-level `*_LIMIT` or `*_MAX_*` assignments, and strings that
    write a "bound (NAME)" refusal by hand."""
    tree = ast.parse(source)
    found = []
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        for target in targets:
            if isinstance(target, ast.Name) and (target.id.endswith("_LIMIT") or "_MAX_" in target.id):
                found.append(f"line {node.lineno}: assigns {target.id}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and "bound (" in node.value:
            found.append(f"line {node.lineno}: formats a bound message")
    return found


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_bounds_live_only_in_errors(path):
    if path.name != "errors.py":
        assert stray_bounds(path.read_text(encoding="utf-8")) == []


def test_the_guard_sees_a_stray_bound():
    source = (
        "X_LIMIT = 5\nY_MAX_SIZE: int = 3\nlimit = 4\n"
        "def f(n):\n    raise E(f'{n} exceeds the {X_LIMIT}-cell bound (X_LIMIT)')\n"
    )
    assert stray_bounds(source) == [
        "line 1: assigns X_LIMIT", "line 2: assigns Y_MAX_SIZE", "line 5: formats a bound message",
    ]


CHECK_PARAMETERS = ("requested", "bound", "what", "unit", "name", "hint")


def bound_checks(source: str) -> list[tuple[int, str, str]]:
    """Each `ResourceLimitError.check` call's line, its bound argument as
    written and its name argument, the string's value if it is one."""
    found = []
    for node in ast.walk(ast.parse(source)):
        func = getattr(node, "func", None)
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "check"
            and isinstance(func.value, ast.Name)
            and func.value.id == "ResourceLimitError"
        ):
            args = dict(zip(CHECK_PARAMETERS, node.args))
            args.update((keyword.arg, keyword.value) for keyword in node.keywords)
            name = args["name"]
            shown = name.value if isinstance(name, ast.Constant) else ast.unparse(name)
            found.append((node.lineno, ast.unparse(args["bound"]), shown))
    return found


def test_every_bound_is_checked_under_its_own_name():
    calls = [(path.name, *call) for path in MODULES for call in bound_checks(path.read_text(encoding="utf-8"))]
    assert [call for call in calls if call[2] != call[3]] == []
    stated = {name for name in vars(errors) if name.endswith("_LIMIT") or "_MAX_" in name}
    assert {call[2] for call in calls} == stated


def test_the_guard_sees_a_bound_checked_under_another_name():
    source = (
        "def f(n):\n"
        "    ResourceLimitError.check(n, X_LIMIT, 'x', 'cell', 'X_LIMIT')\n"
        "    ResourceLimitError.check(n, Y_LIMIT, 'y', 'cell', 'X_LIMIT', 'lower --y')\n"
        "    ResourceLimitError.check(n, bound=Z_MAX_SIZE, what='z', unit='cell', name=NAME)\n"
        "    other.check(n, W_LIMIT, 'w', 'cell', 'X_LIMIT')\n"
    )
    assert bound_checks(source) == [
        (2, "X_LIMIT", "X_LIMIT"), (3, "Y_LIMIT", "X_LIMIT"), (4, "Z_MAX_SIZE", "NAME"),
    ]
