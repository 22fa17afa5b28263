"""JSON file formats for games, characteristic functions, matching problems,
and decision problems.

Rationals are encoded as plain integers or exact strings "a/b"; writers are
canonical so a parse/dump round trip is byte-identical.  Game payoffs are
parsed straight to ints, and TU worths and decision utilities are checked at
their JSON paths and passed on as literals for their classes to read to
ints, with no `Fraction` for a plain literal.  Parse errors name the
offending JSON path, which is built only once a check has failed; JSON
nested past the recursion limit is a format error too.
"""

from __future__ import annotations

import json
from typing import Mapping

from .coop import TUGame, check_players
from .decisions import DecisionProblem, OptimismConstraint, check_size
from .errors import FormatError, ResourceLimitError
from .games import NormalFormGame, scaled_payoffs, tensor_fault
from .matching import MarriageProblem
from .rational import json_ratio, literal_ratio


def _fail(path: str, message: str) -> FormatError:
    return FormatError(f"{path}: {message}")


def _require(obj: Mapping, key: str, path: str):
    if not isinstance(obj, dict):
        raise _fail(path, "expected a JSON object")
    if key not in obj:
        raise _fail(path, f"missing required field {key!r}")
    return obj[key]


def _load_json(text: str, source: str) -> object:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{source}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer past Python's int-conversion digit limit
        raise FormatError(f"{source}: {str(exc).partition(';')[0]}") from exc
    except RecursionError:  # arrays or objects nested past the interpreter's recursion limit
        raise FormatError(f"{source}: JSON nested too deeply") from None


def _rational_at(value, path: str) -> None:
    """Check that `value` reads as an exact rational, naming `path` if not."""
    try:
        literal_ratio(value)
    except FormatError as exc:
        raise _fail(path, str(exc)) from None


# -- normal-form games ---------------------------------------------------


def parse_game(text: str, source: str = "game") -> NormalFormGame:
    doc = _load_json(text, source)
    players = _require(doc, "players", source)
    strategies = _require(doc, "strategies", source)
    payoffs = _require(doc, "payoffs", source)
    if not isinstance(players, list) or not all(isinstance(p, str) for p in players):
        raise _fail(f"{source}.players", "expected a list of strings")
    if not isinstance(strategies, list) or len(strategies) != len(players):
        raise _fail(f"{source}.strategies", f"expected {len(players)} strategy lists")
    for i, strats in enumerate(strategies):
        if not isinstance(strats, list) or not all(isinstance(s, str) for s in strats):
            raise _fail(f"{source}.strategies[{i}]", "expected a list of strings")
    shape = tuple(len(s) for s in strategies)
    n = len(players)
    scaled = scaled_payoffs(payoffs, shape, n)
    if scaled is None:
        path, fault = tensor_fault(payoffs, shape, n, "payoffs")
        if isinstance(fault, ResourceLimitError):
            raise fault
        raise _fail(f"{source}.payoffs{path}", str(fault)) from None
    try:
        return NormalFormGame._from_scaled(players, strategies, *scaled)
    except ValueError as exc:
        raise FormatError(f"{source}: {exc}") from exc


def dump_game(game: NormalFormGame) -> str:
    columns = [
        column if d == 1 else [json_ratio(u, d) for u in column]
        for column, d in zip(game._num, game._den)
    ]
    # Fold the row-major cells into the nested tensor, innermost axis first.
    nodes = [list(cell) for cell in zip(*columns)]
    for size in reversed(game.shape[1:]):
        nodes = [nodes[k : k + size] for k in range(0, len(nodes), size)]
    doc = {
        "players": list(game.players),
        "strategies": [list(s) for s in game.strategies],
        "payoffs": nodes,
    }
    return json.dumps(doc, indent=2) + "\n"


# -- characteristic functions --------------------------------------------


def _coalition_key(mask: int, n: int) -> str:
    return ",".join(str(i + 1) for i in range(n) if mask >> i & 1)


def parse_tu_game(text: str, source: str = "game") -> TUGame:
    doc = _load_json(text, source)
    n = _require(doc, "n", source)
    worth = _require(doc, "worth", source)
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise _fail(f"{source}.n", "expected a positive integer")
    if not isinstance(worth, dict):
        raise _fail(f"{source}.worth", "expected an object keyed by coalitions")
    try:
        check_players(n, len(worth))
    except ValueError as exc:
        raise _fail(f"{source}.n", str(exc)) from None
    by_mask = {}
    for key, value in worth.items():
        path = f"{source}.worth[{key!r}]"
        try:
            members = [int(tok) for tok in key.split(",")]
        except ValueError:
            raise _fail(path, "coalition keys are comma-joined player numbers") from None
        if members != sorted(members) or len(set(members)) != len(members):
            raise _fail(path, "coalition keys must list players sorted, once each")
        if not all(1 <= p <= n for p in members):
            raise _fail(path, f"player numbers must lie in 1..{n}")
        _rational_at(value, path)  # checked here for the path; TUGame reads them
        by_mask[sum(1 << (p - 1) for p in members)] = value
    full = (1 << n) - 1
    # Every mask in by_mask lies in 1..full, so the count decides
    # completeness, and some mask up to len(by_mask) + 1 is missing.
    missing = full - len(by_mask)
    if missing:
        first = next(m for m in range(1, len(by_mask) + 2) if m not in by_mask)
        raise _fail(
            f"{source}.worth",
            f"all {full} coalitions are mandatory; missing "
            f"{_coalition_key(first, n)!r}"
            + (f" and {missing - 1} more" if missing > 1 else ""),
        )
    return TUGame(n, by_mask)


def dump_tu_game(game: TUGame) -> str:
    masks = sorted(range(1, game.grand_coalition + 1), key=lambda m: (bin(m).count("1"), m))
    doc = {
        "n": game.n,
        "worth": {_coalition_key(m, game.n): json_ratio(game._num[m], game._den) for m in masks},
    }
    return json.dumps(doc, indent=2) + "\n"


# -- marriage problems ----------------------------------------------------


def parse_marriage(text: str, source: str = "problem") -> MarriageProblem:
    doc = _load_json(text, source)
    side_a = _require(doc, "A", source)
    side_b = _require(doc, "B", source)
    prefs = _require(doc, "prefs", source)
    for name, side in (("A", side_a), ("B", side_b)):
        if not isinstance(side, list) or not all(isinstance(x, str) for x in side):
            raise _fail(f"{source}.{name}", "expected a list of strings")
    if not isinstance(prefs, dict):
        raise _fail(f"{source}.prefs", "expected an object of preference lists")
    for person, ranking in prefs.items():
        if not isinstance(ranking, list) or not all(isinstance(x, str) for x in ranking):
            raise _fail(f"{source}.prefs[{person!r}]", "expected a list of labels")
    try:
        return MarriageProblem(side_a, side_b, prefs)
    except Exception as exc:
        raise FormatError(f"{source}: {exc}") from exc


def dump_marriage(problem: MarriageProblem) -> str:
    doc = {
        "A": list(problem.side_a),
        "B": list(problem.side_b),
        "prefs": {p: list(problem.prefs[p]) for p in problem.everyone()},
    }
    return json.dumps(doc, indent=2) + "\n"


# -- decision problems -----------------------------------------------------


def parse_decision(text: str, source: str = "problem") -> tuple[DecisionProblem, OptimismConstraint]:
    doc = _load_json(text, source)
    acts = _require(doc, "acts", source)
    states = _require(doc, "states", source)
    utility = _require(doc, "utility", source)
    if not isinstance(acts, list) or not isinstance(states, list):
        raise _fail(source, "acts and states must be lists of strings")
    check_size(len(acts), len(states), f"{source}: ")
    if not isinstance(utility, dict):
        raise _fail(f"{source}.utility", "expected an object of per-act state tables")

    for act, row in utility.items():
        if not isinstance(row, dict):
            raise _fail(f"{source}.utility[{act!r}]", "expected an object keyed by state")
        for state, value in row.items():  # checked here for the path; DecisionProblem reads them
            _rational_at(value, f"{source}.utility[{act!r}][{state!r}]")
    antagonist = doc.get("antagonist", False)
    if not isinstance(antagonist, bool):
        raise _fail(f"{source}.antagonist", "expected a boolean")
    for field in ("feasible_acts", "feasible_states"):
        table = doc.get(field)
        if table is None:
            continue
        if not isinstance(table, dict):
            raise _fail(f"{source}.{field}", "expected an object of label lists")
        for key, labels in table.items():
            if not isinstance(labels, list):
                raise _fail(f"{source}.{field}[{key!r}]", "expected a list of labels")

    try:
        problem = DecisionProblem(
            acts, states, utility, doc.get("feasible_acts"), doc.get("feasible_states"), antagonist
        )
    except Exception as exc:
        raise FormatError(f"{source}: {exc}") from exc

    def parse_oc(field: str) -> dict:
        raw = doc.get(field, {})
        if not isinstance(raw, dict):
            raise _fail(f"{source}.{field}", "expected an object keyed by 'act,state'")
        out = {}
        wildcard = raw.get("*")
        for key, allowed in raw.items():
            if key == "*":
                continue
            parts = key.split(",")
            if len(parts) != 2:
                raise _fail(f"{source}.{field}[{key!r}]", "keys look like 'act,state' or '*'")
            if not isinstance(allowed, list):
                raise _fail(f"{source}.{field}[{key!r}]", "expected a list of labels")
            out[(parts[0], parts[1])] = tuple(allowed)
        if wildcard is not None:
            if not isinstance(wildcard, list):
                raise _fail(f"{source}.{field}['*']", "expected a list of labels")
            for profile in problem.feasible_pairs():
                out.setdefault(profile, tuple(wildcard))
        return out

    return problem, OptimismConstraint(parse_oc("oc_states"), parse_oc("oc_acts"))


# -- path helpers ----------------------------------------------------------


def read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise FormatError(f"{path}: {exc.strerror or exc}") from exc


def write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise FormatError(f"{path}: {exc.strerror or exc}") from exc


def load_game(path: str) -> NormalFormGame:
    return parse_game(read_text(path), source=path)


def load_tu_game(path: str) -> TUGame:
    return parse_tu_game(read_text(path), source=path)


def load_marriage(path: str) -> MarriageProblem:
    return parse_marriage(read_text(path), source=path)


def load_decision(path: str) -> tuple[DecisionProblem, OptimismConstraint]:
    return parse_decision(read_text(path), source=path)
