"""JSON file formats for games, characteristic functions, matching problems,
and decision problems.

Rationals are encoded as plain integers or exact strings "a/b"; writers are
canonical so a parse/dump round trip is byte-identical.  A game's text also
comes cell by cell (`game_pieces`), so `gen` never holds the whole file;
its header, the label lists, comes from `json.dumps` itself.
Game payoffs are parsed straight to ints.  TU worths keyed by exactly the
canonical coalition keys go to `TUGame` through one key table, and are
checked key by key only to name the field of a refusal; decision utilities
are checked at their JSON paths.  Both are passed on as literals for their
classes to read to ints, with no `Fraction` for a plain literal.  Parse
errors name the offending JSON path, which is built only once a check has
failed; JSON nested past the recursion limit is a format error too.  Nothing
is dropped without a word: an object that repeats a key, and a key, label or
field that names nothing, are refused.  A game's labels are checked once, by
`NormalFormGame`, whose message the reader prefixes with ``<file>.``.  The
text readers `parse_*` take any string as a label, so every object
round-trips through its `dump_*`; the file readers `load_*`, which the CLI
reads through, also refuse a label that is not printable, since it would
split a report line.
"""

from __future__ import annotations

import json
import re
from typing import Iterable, Iterator, Mapping, Sequence

from .coop import TUGame, check_players
from .decisions import DecisionProblem, OptimismConstraint, check_size
from .errors import FormatError, OptiminError, ResourceLimitError
from .games import NormalFormGame, first_repeat, scaled_payoffs, tensor_fault
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
    def unique_keys(pairs: list) -> dict:
        obj = dict(pairs)
        if len(obj) != len(pairs):  # a dict keeps the last of two equal keys
            raise FormatError(f"{source}: repeated key {first_repeat(k for k, _ in pairs)!r}")
        return obj

    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{source}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer past Python's int-conversion digit limit
        raise FormatError(f"{source}: {str(exc).partition(';')[0]}") from exc
    except RecursionError:  # arrays or objects nested past the interpreter's recursion limit
        raise FormatError(f"{source}: JSON nested too deeply") from None


def _check_labels(value, path: str) -> None:
    """Check that `value` is a list of string labels, naming `path` if not."""
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise _fail(path, "expected a list of labels")


def _check_printable(source: str, fields: Iterable[tuple[str, Sequence[str]]]) -> None:
    """Refuse the first label of the `(field, labels)` pairs that is not
    printable (a newline, a tab, a NUL), naming ``<source>.<field>`` and the
    label by its repr: a report line could not hold it whole."""
    for field, labels in fields:
        for label in labels:
            if not label.isprintable():
                raise _fail(f"{source}.{field}", f"label {label!r} is not printable")


def _check_known(labels: Iterable[str], known, what: str, path: str) -> None:
    """Refuse the first of `labels` not in `known`, naming it, its kind `what` and `path`."""
    for label in labels:
        if label not in known:
            raise _fail(path, f"unknown {what} {label!r}")


def _refused(source: str, exc: OptiminError, fields: tuple[str, ...]) -> FormatError:
    """A class's refusal of what the file `source` gave it.  A message that
    starts at one of the file's `fields` (``prefs: ...``, ``utility['x']: ...``)
    names its path, ``<source>.<field>``; any other follows ``<source>: ``."""
    message = str(exc)
    return FormatError(f"{source}.{message}" if message.startswith(fields) else f"{source}: {message}")


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
    _check_labels(players, f"{source}.players")
    if not isinstance(strategies, list) or len(strategies) != len(players):
        raise _fail(f"{source}.strategies", f"expected {len(players)} strategy lists")
    for i, strats in enumerate(strategies):
        _check_labels(strats, f"{source}.strategies[{i}]")
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
    except ValueError as exc:  # a label fault, named at its field
        raise FormatError(f"{source}.{exc}") from exc


def dump_game(game: NormalFormGame) -> str:
    """The game's canonical text: the bytes of ``json.dumps(doc, indent=2)``
    and a newline.  The header's players and strategies lists are
    `json.dumps`'s own text, one level deeper, so their layout and escapes
    stay its own.  The payoff tensor is built from `str` joins, since `json`
    encodes through its pure-Python encoder whenever `indent` is set: ints go
    through `str` and ratios are quoted `json_ratio` strings."""
    return "".join(game_pieces(game))


def game_pieces(game: NormalFormGame) -> Iterator[str]:
    """The pieces `dump_game` joins, one at a time: each cell with the text
    before it, then the closing text.  A writer that takes them as they come
    holds no more than one cell of the document."""
    n, d = game.num_players, game._den
    columns = [map(str, column) if d == 1 else [_quoted(json_ratio(u, d)) for u in column] for column in game._num]
    # The entries along axis a are lists at depth a + 2 (the payoff tensor
    # itself is the list at depth 1), so the cells are lists at depth n + 1.
    heads, seps, tails = zip(*map(_list_marks, range(n + 2)))
    # The label lists open at depth 1, one level deeper than `json.dumps` puts them.
    players, strategies = (
        json.dumps(labels, indent=2).replace("\n", "\n  ") for labels in (game.players, game.strategies)
    )
    # Before a cell that starts k new entries along the last k axes, the
    # lists at depths n + 1 down to n - k + 1 close, one separator at depth
    # n - k follows, and the same lists open again.
    before = ["".join(tails[: n - k : -1]) + seps[n - k] + "".join(heads[n - k + 1 :]) for k in range(n)]
    # periods[k] cells make one entry along each of the last k axes.
    periods = [*reversed(game._strides), len(game._num[0])]
    cells = map(seps[n + 1].join, zip(*columns))
    opening = f'{{\n  "players": {players},\n  "strategies": {strategies},\n  "payoffs": '
    yield opening + "".join(heads[1:]) + next(cells)
    for c, cell in enumerate(cells, 1):
        k = 0
        while c % periods[k + 1] == 0:
            k += 1
        yield before[k] + cell
    yield "".join(tails[:0:-1]) + "\n}\n"


def _list_marks(depth: int) -> tuple[str, str, str]:
    """The opening, separating and closing text of a non-empty list that
    ``json.dumps(..., indent=2)`` opens at nesting depth `depth`."""
    inner = "\n" + "  " * (depth + 1)
    return "[" + inner, "," + inner, "\n" + "  " * depth + "]"


def _quoted(value) -> str:
    """The JSON text of a `json_ratio` value: an int bare, an "a/b" string quoted."""
    return f'"{value}"' if isinstance(value, str) else str(value)


# -- characteristic functions --------------------------------------------


# A coalition key as `_coalition_key` spells it: player numbers in plain
# decimal digits, without leading zeros, joined by commas.
_COALITION_KEY = re.compile(r"(?:0|[1-9][0-9]*)(?:,(?:0|[1-9][0-9]*))*")
# A refusal echoes a worth key of up to this many characters whole, and a
# longer one by that many of its first characters and its length.
_ECHOED_KEY_CHARS = 40


def _coalition_key(mask: int, n: int) -> str:
    return ",".join(str(i + 1) for i in range(n) if mask >> i & 1)


def _coalition_keys(n: int) -> dict[str, int]:
    """Each nonempty coalition's `_coalition_key`, mapped to its mask.

    Each player doubles the list, as `coop._coalition_sums` does: the masks
    holding player i are the masks below 1 << i with i added, and their keys
    are those masks' keys with i's number appended.
    """
    keys = [""]
    for i in range(n):
        player = f",{i + 1}"
        keys += [key + player for key in keys]
    return {key[1:]: mask for mask, key in enumerate(keys) if mask}


def parse_tu_game(text: str, source: str = "game") -> TUGame:
    """Read a TU game file.  A `worth` object keyed by exactly the canonical
    coalition keys of n, in any order, is mapped to masks through one key
    table (`_coalition_keys`); any other object, or a worth that does not
    read, goes through `_worths_by_mask`, which checks key by key and names
    the first field at fault."""
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
    # The table has 2^n - 1 keys, so it is built only for an object that size.
    if len(worth) == (1 << n) - 1:
        table = _coalition_keys(n)
        if worth.keys() == table.keys():
            try:
                return TUGame(n, {table[key]: value for key, value in worth.items()})
            except (FormatError, ResourceLimitError):
                pass  # a worth that does not read; the per-key checks name its field
    return TUGame(n, _worths_by_mask(worth, n, source))


def _worths_by_mask(worth: dict, n: int, source: str) -> dict[int, object]:
    """`worth` keyed by mask, checked key by key in file order; the first
    key or value at fault, or the first missing coalition, is refused with
    its path."""
    by_mask = {}
    for key, value in worth.items():
        head = key[:_ECHOED_KEY_CHARS]
        shown = repr(key) if head == key else f"{head!r}... ({len(key)} characters)"
        path = f"{source}.worth[{shown}]"
        # int() would also read "01,2" and " 1,+2" as {1, 2}; one spelling
        # per coalition keeps a second entry from overwriting the first.
        if not _COALITION_KEY.fullmatch(key):
            raise _fail(path, "coalition keys are comma-joined player numbers in plain digits")
        try:
            members = [int(tok) for tok in key.split(",")]
        except ValueError:  # a number past the interpreter's int-conversion digit limit
            raise _fail(path, f"player numbers must lie in 1..{n}") from None
        if members != sorted(members) or len(set(members)) != len(members):
            raise _fail(path, "coalition keys must list players sorted, once each")
        if members[0] < 1 or members[-1] > n:
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
    return by_mask


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
    _check_labels(side_a, f"{source}.A")
    _check_labels(side_b, f"{source}.B")
    if not isinstance(prefs, dict):
        raise _fail(f"{source}.prefs", "expected an object of preference lists")
    for person, ranking in prefs.items():
        _check_labels(ranking, f"{source}.prefs[{person!r}]")
    try:
        return MarriageProblem(side_a, side_b, prefs)
    except OptiminError as exc:
        raise _refused(source, exc, ("prefs:",)) from exc


def dump_marriage(problem: MarriageProblem) -> str:
    doc = {
        "A": list(problem.side_a),
        "B": list(problem.side_b),
        "prefs": {p: list(problem.prefs[p]) for p in problem.everyone()},
    }
    return json.dumps(doc, indent=2) + "\n"


# -- decision problems -----------------------------------------------------


# A decision file's fields; all but acts, states and utility may be left out.
_DECISION_FIELDS = (
    "acts", "states", "utility", "antagonist", "feasible_acts", "feasible_states", "oc_states", "oc_acts"
)


def parse_decision(text: str, source: str = "problem") -> tuple[DecisionProblem, OptimismConstraint]:
    doc = _load_json(text, source)
    acts = _require(doc, "acts", source)
    states = _require(doc, "states", source)
    utility = _require(doc, "utility", source)
    _check_known(doc, _DECISION_FIELDS, "field", source)
    _check_labels(acts, f"{source}.acts")
    _check_labels(states, f"{source}.states")
    check_size(len(acts), len(states), f"{source}: ")
    if not isinstance(utility, dict):
        raise _fail(f"{source}.utility", "expected an object of per-act state tables")

    for act, row in utility.items():
        path = f"{source}.utility[{act!r}]"
        if not isinstance(row, dict):
            raise _fail(path, "expected an object keyed by state")
        for state, value in row.items():  # checked here for the path; DecisionProblem reads them
            _rational_at(value, f"{path}[{state!r}]")
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
            _check_labels(labels, f"{source}.{field}[{key!r}]")

    try:
        problem = DecisionProblem(
            acts, states, utility, doc.get("feasible_acts"), doc.get("feasible_states"), antagonist
        )
    except OptiminError as exc:
        raise _refused(source, exc, ("utility[", "feasible_acts[", "feasible_states[")) from exc
    known = {"act": set(acts), "state": set(states)}

    def parse_oc(field: str, listed: str) -> dict:
        """The optimism lists of `field`, each a list of `listed` labels."""
        raw = doc.get(field, {})
        if not isinstance(raw, dict):
            raise _fail(f"{source}.{field}", "expected an object keyed by 'act,state'")
        out = {}
        for key, allowed in raw.items():
            path = f"{source}.{field}[{key!r}]"
            if key != "*":
                pair = tuple(key.split(","))
                if len(pair) != 2:
                    raise _fail(path, "keys look like 'act,state' or '*'")
                _check_known(pair[:1], known["act"], "act", path)
                _check_known(pair[1:], known["state"], "state", path)
                out[pair] = allowed
            _check_labels(allowed, path)
            _check_known(allowed, known[listed], listed, path)
        if "*" in raw:
            for profile in problem.feasible_pairs():
                out.setdefault(profile, raw["*"])
        return out

    return problem, OptimismConstraint(parse_oc("oc_states", "state"), parse_oc("oc_acts", "act"))


# -- path helpers ----------------------------------------------------------


def read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise FormatError(f"{path}: {exc.strerror or exc}") from exc


def write_text(path: str, pieces: Iterable[str]) -> None:
    """Write the pieces, one after another and as they come, to the file `path`."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
    except OSError as exc:
        raise FormatError(f"{path}: {exc.strerror or exc}") from exc


def load_game(path: str) -> NormalFormGame:
    game = parse_game(read_text(path), source=path)
    strategies = ((f"strategies[{i}]", s) for i, s in enumerate(game.strategies))
    _check_printable(path, [("players", game.players), *strategies])
    return game


def load_tu_game(path: str) -> TUGame:
    return parse_tu_game(read_text(path), source=path)


def load_marriage(path: str) -> MarriageProblem:
    problem = parse_marriage(read_text(path), source=path)
    _check_printable(path, [("A", problem.side_a), ("B", problem.side_b)])
    return problem


def load_decision(path: str) -> tuple[DecisionProblem, OptimismConstraint]:
    problem, constraint = parse_decision(read_text(path), source=path)
    _check_printable(path, [("acts", problem.acts), ("states", problem.states)])
    return problem, constraint
