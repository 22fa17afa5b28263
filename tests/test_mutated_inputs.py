"""Mutated input files end in a report or in one error line.

For each input kind (normal-form game, TU game, marriage problem, decision
problem) the fuzz test mutates valid documents (a node swapped for another
JSON value, a key dropped or added, an entry appended) and runs `cli.main` in
process on the result with every command that reads that kind.  The values
include edge values: labels holding control or separator characters, ints
of 4 299 to 4 301 digits (the interpreter reads and writes at most 4 300 by
default) and literal strings of `RATIONAL_MAX_DIGITS` ± 1 digits.  A second
test puts them at the documents' leaves, so they land in label, payoff and
worth positions.
Each run must end one of two ways: a report on stdout with exit 0, or exit 1
with exactly one ``error:`` line on stderr and nothing on stdout.  Any other
exception fails the test.  A last test feeds arbitrary strings to the flags
that parse their own values.

The examples are derandomized, so a tier-1 run sees the same few hundred
files every time; raise `max_examples` for a wider search.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from optimin.cli import main
from optimin.errors import RATIONAL_MAX_DIGITS

LABELS = ("a1", "a2", "b1", "b2", "s1", "s2", "act1", "act2", "*", "1", "1,2", "act1,s1", "x")
# Labels that a report line could not hold whole.
CONTROL_LABELS = ("Def\nect", "a\t1", "s\x001", "x\u2028y")
# Literals too long for `json.dumps` to write, or long enough to slow every
# run: each is drawn as its placeholder string, and `dump` writes the literal
# in the placeholder's place.
HUGE = {
    **{f"@int{d}": "9" * d for d in (4299, 4300, 4301)},
    **{f"@-int{d}": "-" + "9" * d for d in (4299, 4300, 4301)},
    **{f"@str{d}": f'"{"7" * d}"' for d in (RATIONAL_MAX_DIGITS - 1, RATIONAL_MAX_DIGITS + 1)},
    **{f"@ratio{d}": f'"-{"7" * (d - 1)}/2"' for d in (RATIONAL_MAX_DIGITS, RATIONAL_MAX_DIGITS + 1)},
}
EDGES = st.sampled_from(CONTROL_LABELS + tuple(HUGE))
LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-3, 12)
    | st.sampled_from([0.5, -1e300, float("inf"), float("nan")])
    | st.sampled_from(LABELS + ("1/2", "-3/4", "0.25", "1e3", "1/0", ""))
    | st.text(max_size=4)
    | EDGES
)
KEYS = st.sampled_from(LABELS + CONTROL_LABELS + ("n", "worth", "prefs", "oc_states", "oc_acts")) | st.text(max_size=3)
VALUES = st.recursive(
    LEAVES, lambda kids: st.lists(kids, max_size=3) | st.dictionaries(KEYS, kids, max_size=3), max_leaves=6
)

GAMES = [
    {  # zero-sum, with rational payoffs
        "players": ["row", "column"],
        "strategies": [["U", "D"], ["L", "C", "R"]],
        "payoffs": [[[1, -1], ["-1/2", "1/2"], [0, 0]], [[-2, 2], [3, -3], ["1/3", "-1/3"]]],
    },
    {
        "players": ["p1", "p2", "p3"],
        "strategies": [["x", "y"], ["x"], ["x", "y"]],
        "payoffs": [[[[1, 0, 2], [0, 1, 1]]], [[[2, 2, 0], ["1/2", 0, 3]]]],
    },
]
GAME_COMMANDS = [
    ["optimin", "--pure"],
    ["optimin", "--mixed-grid", "2"],
    ["value"],
    ["value", "--profile", "U,L"],
    ["nash"],
    ["maximin"],
    ["zerosum", "solve"],
]
TU_GAMES = [
    {"n": 3, "worth": {"1": 1, "2": 0, "3": "1/2", "1,2": 3, "1,3": 2, "2,3": 2, "1,2,3": 6}},
    {"n": 2, "worth": {"1": 0, "2": 1, "1,2": 4}},
]
TU_COMMANDS = [
    ["coop", "core"],
    ["coop", "shapley"],
    ["coop", "nucleolus"],
    ["coop", "optimin"],
    ["coop", "optimin", "--step", "1/2", "--floor", "-1"],
    ["coop", "value", "--alloc", "2,2,2"],
]
MARRIAGES = [
    {
        "A": ["a1", "a2"],
        "B": ["b1", "b2"],
        "prefs": {
            "a1": ["b2", "b1", "a1"],
            "a2": ["b1", "a2", "b2"],
            "b1": ["a1", "a2", "b1"],
            "b2": ["a2", "b2", "a1"],
        },
    },
]
MATCH_COMMANDS = [
    ["match", "da"],
    ["match", "da", "--propose", "B"],
    ["match", "stable", "--matching", "a1=b1,a2=b2"],
    ["match", "optimin"],
    ["match", "value", "--matching", "a1=b2"],
    ["match", "deviations", "--matching", "a1=b1"],
]
DECISIONS = [
    {
        "acts": ["act1", "act2"],
        "states": ["s1", "s2"],
        "utility": {"act1": {"s1": 4, "s2": "-1/2"}, "act2": {"s1": 1, "s2": 1}},
        "feasible_states": {"act1": ["s1", "s2"], "act2": ["s1", "s2"]},
        "oc_states": {"act1,s1": ["s1"], "*": ["s1", "s2"]},
        "oc_acts": {"act2,s2": ["act2"], "*": ["act1", "act2"]},
        "antagonist": True,
    },
    {
        "acts": ["act1", "act2"],
        "states": ["s1", "s2"],
        "utility": {"act1": {"s1": 4}, "act2": {"s1": 1, "s2": "3/2"}},
        "feasible_acts": {"s1": ["act1", "act2"], "s2": ["act2"]},
    },
]
DECIDE_COMMANDS = [["decide", "solve"], ["decide", "check"]]


def nodes(doc, path=()):
    """Every (path, node) of a JSON document, the root first."""
    yield path, doc
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, child in children:
        yield from nodes(child, path + (key,))


def replaced(doc, path, new):
    """A copy of `doc` with the node at `path` replaced by `new`."""
    if not path:
        return new
    out = dict(doc) if isinstance(doc, dict) else list(doc)
    out[path[0]] = replaced(doc[path[0]], path[1:], new)
    return out


@st.composite
def mutated(draw, docs):
    doc = draw(st.sampled_from(docs))
    for _ in range(draw(st.integers(1, 3))):
        path, node = draw(st.sampled_from(list(nodes(doc))))
        if isinstance(node, dict):
            kind = draw(st.sampled_from(["swap", "drop", "add"] if node else ["swap", "add"]))
        else:
            kind = draw(st.sampled_from(["swap", "append"] if isinstance(node, list) else ["swap"]))
        if kind == "swap":
            new = draw(VALUES)
        elif kind == "drop":
            key = draw(st.sampled_from(sorted(node)))
            new = {k: v for k, v in node.items() if k != key}
        elif kind == "add":
            new = {**node, draw(KEYS): draw(VALUES)}
        else:  # a copy of an entry, or any value
            new = node + [draw(st.sampled_from(node) | VALUES if node else VALUES)]
        doc = replaced(doc, path, new)
    return doc


@st.composite
def edged(draw, docs):
    """A document with one to three of its leaves, each a label or a
    literal, replaced by an edge value."""
    doc = draw(st.sampled_from(docs))
    for _ in range(draw(st.integers(1, 3))):
        leaves = [path for path, node in nodes(doc) if not isinstance(node, (dict, list))]
        doc = replaced(doc, draw(st.sampled_from(leaves)), draw(EDGES))
    return doc


def dump(doc) -> str:
    """`doc` as JSON text, with each `HUGE` placeholder replaced by its literal."""
    text = json.dumps(doc)
    for placeholder, literal in HUGE.items():
        text = text.replace(f'"{placeholder}"', literal)
    return text


def check_outcome(argv):
    """Run the CLI on `argv`: a report and exit 0, or one error line and exit 1."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        assert out and not err, argv
    else:
        assert (code, out) == (1, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), (argv, err)


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated") / "doc.json"


FUZZ = settings(
    max_examples=250, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow]
)


KINDS = {
    "game": (GAMES, GAME_COMMANDS),
    "tu": (TU_GAMES, TU_COMMANDS),
    "marriage": (MARRIAGES, MATCH_COMMANDS),
    "decision": (DECISIONS, DECIDE_COMMANDS),
}


@pytest.mark.parametrize("kind", KINDS)
def test_the_first_document_gives_every_report(doc_path, kind):
    # So the mutations start from input that every command reads.
    docs, commands = KINDS[kind]
    doc_path.write_text(json.dumps(docs[0]))
    for command in commands:
        assert main([*command, "--game", str(doc_path), "--format", "json"]) == 0, command


@pytest.mark.parametrize("kind", KINDS)
@FUZZ
@given(data=st.data())
def test_mutated_documents(doc_path, kind, data):
    docs, commands = KINDS[kind]
    doc_path.write_text(dump(data.draw(mutated(docs))))
    for command in commands:
        check_outcome([*command, "--game", str(doc_path)])


@pytest.mark.parametrize("kind", KINDS)
@FUZZ
@given(data=st.data())
def test_edge_values_at_the_leaves(doc_path, kind, data):
    docs, commands = KINDS[kind]
    doc_path.write_text(dump(data.draw(edged(docs))))
    for command in commands:
        check_outcome([*command, "--game", str(doc_path)])


FLAG_TEXT = st.text(alphabet="0123456789-+/.,=e abUDLCR", max_size=8) | st.text(max_size=6)


@FUZZ
@given(
    command=st.sampled_from(
        [
            ["value", "--game", "figure1", "--profile"],
            ["coop", "value", "--game", "coop_empty_core", "--alloc"],
            ["coop", "optimin", "--game", "coop_empty_core", "--step"],
            ["coop", "optimin", "--game", "coop_empty_core", "--step", "10", "--floor"],
        ]
    ),
    text=FLAG_TEXT,
)
def test_flag_strings(command, text):
    check_outcome([*command[:-1], f"{command[-1]}={text}"])


# Regression tests for the failures the edge values found: each run crashed.


def run_on(doc_path, doc, command):
    doc_path.write_text(dump(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*command, "--game", str(doc_path)])
    return code, out.getvalue(), err.getvalue()


def test_a_quotient_past_float_range_is_written_without_a_hint(doc_path):
    game = json.loads(json.dumps(GAMES[0]))
    game["payoffs"][0][1] = ["@ratio1000", 0]
    code, out, err = run_on(doc_path, game, ["value"])
    assert (code, err) == (0, "")
    assert f"  (U, C)  (-{'7' * 999}/2, -3)\n" in out


def test_a_value_past_the_int_to_text_limit_is_refused(doc_path):
    tu = json.loads(json.dumps(TU_GAMES[0]))
    tu["worth"]["1"] = "@int4300"  # player 1's Shapley value sums it with more
    for fmt in ("table", "json"):
        code, out, err = run_on(doc_path, tu, ["coop", "shapley", "--format", fmt])
        assert (code, out, err) == (
            1, "", "error: a value's decimal text exceeds the 4300-digit bound (sys.get_int_max_str_digits())\n"
        )


@pytest.mark.parametrize("player1, command", [
    ("@int4300", ["coop", "optimin", "--step", "1/2", "--floor", "-1"]),  # a ratio `json_ratio` writes
    ("@-int4300", ["coop", "optimin"]),  # an int `json.dumps` writes
])
def test_a_json_value_past_the_int_to_text_limit_is_refused(doc_path, player1, command):
    # `coop optimin --format json` writes its values without table lines.
    tu = json.loads(json.dumps(TU_GAMES[0]))
    tu["worth"]["1"], tu["worth"]["2"], tu["worth"]["1,3"] = player1, "@int4300", "@-int4300"
    code, out, err = run_on(doc_path, tu, [*command, "--format", "json"])
    assert (code, out, err) == (
        1, "", "error: a value's decimal text exceeds the 4300-digit bound (sys.get_int_max_str_digits())\n"
    )


def test_a_lattice_count_past_the_int_to_text_limit_is_named_by_its_power_of_ten(doc_path):
    tu = json.loads(json.dumps(TU_GAMES[0]))
    tu["worth"]["1"] = "@-int4299"
    code, out, err = run_on(doc_path, tu, ["coop", "optimin"])
    assert (code, out) == (1, "")
    assert err == (
        "error: imputation grid of about 10^8598 points exceeds the 5000-point bound"
        " (IMPUTATION_GRID_MAX_POINTS); raise --step\n"
    )
