"""Mutated input files end in a report or in one error line.

For each input kind (normal-form game, TU game, marriage problem, decision
problem) the fuzz test mutates valid documents (a node swapped for another
JSON value, a key dropped or added, an entry appended) and runs `cli.main` in
process on the result with every command that reads that kind.
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

LABELS = ("a1", "a2", "b1", "b2", "s1", "s2", "act1", "act2", "*", "1", "1,2", "act1,s1", "x")
LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-3, 12)
    | st.sampled_from([0.5, -1e300, float("inf"), float("nan")])
    | st.sampled_from(LABELS + ("1/2", "-3/4", "0.25", "1e3", "1/0", ""))
    | st.text(max_size=4)
)
KEYS = st.sampled_from(LABELS + ("n", "worth", "prefs", "oc_states", "oc_acts")) | st.text(max_size=3)
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
    doc_path.write_text(json.dumps(data.draw(mutated(docs))))
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
