import json
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optimin import Constraint, FormatError, NormalFormGame, OptiminError, ResourceLimitError, gen_named
from optimin.decisions import DECISION_MAX_CELLS
from optimin.rational import (
    RATIONAL_MAX_DIGITS,
    RATIONAL_MAX_EXPONENT,
    literal_ratio,
    over_common_denominator,
    to_fraction,
)
from optimin.fileio import (
    dump_game,
    dump_marriage,
    dump_tu_game,
    parse_decision,
    parse_game,
    parse_marriage,
    parse_tu_game,
)

GAME_DOC = {
    "players": ["row", "column"],
    "strategies": [["a", "b"], ["x", "y"]],
    "payoffs": [[[1, "1/2"], [0, 3]], [[2, 2], ["-7/3", 1]]],
}


class TestGameFormat:
    def test_parse_rationals(self):
        g = parse_game(json.dumps(GAME_DOC))
        assert g.payoff((0, 0)) == (F(1), F(1, 2))
        assert g.payoff((1, 0)) == (F(2), F(2))
        assert g.payoff((1, 1))[0] == F(-7, 3)

    def test_round_trip(self):
        g = parse_game(json.dumps(GAME_DOC))
        assert parse_game(dump_game(g)) == g

    def test_missing_field_diagnostic(self):
        with pytest.raises(FormatError, match="players"):
            parse_game(json.dumps({"strategies": [], "payoffs": []}))

    def test_bad_tensor_path_diagnostic(self):
        doc = dict(GAME_DOC)
        doc["payoffs"] = [[[1, 2], [0, 3, 9]], [[2, 2], [1, 1]]]
        with pytest.raises(FormatError, match=r"payoffs\[0\]\[1\]"):
            parse_game(json.dumps(doc))

    def test_bad_rational_diagnostic(self):
        doc = dict(GAME_DOC)
        doc["payoffs"] = [[[1, "x/y"], [0, 3]], [[2, 2], [1, 1]]]
        with pytest.raises(FormatError, match=r"payoffs\[0\]\[0\]\[1\]"):
            parse_game(json.dumps(doc))

    def test_tensor_errors_at_every_depth(self):
        # 3 players, 2 strategies each: depths 0-2 hold entries, depth 3 is a cell.
        def faulty(path, value):
            payoffs = [[[[1, 2, 3] for _ in range(2)] for _ in range(2)] for _ in range(2)]
            node = payoffs
            for k in path[:-1]:
                node = node[k]
            if path:
                node[path[-1]] = value
            else:
                payoffs = value
            return payoffs

        three_by_two = [["a", "b"]] * 3
        cases = [
            ((), "x", ": expected 2 entries"),
            ((), [[]] * 3, ": expected 2 entries"),
            ((1,), {}, "[1]: expected 2 entries"),
            ((1,), [[]], "[1]: expected 2 entries"),
            ((1, 1), 7, "[1][1]: expected 2 entries"),
            ((1, 1), [[1, 2, 3]] * 3, "[1][1]: expected 2 entries"),
            ((1, 1, 1), None, "[1][1][1]: expected 3 payoffs"),
            ((1, 1, 1), [1, 2], "[1][1][1]: expected 3 payoffs"),
            ((1, 1, 1, 2), "x/y", "[1][1][1][2]: not a rational number: 'x/y'"),
            ((1, 1, 1, 2), True, "[1][1][1][2]: expected a rational number, got boolean True"),
            ((1, 1, 1, 2), 0.5, "[1][1][1][2]: expected a rational number, got float"),
        ]
        for path, value, message in cases:
            doc = {"players": ["p", "q", "r"], "strategies": three_by_two, "payoffs": faulty(path, value)}
            with pytest.raises(FormatError) as info:
                parse_game(json.dumps(doc), source="g.json")
            assert str(info.value) == "g.json.payoffs" + message
            # The constructor names the same node.
            with pytest.raises((ValueError, FormatError)) as info:
                NormalFormGame(doc["players"], three_by_two, doc["payoffs"])
            if len(path) == 4:
                assert str(info.value) == message.partition(": ")[2]
            else:
                assert str(info.value) == "payoffs" + message.replace("3 payoffs", "3 payoffs per cell")
        # The first fault in depth-first order is named, whatever its kind.
        payoffs = faulty((1,), [[]])
        payoffs[0][1][0][2] = "1/0"
        doc = {"players": ["p", "q", "r"], "strategies": three_by_two, "payoffs": payoffs}
        with pytest.raises(FormatError) as info:
            parse_game(json.dumps(doc), source="g.json")
        assert str(info.value) == "g.json.payoffs[0][1][0][2]: not a rational number: '1/0'"

    def test_json_syntax_error_reports_line(self):
        with pytest.raises(FormatError, match="line"):
            parse_game("{\n  broken")


class TestTUFormat:
    def test_documented_example(self):
        doc = {
            "n": 3,
            "worth": {
                "1": 35, "2": 30, "3": 25,
                "1,2": 90, "1,3": 80, "2,3": 70,
                "1,2,3": 110,
            },
        }
        g = parse_tu_game(json.dumps(doc))
        assert g == gen_named("coop_empty_core")

    def test_missing_coalition_rejected(self):
        doc = {"n": 2, "worth": {"1": 1, "1,2": 3}}
        with pytest.raises(FormatError, match="mandatory"):
            parse_tu_game(json.dumps(doc))

    def test_unsorted_key_rejected(self):
        doc = {"n": 2, "worth": {"1": 1, "2": 1, "2,1": 3}}
        with pytest.raises(FormatError, match="sorted"):
            parse_tu_game(json.dumps(doc))

    def test_round_trip(self):
        g = gen_named("coop_120")
        assert parse_tu_game(dump_tu_game(g)) == g
        assert dump_tu_game(parse_tu_game(dump_tu_game(g))) == dump_tu_game(g)

    def test_completeness_bound(self):
        import tracemalloc

        # 2**40 - 1 coalitions are mandatory; the count alone refuses the file.
        text = json.dumps({"n": 40, "worth": {"1": 1}})
        tracemalloc.start()
        try:
            with pytest.raises(FormatError) as info:
                parse_tu_game(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # refused before any per-coalition list exists
        message = str(info.value)
        assert f"all {2**40 - 1} coalitions are mandatory" in message
        assert f"missing '2' and {2**40 - 3} more" in message
        # the first missing coalition is named, wherever it lies
        doc = {"n": 3, "worth": {"1": 1, "2": 1, "1,2": 2, "3": 0, "2,3": 1, "1,2,3": 4}}
        with pytest.raises(FormatError, match="missing '1,3'$"):
            parse_tu_game(json.dumps(doc))
        doc["worth"]["1,3"] = 1
        assert parse_tu_game(json.dumps(doc)).worth(0b101) == 1


class TestMarriageFormat:
    DOC = {
        "A": ["a1", "a2"],
        "B": ["b1", "b2"],
        "prefs": {
            "a1": ["b2", "b1", "a1"],
            "a2": ["b1", "b2", "a2"],
            "b1": ["a1", "a2", "b1"],
            "b2": ["a2", "a1", "b2"],
        },
    }

    def test_parse_and_round_trip(self):
        problem = parse_marriage(json.dumps(self.DOC))
        assert problem.side_a == ("a1", "a2")
        assert parse_marriage(dump_marriage(problem)).prefs == problem.prefs

    def test_unequal_sides_rejected(self):
        doc = dict(self.DOC, B=["b1"])
        with pytest.raises(FormatError, match="equal size"):
            parse_marriage(json.dumps(doc))

    def test_missing_pref_list_rejected(self):
        doc = dict(self.DOC, prefs={k: v for k, v in self.DOC["prefs"].items() if k != "b2"})
        with pytest.raises(FormatError, match="b2"):
            parse_marriage(json.dumps(doc))


class TestDecisionFormat:
    DOC = {
        "acts": ["buy", "rent"],
        "states": ["keep", "fired"],
        "utility": {
            "buy": {"keep": 10, "fired": -10},
            "rent": {"keep": 2, "fired": 1},
        },
        "oc_states": {
            "buy,keep": ["keep"],
            "buy,fired": ["keep"],
            "*": ["keep", "fired"],
        },
    }

    def test_parse_with_wildcard(self):
        problem, oc = parse_decision(json.dumps(self.DOC))
        assert problem.acts == ("buy", "rent")
        assert oc.states_for(problem, ("buy", "keep")) == ("keep",)
        assert oc.states_for(problem, ("rent", "keep")) == ("keep", "fired")

    def test_feasibility_lists(self):
        doc = dict(self.DOC)
        doc = json.loads(json.dumps(doc))
        doc["feasible_states"] = {"buy": ["keep"], "rent": ["keep", "fired"]}
        doc["utility"] = {"buy": {"keep": 10}, "rent": {"keep": 2, "fired": 1}}
        del doc["oc_states"]
        problem, oc = parse_decision(json.dumps(doc))
        assert problem.feasible_pairs() == [
            ("buy", "keep"), ("rent", "keep"), ("rent", "fired")
        ]

    def test_missing_utility_rejected(self):
        doc = json.loads(json.dumps(self.DOC))
        del doc["utility"]["rent"]["fired"]
        with pytest.raises(FormatError, match="rent"):
            parse_decision(json.dumps(doc))

    @pytest.mark.parametrize("flag", ["false", "true", 0, 1, None])
    def test_antagonist_must_be_a_boolean(self, flag):
        doc = dict(self.DOC, antagonist=flag)
        with pytest.raises(FormatError) as info:
            parse_decision(json.dumps(doc), source="d.json")
        assert str(info.value) == "d.json.antagonist: expected a boolean"
        for flag in (True, False):
            problem, _ = parse_decision(json.dumps(dict(self.DOC, antagonist=flag)))
            assert problem.antagonist is flag

    @pytest.mark.parametrize("field", ["feasible_acts", "feasible_states"])
    def test_feasibility_maps_must_be_objects_of_label_lists(self, field):
        cases = [
            (["keep"], f"d.json.{field}: expected an object of label lists"),
            ("keep", f"d.json.{field}: expected an object of label lists"),
            ({"keep": "buy"}, f"d.json.{field}['keep']: expected a list of labels"),
            ({"buy": {"keep": 1}}, f"d.json.{field}['buy']: expected a list of labels"),
        ]
        for table, message in cases:
            doc = dict(self.DOC, **{field: table})
            with pytest.raises(FormatError) as info:
                parse_decision(json.dumps(doc), source="d.json")
            assert str(info.value) == message
        # null reads as absent: every pair stays feasible
        problem, _ = parse_decision(json.dumps(dict(self.DOC, **{field: None})))
        assert len(problem.feasible_pairs()) == 4

    def test_cell_bound_before_any_utility_is_read(self):
        # Every utility is malformed, so reading any one would raise FormatError.
        def doc(num_acts, num_states):
            acts = [f"a{k}" for k in range(num_acts)]
            states = [f"s{k}" for k in range(num_states)]
            utility = {a: {s: "not a number" for s in states} for a in acts}
            return json.dumps({"acts": acts, "states": states, "utility": utility})

        with pytest.raises(ResourceLimitError) as info:
            parse_decision(doc(65, 64), source="big.json")
        assert not isinstance(info.value, FormatError)
        assert str(info.value) == (
            "big.json: decision problem of 65 acts x 64 states (4160 cells) exceeds "
            f"the {DECISION_MAX_CELLS}-cell bound (DECISION_MAX_CELLS)"
        )
        # At the bound the utilities are read, and the first one is refused.
        with pytest.raises(FormatError, match=r"big\.json\.utility\['a0'\]\['s0'\]"):
            parse_decision(doc(64, 64), source="big.json")


class TestRationalLiteralBound:
    def test_literal_bound(self):
        import tracemalloc

        from optimin import ResourceLimitError
        from optimin.rational import RATIONAL_MAX_DIGITS, RATIONAL_MAX_EXPONENT, to_fraction

        doc = dict(GAME_DOC, payoffs=[[[1, "1e1000000000"], [0, 3]], [[2, 2], [0, 1]]])
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError) as info:
                parse_game(json.dumps(doc))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # refused before the integer exists
        message = str(info.value)
        assert str(RATIONAL_MAX_EXPONENT) in message
        assert "1000000000" in message
        assert "RATIONAL_MAX_EXPONENT" in message
        # the exponent bound, from either side
        assert to_fraction(f"1e{RATIONAL_MAX_EXPONENT}") == 10**RATIONAL_MAX_EXPONENT
        assert to_fraction(f"1e-{RATIONAL_MAX_EXPONENT}") == F(1, 10**RATIONAL_MAX_EXPONENT)
        for past in (f"1e{RATIONAL_MAX_EXPONENT + 1}", f"-2.5E-{RATIONAL_MAX_EXPONENT + 1}"):
            with pytest.raises(ResourceLimitError):
                to_fraction(past)
        # the digit bound, counted over numerator and denominator together
        at = "7" * (RATIONAL_MAX_DIGITS // 2) + "/" + "3" * (RATIONAL_MAX_DIGITS // 2)
        assert to_fraction(at) == F(int(at.split("/")[0]), int(at.split("/")[1]))
        with pytest.raises(ResourceLimitError) as info:
            to_fraction(at + "3")
        message = str(info.value)
        assert f"{RATIONAL_MAX_DIGITS + 1} digits" in message
        assert str(RATIONAL_MAX_DIGITS) in message
        assert "RATIONAL_MAX_DIGITS" in message


def _literal_outcome(read, value):
    try:
        return read(value)
    except OptiminError as exc:
        return type(exc)


def _texts():
    """Rational literals and near misses: signs, leading zeros, ASCII and
    non-ASCII digits, underscores, fractions, decimals, exponents at and past
    RATIONAL_MAX_EXPONENT, surrounding whitespace, and digit runs at and past
    RATIONAL_MAX_DIGITS."""
    space = st.sampled_from(["", " ", "\t", "\n"])
    digits = st.text(alphabet="0123456789_٣５", max_size=6)
    exponents = st.integers(0, 4) | st.integers(RATIONAL_MAX_EXPONENT - 1, RATIONAL_MAX_EXPONENT + 1)
    literal = st.builds(
        "".join,
        st.tuples(
            space,
            st.sampled_from(["", "-", "+", "--"]),
            st.sampled_from(["", "0", "00"]),
            digits,
            st.sampled_from(["", "/", "."]).flatmap(
                lambda mark: st.just("") if not mark else digits.map(lambda d: mark + d)
            ),
            st.just("") | st.builds("e{}{}".format, st.sampled_from(["", "-", "+"]), exponents),
            space,
        ),
    )
    half = RATIONAL_MAX_DIGITS // 2
    long_runs = st.builds(
        lambda sign, a, b: sign + "7" * a + "/" + "3" * b,
        st.sampled_from(["", "-"]),
        st.integers(half - 1, half + 1),
        st.integers(half - 1, half + 1),
    ) | st.builds(lambda k: "9" * k, st.integers(RATIONAL_MAX_DIGITS - 1, RATIONAL_MAX_DIGITS + 1))
    ascii_digits = st.text(alphabet="0123456789", min_size=1, max_size=8)
    plain = st.builds(
        "{}{}{}".format,
        st.sampled_from(["", "-"]),
        ascii_digits,
        st.just("") | ascii_digits.map("/".__add__),
    )
    # Near misses of the plain form: a space after the sign, stray underscores.
    near_plain = st.from_regex(r"[ \t]?[-+]?[ ]?[0-9_٣]{1,5}(?:/[0-9_]{0,3})?[ \n]?", fullmatch=True)
    return (
        plain
        | near_plain
        | literal
        | long_runs
        | st.sampled_from(["1/0", "-0/7", "0/0", "/", "1/-2"])
        | st.text(max_size=8)
    )


@settings(max_examples=1000, deadline=None)
@given(
    _texts()
    | st.integers()
    | st.booleans()
    | st.floats()
    | st.none()
    | st.fractions()
)
def test_literal_ratio_matches_fraction(value):
    # The reader's (num, den) is to_fraction's, or it raises the same error type;
    # a string within the bounds reads as Fraction reads it.
    got = _literal_outcome(literal_ratio, value)
    assert got == _literal_outcome(lambda v: to_fraction(v).as_integer_ratio(), value)
    if isinstance(got, tuple) and isinstance(value, str):
        assert got == F(value).as_integer_ratio()


# 5 000 nines, past Python's default int-conversion limit of 4 300 digits, so
# `json.loads` itself refuses the number before any parser sees it.
LONG_INTEGER = "9" * 5000


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_game, '{"players": ["a"], "strategies": [["x"]], "payoffs": [[%s]]}' % LONG_INTEGER),
        (parse_tu_game, '{"n": 1, "worth": {"1": %s}}' % LONG_INTEGER),
    ],
    ids=["game", "tu"],
)
def test_overlong_json_integer_is_a_format_error(parse, text):
    with pytest.raises(FormatError) as info:
        parse(text, source="f.json")
    message = str(info.value)
    assert message.startswith("f.json: ") and "5000 digits" in message


class TestTUPlayerCount:
    def test_boolean_player_count_refused(self):
        with pytest.raises(FormatError, match=r"^t\.json\.n: expected a positive integer$"):
            parse_tu_game('{"n": true, "worth": {"1": 1}}', source="t.json")

    def test_player_count_checked_before_any_shift(self):
        import tracemalloc

        text = json.dumps({"n": 1 << 24, "worth": {"1": 1, "16777216": 2}})
        tracemalloc.start()
        try:
            with pytest.raises(FormatError) as info:
                parse_tu_game(text, source="t.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert str(info.value) == (
            "t.json.n: a 16777216-player game needs 2^16777216 - 1 worths, "
            "more than any mapping holds; got 2"
        )


# Nested past the interpreter's recursion limit, which json.loads runs into.
DEEP_JSON = {"arrays": "[" * 100_000 + "]" * 100_000, "objects": '{"a":' * 100_000 + "1" + "}" * 100_000}


@pytest.mark.parametrize("parse", [parse_game, parse_tu_game, parse_marriage, parse_decision])
@pytest.mark.parametrize("text", DEEP_JSON.values(), ids=DEEP_JSON)
def test_deeply_nested_json_is_a_format_error(parse, text):
    with pytest.raises(FormatError, match=r"^deep\.json: JSON nested too deeply$"):
        parse(text, source="deep.json")


_READABLE = st.integers(-(10**30), 10**30) | st.fractions() | _texts()


@settings(max_examples=500, deadline=None)
@given(st.lists(_READABLE | st.booleans() | st.floats() | st.none(), max_size=25))
def test_over_common_denominator_matches_its_definition(values):
    # Every value read as a Fraction, and the ints over the lcm of the reduced
    # denominators; or the error literal_ratio raises on the first value it refuses.
    errors = [_literal_outcome(literal_ratio, v) for v in values]
    refused = next((e for e in errors if isinstance(e, type)), None)
    if refused is not None:
        with pytest.raises(refused):
            over_common_denominator(values)
        return
    exact = [to_fraction(v) for v in values]
    d = math.lcm(*(x.denominator for x in exact))
    assert over_common_denominator(values) == ([int(x * d) for x in exact], d)
    assert over_common_denominator(iter(values)) == over_common_denominator(values)


def test_readers_build_no_fraction_for_int_or_plain_literals(count_fractions):
    game = json.dumps(GAME_DOC)
    tu = json.dumps({"n": 2, "worth": {"1": 1, "2": "-1/2", "1,2": "7/3"}})
    decision = json.dumps(
        {"acts": ["a", "b"], "states": ["s", "t"],
         "utility": {"a": {"s": 1, "t": "-5/6"}, "b": {"s": "4/3", "t": 0}}}
    )
    with count_fractions() as built:
        parse_game(game)
        parse_tu_game(tu)
        parse_decision(decision)
        Constraint([1, "1/2", "-3/4"], "<=", "7/3")
    assert built == []
