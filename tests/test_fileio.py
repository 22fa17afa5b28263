import json
from fractions import Fraction as F

import pytest

from optimin import FormatError, gen_named
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
