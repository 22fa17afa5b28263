"""What a CLI call imports, and the result records that keep it small.

Every CLI call runs in its own process and imports the whole package, so
the package imports neither `dataclasses` nor `inspect`, and defines no
class whose methods are generated at import: its result records are
`NamedTuple`s or plain `__slots__` classes.  The records keep the keyword
constructors, `==`, `hash`, `repr` text and truth values that the frozen
dataclasses they replaced had.
"""

import inspect
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

from optimin.coop import CoopOptimin, CoreResult, DeviationSet
from optimin.decisions import DecisionOptimin, DecisionValue, ReductionCheck
from optimin.games import NormalFormGame
from optimin.generators import FAMILIES, SweepResult, SweepRow
from optimin.lp import LPSolution
from optimin.matching import GroupDeviation, MatchOutcomeValue, StabilityReport
from optimin.noncoop import BetterResponseSet, DeviationSpace, EvaluatedProfile, GridOptimin, PlayerMaximin
from optimin.zerosum import MaximinSolution, StatisticalGame, bulmer_game


def test_a_cli_sweep_imports_neither_dataclasses_nor_inspect():
    argv = ["sweep", "--family", "travelers", "--param", "r", "--from", "5/2", "--to", "5/2", "--high", "12"]
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from optimin import cli\n"
        f"code = cli.main({argv!r})\n"
        "print(code, *sorted(set(sys.modules) - before))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=os.environ, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    code, *new = proc.stdout.splitlines()[-1].split()
    assert code == "0" and "optimin.cli" in new
    assert {"dataclasses", "inspect"} & set(new) == set()


# (record type, its fields by keyword in field order, the repr the frozen
# dataclass printed for them).
RECORDS = [
    (
        DeviationSet, dict(player=1, allocation=(F(1, 2), F(1, 2)), coalitions=(1, 5)),
        "DeviationSet(player=1, allocation=(Fraction(1, 2), Fraction(1, 2)), coalitions=(1, 5))",
    ),
    (
        CoopOptimin, dict(step=F(1, 4), entries=(((F(1), F(0)), (F(1), F(0))),), kind="grid-approximate"),
        "CoopOptimin(step=Fraction(1, 4), entries=(((Fraction(1, 1), Fraction(0, 1)),"
        " (Fraction(1, 1), Fraction(0, 1))),), kind='grid-approximate')",
    ),
    (
        CoreResult, dict(empty=False, witness=(F(1), F(2))),
        "CoreResult(empty=False, witness=(Fraction(1, 1), Fraction(2, 1)))",
    ),
    (DecisionValue, dict(dm=F(3), nature=None), "DecisionValue(dm=Fraction(3, 1), nature=None)"),
    (
        DecisionOptimin, dict(ranking="pareto", profiles=(("buy", "keep"),), values=(DecisionValue(F(3), F(-1)),)),
        "DecisionOptimin(ranking='pareto', profiles=(('buy', 'keep'),),"
        " values=(DecisionValue(dm=Fraction(3, 1), nature=Fraction(-1, 1)),))",
    ),
    (
        ReductionCheck,
        dict(constant_constraint=True, dm_only_comparison=False, hypotheses_hold=False, verified=None, notes=("n",)),
        "ReductionCheck(constant_constraint=True, dm_only_comparison=False, hypotheses_hold=False,"
        " verified=None, notes=('n',))",
    ),
    (
        SweepRow, dict(parameter=F(5, 2), optimin=(("12", "12"),), nash=(("2", "2"),)),
        "SweepRow(parameter=Fraction(5, 2), optimin=(('12', '12'),), nash=(('2', '2'),))",
    ),
    (
        SweepResult, dict(family="travelers", parameter="r", rows=(), threshold=None),
        "SweepResult(family='travelers', parameter='r', rows=(), threshold=None)",
    ),
    (
        StabilityReport, dict(stable=False, blocking_individual=None, blocking_pair=("a1", "b2")),
        "StabilityReport(stable=False, blocking_individual=None, blocking_pair=('a1', 'b2'))",
    ),
    (
        GroupDeviation, dict(group=("a1", "b1"), rematching=(("a1", "b1"), ("b1", "a1"))),
        "GroupDeviation(group=('a1', 'b1'), rematching=(('a1', 'b1'), ('b1', 'a1')))",
    ),
    (
        MatchOutcomeValue, dict(worst=(("a1", "b1"), ("b1", "b1"))),
        "MatchOutcomeValue(worst=(('a1', 'b1'), ('b1', 'b1')))",
    ),
    (
        BetterResponseSet, dict(player=0, profile=(1, 2), responses=(0, 2)),
        "BetterResponseSet(player=0, profile=(1, 2), responses=(0, 2))",
    ),
    (
        DeviationSpace, dict(player=1, profile=(0, 1), options=((0, 2), (1,))),
        "DeviationSpace(player=1, profile=(0, 1), options=((0, 2), (1,)))",
    ),
    (
        EvaluatedProfile, dict(profile=(0, 1), value=(F(1), F(-1, 2)), witnesses=((0, 1), (1, 1))),
        "EvaluatedProfile(profile=(0, 1), value=(Fraction(1, 1), Fraction(-1, 2)), witnesses=((0, 1), (1, 1)))",
    ),
    (
        PlayerMaximin, dict(player=0, strategies=(1,), security=F(2), guarantees=(F(1), F(2))),
        "PlayerMaximin(player=0, strategies=(1,), security=Fraction(2, 1),"
        " guarantees=(Fraction(1, 1), Fraction(2, 1)))",
    ),
    (
        GridOptimin, dict(resolution=4, entries=(), kind="grid-approximate"),
        "GridOptimin(resolution=4, entries=(), kind='grid-approximate')",
    ),
    (
        MaximinSolution, dict(player=1, mixture=(F(1, 2), F(1, 2)), value=F(0)),
        "MaximinSolution(player=1, mixture=(Fraction(1, 2), Fraction(1, 2)), value=Fraction(0, 1))",
    ),
    (
        LPSolution, dict(status="optimal", point=(F(3), F(1)), objective_value=F(11)),
        "LPSolution(status='optimal', point=(Fraction(3, 1), Fraction(1, 1)), objective_value=Fraction(11, 1))",
    ),
    (
        StatisticalGame, dict(game=bulmer_game().game),
        "StatisticalGame(game=NormalFormGame(4x2, players=['statistician', 'nature']))",
    ),
]


@pytest.mark.parametrize("kind, fields, text", RECORDS, ids=[kind.__name__ for kind, _, _ in RECORDS])
def test_each_record_keeps_its_dataclass_repr_eq_and_hash(kind, fields, text):
    record = kind(**fields)
    values = tuple(fields.values())
    assert repr(record) == text
    again = kind(*values)
    assert again == record and not again != record and repr(again) == text
    assert hash(again) == hash(record) == hash(values)  # a frozen dataclass hashed its fields' tuple
    assert tuple(getattr(record, name) for name in fields) == values


def test_records_with_other_fields_differ():
    assert EvaluatedProfile((0, 1), (F(1), F(2)), ()) != EvaluatedProfile((1, 0), (F(1), F(2)), ())
    assert StabilityReport(False, "a1") != StabilityReport(False, None, ("a1", "b1"))
    assert LPSolution("optimal", (F(1),), F(1)) != LPSolution("optimal", (F(1),), F(2))
    assert LPSolution("infeasible") != "infeasible"
    pennies = NormalFormGame(("a", "b"), (("H", "T"), ("H", "T")), [[(1, -1), (-1, 1)], [(-1, 1), (1, -1)]])
    assert bulmer_game() == bulmer_game() != StatisticalGame(pennies)


def test_the_default_fields():
    assert StabilityReport(True) == StabilityReport(True, None, None)
    assert CoopOptimin(F(1), ()).kind == GridOptimin(2, ()).kind == "grid-approximate"
    assert LPSolution("unbounded").point is LPSolution("unbounded").objective_value is None


def test_dual_ratios_take_no_part_in_eq_hash_or_repr():
    one = LPSolution("optimal", (F(3), F(1)), F(11), ((2, 1), (0, 1)))
    two = LPSolution("optimal", (F(3), F(1)), F(11), ((4, 3), (1, 5)))
    assert one == two and hash(one) == hash(two) and repr(one) == repr(two)
    assert "dual" not in repr(one)
    assert one.duals == (F(2), F(0)) and two.duals == (F(4, 3), F(1, 5))
    assert LPSolution("infeasible").duals is None
    assert LPSolution(status="optimal", point=(), objective_value=F(0), dual_ratios=()).duals == ()


def test_truth_values():
    assert CoreResult(False, (F(1),)) and not CoreResult(True, None)
    assert StabilityReport(True) and not StabilityReport(False, blocking_individual="a1")
    assert DeviationSet(0, (F(1), F(2)), (2,)) and not DeviationSet(0, (F(1), F(2)), ())
    responses = BetterResponseSet(0, (1, 2), (0, 2))
    assert responses and not BetterResponseSet(0, (1, 2), ())
    assert 2 in responses and 1 not in responses
    # The records without a truth value of their own are true, as before.
    assert DecisionValue(F(0), None) and GridOptimin(1, ()) and SweepResult("travelers", "r", (), None)


def test_family_parameters_match_the_signature():
    # Read off the generator's code and annotation strings; `inspect` is the
    # oracle, and the flags that differ from their parameter are listed here.
    renamed = {"prisoners_dilemma": {"r": "reward", "p": "punishment", "s": "sucker"}}
    for tag, family in FAMILIES.items():
        function = getattr(sys.modules["optimin.generators"], family.generator)
        flags = renamed.get(tag, {})
        want = {
            name: (flags.get(name, name), None if p.annotation is p.empty else p.annotation)
            for name, p in inspect.signature(function, eval_str=True).parameters.items()
        }
        assert family.parameters == want
