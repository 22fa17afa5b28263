import math
import random
import time
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import brute_pareto
from optimin import (
    ConstraintError,
    DecisionProblem,
    DecisionValue,
    DomainError,
    OptimismConstraint,
    ResourceLimitError,
    decision_value,
    gilboa_reduction_check,
    optimin_acts,
)
from optimin.decisions import DECISION_MAX_CELLS
from optimin.fileio import parse_decision


def two_by_two():
    # acts a1, a2 against states s1, s2 with the DM table ((4,0),(1,1))
    return DecisionProblem(
        ("act1", "act2"),
        ("s1", "s2"),
        {
            ("act1", "s1"): 4, ("act1", "s2"): 0,
            ("act2", "s1"): 1, ("act2", "s2"): 1,
        },
    )


def mortgage():
    # Committing makes the bad state feel impossible; staying out keeps it live.
    problem = DecisionProblem(
        ("buy", "rent"),
        ("keep_job", "fired"),
        {
            ("buy", "keep_job"): 10, ("buy", "fired"): -10,
            ("rent", "keep_job"): 2, ("rent", "fired"): 1,
        },
    )
    act_dependent = OptimismConstraint(
        {
            ("buy", "keep_job"): ("keep_job",),
            ("buy", "fired"): ("keep_job",),
            ("rent", "keep_job"): ("keep_job", "fired"),
            ("rent", "fired"): ("keep_job", "fired"),
        }
    )
    return problem, act_dependent


class TestDecisionValue:
    def test_all_states_gives_security_level(self):
        problem = two_by_two()
        oc = OptimismConstraint.constant(problem)
        assert decision_value(problem, oc, ("act1", "s1")).dm == F(0)
        assert decision_value(problem, oc, ("act2", "s1")).dm == F(1)

    def test_singleton_constraint_reads_the_table(self):
        problem = two_by_two()
        oc = OptimismConstraint.constant(problem, states=("s1",))
        assert decision_value(problem, oc, ("act1", "s2")).dm == F(4)

    def test_direct_min_example(self):
        problem = two_by_two()
        oc = OptimismConstraint.constant(problem)
        values = {a: decision_value(problem, oc, (a, "s1")).dm for a in problem.acts}
        assert values == {"act1": F(0), "act2": F(1)}

    def test_infeasible_profile_rejected(self):
        problem = DecisionProblem(
            ("a1", "a2"),
            ("s1", "s2"),
            {("a1", "s1"): 1, ("a2", "s1"): 2, ("a2", "s2"): 3},
            feasible_states={"a1": ("s1",), "a2": ("s1", "s2")},
        )
        oc = OptimismConstraint.constant(problem)
        with pytest.raises(DomainError):
            decision_value(problem, oc, ("a1", "s2"))

    def test_feasible_lists_are_read_back_as_their_intersection(self):
        utility = {(a, s): 1 for a in ("a1", "a2", "a3") for s in ("s1", "s2")}
        problem = DecisionProblem(
            ("a1", "a2", "a3"),
            ("s1", "s2"),
            utility,
            feasible_acts={"s1": ("a2", "a1"), "s2": ("a2", "a3")},
            feasible_states={"a1": ("s1",), "a2": ("s2", "s1"), "a3": ("s1", "s2")},
        )
        assert problem.feasible_states == {"a1": ("s1",), "a2": ("s1", "s2"), "a3": ("s2",)}
        assert problem.feasible_acts == {"s1": ("a1", "a2"), "s2": ("a2", "a3")}
        full = DecisionProblem(("a1", "a2", "a3"), ("s1", "s2"), utility)
        assert full.feasible_states == dict.fromkeys(full.acts, ("s1", "s2"))
        assert full.feasible_acts == dict.fromkeys(full.states, ("a1", "a2", "a3"))

    def test_empty_constraint_rejected(self):
        problem = two_by_two()
        oc = OptimismConstraint({("act1", "s1"): ()})
        with pytest.raises(ConstraintError):
            decision_value(problem, oc, ("act1", "s1"))

    def test_nature_value_under_antagonism(self):
        problem = DecisionProblem(
            ("a1", "a2"),
            ("s1", "s2"),
            {("a1", "s1"): 4, ("a1", "s2"): 0, ("a2", "s1"): 1, ("a2", "s2"): 1},
            antagonist=True,
        )
        oc = OptimismConstraint.constant(problem)
        value = decision_value(problem, oc, ("a1", "s1"))
        # Nature's worst case over the DM's acts at s1: min(-4, -1) = -4
        assert value.nature == F(-4)


class TestOptiminActs:
    def test_maximin_act_with_full_constraint(self):
        problem = two_by_two()
        oc = OptimismConstraint.constant(problem)
        result = optimin_acts(problem, oc)
        assert result.ranking == "dm-only"
        assert result.acts == ("act2",)
        assert set(result.profiles) == {("act2", "s1"), ("act2", "s2")}

    def test_singleton_constraint_switches_to_best_case_act(self):
        problem = two_by_two()
        oc = OptimismConstraint.constant(problem, states=("s1",))
        result = optimin_acts(problem, oc)
        assert result.acts == ("act1",)
        assert all(v.dm == F(4) for v in result.values)

    def test_mortgage_reversal(self):
        problem, act_dependent = mortgage()
        cautious = optimin_acts(problem, OptimismConstraint.constant(problem))
        assert cautious.acts == ("rent",)
        confident = optimin_acts(problem, act_dependent)
        assert confident.acts == ("buy",)

    def test_antagonist_pareto_ranking(self):
        problem = DecisionProblem(
            ("a1", "a2"),
            ("s1", "s2"),
            {("a1", "s1"): 4, ("a1", "s2"): 0, ("a2", "s1"): 1, ("a2", "s2"): 1},
            antagonist=True,
        )
        result = optimin_acts(problem, OptimismConstraint.constant(problem))
        assert result.ranking == "pareto"
        assert result.profiles  # never empty


class TestInvariants:
    def test_shrinking_constraint_never_lowers_value(self):
        rng = random.Random(71)
        for _ in range(100):
            acts = ("a1", "a2")
            states = ("s1", "s2", "s3")
            table = {
                (a, s): rng.randint(-5, 5) for a in acts for s in states
            }
            problem = DecisionProblem(acts, states, table)
            wide = OptimismConstraint.constant(problem)
            subset = tuple(s for s in states if rng.random() < 0.7) or ("s1",)
            narrow = OptimismConstraint.constant(problem, states=subset)
            for profile in problem.feasible_pairs():
                v_wide = decision_value(problem, wide, profile).dm
                v_narrow = decision_value(problem, narrow, profile).dm
                assert v_narrow >= v_wide

    def test_infeasible_states_never_affect_value(self):
        problem = DecisionProblem(
            ("a1", "a2"),
            ("good", "bad"),
            {("a1", "good"): 1, ("a2", "good"): 5, ("a2", "bad"): -9},
            feasible_states={"a1": ("good",), "a2": ("good", "bad")},
        )
        oc = OptimismConstraint.constant(problem)
        # "bad" is infeasible under a1, so it cannot drag a1's value down.
        assert decision_value(problem, oc, ("a1", "good")).dm == F(1)

    def test_full_constraint_equals_two_player_security(self):
        rng = random.Random(72)
        from optimin import NormalFormGame, maximin_profile

        for _ in range(60):
            acts, states = ("a1", "a2"), ("s1", "s2")
            table = {(a, s): rng.randint(-5, 5) for a in acts for s in states}
            problem = DecisionProblem(acts, states, table)
            oc = OptimismConstraint.constant(problem)
            result = optimin_acts(problem, oc)
            game = NormalFormGame(
                ("dm", "nature"),
                (acts, states),
                [[(table[(a, s)], 0) for s in states] for a in acts],
            )
            dm = maximin_profile(game)[0]
            assert set(result.acts) == {acts[s] for s in dm.strategies}


class TestReductionCheck:
    def test_constant_full_constraint_reduces_to_maximin(self):
        problem = two_by_two()
        report = gilboa_reduction_check(problem, OptimismConstraint.constant(problem))
        assert report.hypotheses_hold
        assert report.verified is True

    def test_constant_singleton_reduces_to_table_lookup(self):
        problem = two_by_two()
        oc = OptimismConstraint.constant(problem, states=("s1",))
        report = gilboa_reduction_check(problem, oc)
        assert report.hypotheses_hold and report.verified is True

    def test_act_dependent_constraint_reports_violation(self):
        problem, act_dependent = mortgage()
        report = gilboa_reduction_check(problem, act_dependent)
        assert not report.constant_constraint
        assert not report.hypotheses_hold
        assert report.verified is None

    def test_notes_mention_vacuous_convexity(self):
        problem = two_by_two()
        report = gilboa_reduction_check(problem, OptimismConstraint.constant(problem))
        assert any("vacuous" in note for note in report.notes)


    def test_constant_constraint_ignores_list_order(self):
        problem = two_by_two()
        forward, backward = ("s1", "s2"), ("s2", "s1")
        oc = OptimismConstraint(
            {
                ("act1", "s1"): forward, ("act1", "s2"): forward,
                ("act2", "s1"): backward, ("act2", "s2"): backward,
            }
        )
        report = gilboa_reduction_check(problem, oc)
        assert report.constant_constraint and report.hypotheses_hold
        assert report.verified is True


def pairwise_dm_only(values) -> bool:
    """The definition: for every pair of agreement values, v beats w on the
    decision maker's value exactly when v Pareto-dominates w."""

    def dominates(v, w):
        a, b = (v.dm, v.nature), (w.dm, w.nature)
        return a != b and all(x >= y for x, y in zip(a, b))

    return all((v.dm > w.dm) == dominates(v, w) for v in values for w in values)


@st.composite
def antagonistic_problems(draw):
    """Up to 4 acts x 4 states, small utilities so that ties are common, and
    optimism constraints that may depend on the agreement."""
    acts = [f"a{k}" for k in range(draw(st.integers(1, 4)))]
    states = [f"s{k}" for k in range(draw(st.integers(1, 4)))]
    cells = [(a, s) for a in acts for s in states]
    utilities = st.fractions(min_value=-2, max_value=2, max_denominator=2)
    problem = DecisionProblem(
        acts, states, {cell: draw(utilities) for cell in cells}, antagonist=True
    )

    def subsets(labels):
        return st.lists(st.sampled_from(labels), min_size=1, unique=True)

    if draw(st.booleans()):
        oc = OptimismConstraint.constant(problem, draw(subsets(states)), draw(subsets(acts)))
    else:
        oc = OptimismConstraint(
            {cell: draw(subsets(states)) for cell in cells},
            {cell: draw(subsets(acts)) for cell in cells},
        )
    return problem, oc


@settings(max_examples=300, deadline=None)
@given(antagonistic_problems())
def test_dm_only_comparison_matches_the_pairwise_definition(built):
    problem, oc = built
    values = [decision_value(problem, oc, p) for p in problem.feasible_pairs()]
    report = gilboa_reduction_check(problem, oc)
    assert report.dm_only_comparison == pairwise_dm_only(values)


class TestFeasibilityTable:
    def test_empty_table_is_refused(self):
        # Each state lists the one act that does not list it.
        with pytest.raises(DomainError, match="feasibility table is empty"):
            DecisionProblem(
                ("a1", "a2"),
                ("s1", "s2"),
                {"a1": {"s1": 1, "s2": 2}, "a2": {"s1": 3, "s2": 4}},
                feasible_acts={"s1": ["a1"], "s2": ["a2"]},
                feasible_states={"a1": ["s2"], "a2": ["s1"]},
            )

    def test_one_feasible_pair_is_enough(self):
        problem = DecisionProblem(
            ("a1", "a2"),
            ("s1", "s2"),
            {"a1": {"s2": 2}},
            feasible_acts={"s1": ["a2"], "s2": ["a1"]},
            feasible_states={"a1": ["s2"], "a2": ["s2"]},
        )
        assert problem.feasible_pairs() == [("a1", "s2")]


class TestBounds:
    def test_cell_bound(self):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError) as info:
                DecisionProblem(range(10**6), range(1000), {})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # refused before any label or utility is read
        message = str(info.value)
        assert str(DECISION_MAX_CELLS) in message
        assert "1000000 acts x 1000 states" in message
        assert str(10**9) in message
        assert "DECISION_MAX_CELLS" in message
        side = math.isqrt(DECISION_MAX_CELLS)
        assert side * side == DECISION_MAX_CELLS
        acts = [f"a{k}" for k in range(side)]
        states = [f"s{k}" for k in range(side)]
        problem = DecisionProblem(acts, states, {(a, s): 0 for a in acts for s in states})
        assert len(problem.feasible_pairs()) == DECISION_MAX_CELLS
        # One cell past the bound is refused before the (missing) utilities are read.
        with pytest.raises(ResourceLimitError):
            DecisionProblem([f"a{k}" for k in range(DECISION_MAX_CELLS + 1)], ["s"], {})


@st.composite
def decision_problems(draw):
    """Up to 4 acts x 4 states whose two feasibility maps need not agree,
    optimism constraints that may depend on the agreement and may name
    infeasible partners, and either kind of Nature."""
    acts = [f"a{k}" for k in range(draw(st.integers(1, 4)))]
    states = [f"s{k}" for k in range(draw(st.integers(1, 4)))]
    cells = [(a, s) for a in acts for s in states]

    def subsets(labels):
        return st.lists(st.sampled_from(labels), min_size=1, unique=True)

    utilities = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    return dict(
        acts=acts,
        states=states,
        utility={cell: draw(utilities) for cell in cells},
        feasible_acts=draw(st.none() | st.fixed_dictionaries({s: subsets(acts) for s in states})),
        feasible_states=draw(st.none() | st.fixed_dictionaries({a: subsets(states) for a in acts})),
        antagonist=draw(st.booleans()),
    ), draw(st.dictionaries(st.sampled_from(cells), subsets(states))), draw(
        st.dictionaries(st.sampled_from(cells), subsets(acts))
    )


def definition_oracle(spec, dm_states, nature_acts):
    """Each feasible agreement's value straight from the definition, or None
    where a constraint leaves no feasible partner, with its possible states."""
    acts, states, utility = spec["acts"], spec["states"], spec["utility"]
    lists_a, lists_s = spec["feasible_acts"], spec["feasible_states"]

    def feasible(a, s):
        return (lists_s is None or s in lists_s[a]) and (lists_a is None or a in lists_a[s])

    values, possible = {}, {}
    for a, s in ((a, s) for a in acts for s in states if feasible(a, s)):
        seen = [t for t in dm_states.get((a, s), states) if feasible(a, t)]
        rivals = [b for b in nature_acts.get((a, s), acts) if feasible(b, s)]
        possible[a, s] = frozenset(seen)
        if not seen or (spec["antagonist"] and not rivals):
            values[a, s] = None
            continue
        nature = -max(utility[b, s] for b in rivals) if spec["antagonist"] else None
        values[a, s] = DecisionValue(min(utility[a, t] for t in seen), nature)
    return values, possible


EMPTY_TABLE = dict(  # each act lists a state that does not list it
    acts=["a0", "a1"],
    states=["s0", "s1"],
    utility={(a, s): F(0) for a in ("a0", "a1") for s in ("s0", "s1")},
    feasible_acts={"s0": ["a1"], "s1": ["a0"]},
    feasible_states={"a0": ["s0"], "a1": ["s1"]},
    antagonist=False,
)


@settings(max_examples=300, deadline=None)
@given(decision_problems())
@example((EMPTY_TABLE, {}, {}))
def test_decisions_match_the_definition(built):
    check_against_the_definition(*built)


def check_against_the_definition(spec, dm_states, nature_acts):
    values, possible = definition_oracle(spec, dm_states, nature_acts)
    if not values:  # the two feasibility maps share no pair
        with pytest.raises(DomainError, match=r"no \(act, state\) pair is feasible"):
            DecisionProblem(**spec)
        return
    problem = DecisionProblem(**spec)
    oc = OptimismConstraint(dm_states, nature_acts)
    assert problem.feasible_pairs() == list(values)
    for profile, value in values.items():
        if value is None:
            with pytest.raises(ConstraintError):
                decision_value(problem, oc, profile)
        else:
            assert decision_value(problem, oc, profile) == value

    if None in values.values():
        for solver in (optimin_acts, gilboa_reduction_check):
            with pytest.raises(ConstraintError):
                solver(problem, oc)
        return
    report = gilboa_reduction_check(problem, oc)
    constant = len(set(possible.values())) == 1
    dm_only = not spec["antagonist"] or pairwise_dm_only(values.values())
    assert report.constant_constraint == constant
    assert report.dm_only_comparison == dm_only
    assert report.hypotheses_hold == (constant and dm_only)

    vectors = {p: (v.dm, v.nature) if spec["antagonist"] else (v.dm,) for p, v in values.items()}
    front = brute_pareto(list(vectors.values()))
    kept = [p for p, vector in vectors.items() if vector in front]
    result = optimin_acts(problem, oc)
    assert result.ranking == ("pareto" if spec["antagonist"] else "dm-only")
    assert result.profiles == tuple(kept)
    assert result.values == tuple(values[p] for p in kept)

    if report.hypotheses_hold:
        (seen,) = set(possible.values())
        security = {a: min(spec["utility"][a, s] for s in seen) for a, _ in values}
        best = max(security.values())
        maximin = {a for a, g in security.items() if g == best}
        assert report.verified == ({a for a, _ in kept} == maximin)
    else:
        assert report.verified is None


def seeded_problem(rng, num_acts, num_states):
    """A random problem with its feasibility lists and an optimism constraint
    that draws each agreement's lists from a few shared ones, so that the
    solvers meet each (label, list) pair many times; some lists name only
    infeasible partners."""
    acts = [f"a{k}" for k in range(num_acts)]
    states = [f"s{k}" for k in range(num_states)]

    def some(labels):
        return rng.sample(labels, rng.randint(1, len(labels)))

    spec = dict(
        acts=acts,
        states=states,
        utility={(a, s): F(rng.randint(-6, 6), rng.choice((1, 2, 3))) for a in acts for s in states},
        feasible_acts=rng.choice([None, {s: some(acts) for s in states}]),
        feasible_states=rng.choice([None, {a: some(states) for a in acts}]),
        antagonist=rng.random() < 0.7,
    )
    cells = [(a, s) for a in acts for s in states]
    state_lists = [tuple(some(states)) for _ in range(3)]
    act_lists = [tuple(some(acts)) for _ in range(3)]
    dm_states = {c: rng.choice(state_lists) for c in cells if rng.random() < 0.8}
    nature_acts = {c: rng.choice(act_lists) for c in cells if rng.random() < 0.8}
    return spec, dm_states, nature_acts


def test_seeded_problems_match_the_definition_and_fail_at_the_first_empty_set():
    rng = random.Random(14)
    for _ in range(300):
        spec, dm_states, nature_acts = seeded_problem(rng, rng.randint(1, 6), rng.randint(1, 6))
        try:
            problem = DecisionProblem(**spec)
        except DomainError:
            continue  # the two feasibility lists share no pair
        check_against_the_definition(spec, dm_states, nature_acts)
        oc = OptimismConstraint(dm_states, nature_acts)
        profiles = problem.feasible_pairs()
        # The decision maker's sets are checked in profile order before Nature's.
        empty = [p for p in profiles if not _possible_or_empty(oc.dm_states.get(p), problem._num[p[0]])]
        if not empty and problem.antagonist:
            rows = {s: problem._nature_row(s) for s in problem.states}
            empty = [p for p in profiles if not _possible_or_empty(oc.nature_acts.get(p), rows[p[1]])]
        if empty:
            for solver in (optimin_acts, gilboa_reduction_check):
                with pytest.raises(ConstraintError) as info:
                    solver(problem, oc)
                assert str(info.value) == f"optimism constraint empty at {empty[0]}"


def _possible_or_empty(allowed, partners):
    return list(partners) if allowed is None else [x for x in allowed if x in partners]


@pytest.mark.parametrize("num_acts, num_states", [(DECISION_MAX_CELLS, 1), (1, DECISION_MAX_CELLS)])
def test_a_constant_constraint_at_the_bound_takes_each_minimum_once(num_acts, num_states):
    """At |A|·|S| = DECISION_MAX_CELLS in either long shape, each solver takes
    under a second: a constant constraint has one possible set per row or column."""
    rng = random.Random(num_acts)
    acts = [f"a{k}" for k in range(num_acts)]
    states = [f"s{k}" for k in range(num_states)]
    problem = DecisionProblem(
        acts, states, {(a, s): rng.randint(-100, 100) for a in acts for s in states}, antagonist=True
    )
    oc = OptimismConstraint.constant(problem)
    for solver in (optimin_acts, gilboa_reduction_check):
        start = time.perf_counter()
        solver(problem, oc)
        assert time.perf_counter() - start < 1.0, solver.__name__
    # The long side's minimum is the same at every agreement.
    values = {decision_value(problem, oc, p) for p in [problem.feasible_pairs()[0], problem.feasible_pairs()[-1]]}
    utilities = [problem.dm_utility(a, s) for a in acts for s in states]
    if num_acts == 1:
        assert {v.dm for v in values} == {min(utilities)}
    else:
        assert {v.nature for v in values} == {-max(utilities)}
    report = gilboa_reduction_check(problem, oc)
    assert report.constant_constraint


# README's decision example, whose `antagonist` each test sets.
README_DECISION = """{
  "acts": ["buy", "rent"],
  "states": ["keep", "fired"],
  "utility": {
    "buy":  {"keep": 10, "fired": -10},
    "rent": {"keep": 2,  "fired": 1}
  },
  "feasible_states": {"buy": ["keep", "fired"], "rent": ["keep", "fired"]},
  "oc_states": {
    "buy,keep": ["keep"],
    "buy,fired": ["keep"],
    "*": ["keep", "fired"]
  },
  "antagonist": %s
}"""


class TestUtilityAccessors:
    def test_nature_is_the_negated_decision_maker(self):
        problem, oc = parse_decision(README_DECISION % "true")
        table = {("buy", "keep"): 10, ("buy", "fired"): -10, ("rent", "keep"): 2, ("rent", "fired"): 1}
        assert problem.feasible_pairs() == list(table)
        for (act, state), u in table.items():
            assert problem.dm_utility(act, state) == F(u)
            assert problem.nature_utility(act, state) == -problem.dm_utility(act, state)

    def test_nature_value_is_its_minimum_over_acts_for(self):
        problem, oc = parse_decision(README_DECISION % "true")
        for profile in problem.feasible_pairs():
            acts = oc.acts_for(problem, profile)
            assert acts == ("buy", "rent")  # no oc_acts: every act feasible at the state
            value = decision_value(problem, oc, profile)
            assert value.nature == min(problem.nature_utility(a, profile[1]) for a in acts)
            states = oc.states_for(problem, profile)
            assert value.dm == min(problem.dm_utility(profile[0], s) for s in states)
        assert decision_value(problem, oc, ("rent", "keep")).nature == F(-10)
        # Nature deeming only "rent" possible at (rent, keep) lifts its value there.
        narrowed = OptimismConstraint(oc.dm_states, {("rent", "keep"): ("rent",)})
        assert narrowed.acts_for(problem, ("rent", "keep")) == ("rent",)
        assert decision_value(problem, narrowed, ("rent", "keep")).nature == F(-2)

    def test_no_nature_utility_without_an_antagonist(self):
        problem, _ = parse_decision(README_DECISION % "false")
        assert problem.dm_utility("buy", "fired") == F(-10)
        with pytest.raises(DomainError, match="Nature has no utility"):
            problem.nature_utility("buy", "fired")


# -- names that match nothing are refused, not dropped ----------------------

NESTED = {"buy": {"keep_job": 10, "fired": -10}, "rent": {"keep_job": 2, "fired": 1}}


@pytest.mark.parametrize(
    "utility, feasible_acts, feasible_states, message",
    [
        ({**NESTED, "lease": {"keep_job": 9}}, None, None, "utility['lease']: unknown act 'lease'"),
        ({**NESTED, "rent": {"keep_job": 2, "fired": 1, "typo": 0}}, None, None,
         "utility['rent']['typo']: unknown state 'typo'"),
        ({("buy", "keep_job"): 1, ("buy", "fired"): 1, ("rent", "keep_job"): 1, ("rent", "fired"): 1,
          ("lease", "fired"): 1}, None, None,
         "utility[('lease', 'fired')]: unknown act 'lease'"),
        ({("buy", "keep_job"): 1, ("buy", "fired"): 1, ("rent", "keep_job"): 1, ("rent", "fired"): 1,
          ("rent", "laid_off"): 1}, None, None, "utility[('rent', 'laid_off')]: unknown state 'laid_off'"),
        (NESTED, None, {"buy": ["keep_job"], "rent": ["fired"], "lease": ["fired"]},
         "feasible_states['lease']: unknown act 'lease'"),
        (NESTED, {"keep_job": ["buy"], "kept": ["buy"]}, None, "feasible_acts['kept']: unknown state 'kept'"),
        ({**NESTED, "lease": 9}, None, None, "utility['lease']: unknown act 'lease'"),
    ],
    ids=[
        "utility-row", "utility-entry", "flat-key-act", "flat-key-state", "feasible-states-key", "feasible-acts-key",
        "key-of-no-row-or-pair",
    ],
)
def test_problem_names_that_match_nothing_are_refused(utility, feasible_acts, feasible_states, message):
    with pytest.raises(DomainError) as info:
        DecisionProblem(("buy", "rent"), ("keep_job", "fired"), utility, feasible_acts, feasible_states)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "acts, states", [(("buy", "rent", "buy"), ("keep_job", "fired")), (("buy", "rent"), ("fired", "keep_job", "fired"))]
)
def test_repeated_labels_are_refused(acts, states):
    with pytest.raises(DomainError) as info:
        DecisionProblem(acts, states, NESTED)
    assert str(info.value) == "duplicate act or state labels"


@pytest.mark.parametrize("flag", ["no", "false", 0, 1, None])
def test_antagonist_must_be_a_boolean(flag):
    # The file reader refuses these too; bool("no") would rank with Nature.
    with pytest.raises(DomainError) as info:
        DecisionProblem(("buy", "rent"), ("keep_job", "fired"), NESTED, antagonist=flag)
    assert str(info.value) == f"antagonist: expected a boolean, got {flag!r}"


def test_optimism_labels_that_match_nothing_are_refused():
    problem, act_dependent = mortgage()
    typo = OptimismConstraint({**act_dependent.dm_states, ("buy", "fired"): ("keep_job", "fird")})
    for solve in (optimin_acts, gilboa_reduction_check):
        with pytest.raises(DomainError) as info:
            solve(problem, typo)
        assert str(info.value) == "optimism list at ('buy', 'fired'): unknown state 'fird'"
    with pytest.raises(DomainError):
        typo.states_for(problem, ("buy", "fired"))
    assert typo.states_for(problem, ("buy", "keep_job")) == ("keep_job",)
    antagonist = DecisionProblem(problem.acts, problem.states, NESTED, antagonist=True)
    nature_typo = OptimismConstraint(act_dependent.dm_states, {("rent", "fired"): ("rent", "lease")})
    with pytest.raises(DomainError) as info:
        decision_value(antagonist, nature_typo, ("rent", "fired"))
    assert str(info.value) == "optimism list at ('rent', 'fired'): unknown act 'lease'"
    with pytest.raises(DomainError):
        nature_typo.acts_for(antagonist, ("rent", "fired"))
    # A key that names no act or state is refused too, act first, though no
    # solver would read its list.
    key_typo = OptimismConstraint({**act_dependent.dm_states, ("buy", "fird"): ("keep_job",)})
    for solve in (optimin_acts, gilboa_reduction_check):
        with pytest.raises(DomainError) as info:
            solve(problem, key_typo)
        assert str(info.value) == "dm_states[('buy', 'fird')]: unknown state 'fird'"
    nature_key_typo = OptimismConstraint(act_dependent.dm_states, {("lease", "fird"): ("rent",)})
    with pytest.raises(DomainError) as info:
        decision_value(antagonist, nature_key_typo, ("rent", "fired"))
    assert str(info.value) == "nature_acts[('lease', 'fird')]: unknown act 'lease'"
    with pytest.raises(DomainError) as info:
        optimin_acts(problem, OptimismConstraint({"buy": ("keep_job",)}))
    assert str(info.value) == "dm_states['buy']: expected an (act, state) pair"
