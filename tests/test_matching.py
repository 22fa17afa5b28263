import gc
import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optimin import (
    DomainError,
    MarriageProblem,
    Matching,
    ResourceLimitError,
    all_matchings,
    deferred_acceptance,
    is_stable,
    matching_value,
    optimin_matchings,
    profitable_group_deviations,
)
from optimin.matching import DEVIATION_MAX_SIZE, MATCHINGS_MAX_SIZE, OPTIMIN_MAX_SIZE, _candidates, _decoded


def tiny_mutual():
    return MarriageProblem(
        ("a",), ("b",), {"a": ("b", "a"), "b": ("a", "b")}
    )


def tiny_one_sided():
    # a would rather stay single; b likes a.
    return MarriageProblem(
        ("a",), ("b",), {"a": ("a", "b"), "b": ("a", "b")}
    )


def aligned_2x2():
    return MarriageProblem(
        ("a1", "a2"),
        ("b1", "b2"),
        {
            "a1": ("b1", "b2", "a1"),
            "a2": ("b2", "b1", "a2"),
            "b1": ("a1", "a2", "b1"),
            "b2": ("a2", "a1", "b2"),
        },
    )


def random_problem(rng, n):
    side_a = tuple(f"a{i}" for i in range(n))
    side_b = tuple(f"b{i}" for i in range(n))
    prefs = {}
    for person, other in [(a, side_b) for a in side_a] + [(b, side_a) for b in side_b]:
        ranking = list(other) + [person]
        rng.shuffle(ranking)
        prefs[person] = tuple(ranking)
    return MarriageProblem(side_a, side_b, prefs)


@st.composite
def marriage_arguments(draw, min_size=0, max_size=4):
    """`MarriageProblem` arguments, `min_size` to `max_size` per side; each
    list is a strict ranking of the other side plus self, so a partner
    ranked after self is unacceptable.  Arguments, not the problem, so a
    failure prints them."""
    n = draw(st.integers(min_size, max_size))
    side_a = tuple(f"a{i}" for i in range(n))
    side_b = tuple(f"b{i}" for i in range(n))
    prefs = {a: draw(st.permutations(side_b + (a,))) for a in side_a}
    prefs.update({b: draw(st.permutations(side_a + (b,))) for b in side_b})
    return side_a, side_b, prefs


def enumerate_deviations(problem, m):
    """From-scratch enumeration: every subset, every internal pairing."""
    people = problem.everyone()
    found = set()
    for r in range(1, len(people) + 1):
        for group in itertools.combinations(people, r):
            ga = [p for p in group if p in problem.side_a]
            gb = [p for p in group if p in problem.side_b]
            for k in range(min(len(ga), len(gb)) + 1):
                for chosen_a in itertools.combinations(ga, k):
                    for chosen_b in itertools.permutations(gb, k):
                        pairing = dict(zip(chosen_a, chosen_b))
                        pairing.update({b: a for a, b in pairing.items()})
                        for person in group:
                            pairing.setdefault(person, person)
                        if all(
                            problem.prefers(p, pairing[p], m.partner(p))
                            for p in group
                        ):
                            found.add(
                                (group, tuple(sorted(pairing.items())))
                            )
    return found


def worst_over(problem, matching, rematchings):
    """Each person's literal worst case over the matching and the given
    deviations, each a dict from member to new partner."""
    worst = {}
    for person in problem.everyone():
        outcomes = [matching.partner(person)]
        for inside in rematchings:
            if person in inside:
                outcomes.append(inside[person])
            elif matching.partner(person) in inside:
                outcomes.append(person)  # partner left; person is now single
            else:
                outcomes.append(matching.partner(person))
        worst[person] = max(outcomes, key=lambda c: problem.rank(person, c))
    return worst


def brute_matching_value(problem, matching):
    """Oracle: walk every profitable deviation and take the literal worst case."""
    devs = profitable_group_deviations(problem, matching)
    return worst_over(problem, matching, [dict(dev.rematching) for dev in devs])


def brute_optimin(problem):
    candidates = all_matchings(problem)
    vectors = []
    everyone = problem.everyone()
    for m in candidates:
        worst = brute_matching_value(problem, m)
        vectors.append(tuple(-problem.rank(p, worst[p]) for p in everyone))
    # Equal vectors share one verdict, so the quadratic scan sees each once.
    distinct = set(vectors)
    undominated = {
        v for v in distinct
        if not any(w != v and all(a >= b for a, b in zip(w, v)) for w in distinct)
    }
    return [m for m, v in zip(candidates, vectors) if v in undominated]


class TestDeferredAcceptance:
    def test_mutual_pair_matches(self):
        m = deferred_acceptance(tiny_mutual(), "A")
        assert m.partner("a") == "b"

    def test_self_preferrer_stays_single(self):
        m = deferred_acceptance(tiny_one_sided(), "A")
        assert m.is_single("a") and m.is_single("b")
        m = deferred_acceptance(tiny_one_sided(), "B")
        assert m.is_single("a") and m.is_single("b")

    def test_aligned_first_choices_are_assortative(self):
        problem = aligned_2x2()
        m = deferred_acceptance(problem, "A")
        assert m.partner("a1") == "b1" and m.partner("a2") == "b2"
        # brute force over all 7 matchings: this is the only stable one here
        stable = [mm for mm in all_matchings(problem) if is_stable(problem, mm).stable]
        assert stable == [m]

    def test_output_is_stable_on_random_problems(self):
        rng = random.Random(51)
        for _ in range(150):
            problem = random_problem(rng, rng.randint(1, 4))
            for side in ("A", "B"):
                assert is_stable(problem, deferred_acceptance(problem, side)).stable

    def test_proposers_weakly_prefer_their_da_matching(self):
        rng = random.Random(52)
        for _ in range(60):
            problem = random_problem(rng, 3)
            m = deferred_acceptance(problem, "A")
            stable = [mm for mm in all_matchings(problem) if is_stable(problem, mm).stable]
            for other in stable:
                for a in problem.side_a:
                    assert problem.rank(a, m.partner(a)) <= problem.rank(a, other.partner(a))


class TestStability:
    def test_swapped_assortative_pairs_block(self):
        problem = aligned_2x2()
        swapped = Matching(problem, {"a1": "b2", "b2": "a1", "a2": "b1", "b1": "a2"})
        report = is_stable(problem, swapped)
        assert not report.stable
        assert report.blocking_pair == ("a1", "b1")

    def test_all_single_blocks_when_mutually_acceptable(self):
        problem = aligned_2x2()
        report = is_stable(problem, Matching(problem, {}))
        assert not report.stable
        assert report.blocking_pair == ("a1", "b1")

    def test_irrational_match_reported_by_individual(self):
        problem = tiny_one_sided()
        forced = Matching(problem, {"a": "b", "b": "a"})
        report = is_stable(problem, forced)
        assert not report.stable
        assert report.blocking_individual == "a"


class TestGroupDeviations:
    def test_stable_matching_has_none(self):
        rng = random.Random(53)
        for _ in range(80):
            problem = random_problem(rng, rng.randint(1, 3))
            m = deferred_acceptance(problem, "A")
            assert profitable_group_deviations(problem, m) == []

    def test_blocking_pair_appears_as_group(self):
        problem = aligned_2x2()
        swapped = Matching(problem, {"a1": "b2", "b2": "a1", "a2": "b1", "b1": "a2"})
        devs = profitable_group_deviations(problem, swapped)
        groups = {d.group for d in devs}
        assert ("a1", "b1") in groups

    def test_every_member_strictly_improves(self):
        rng = random.Random(54)
        for _ in range(60):
            problem = random_problem(rng, 3)
            for m in all_matchings(problem)[:10]:
                for dev in profitable_group_deviations(problem, m):
                    inside = dict(dev.rematching)
                    assert set(inside) == set(dev.group)
                    for person, new in inside.items():
                        assert problem.prefers(person, new, m.partner(person))
                        assert new == person or new in dev.group

    def test_size_bound(self):
        rng = random.Random(55)
        problem = random_problem(rng, 7)
        m = deferred_acceptance(problem, "A")
        with pytest.raises(ResourceLimitError) as info:
            profitable_group_deviations(problem, m)
        message = str(info.value)
        assert str(DEVIATION_MAX_SIZE) in message
        assert "7 per side" in message
        assert "DEVIATION_MAX_SIZE" in message

    def test_calls_hold_no_memory(self):
        # The recursive enumerator refers to itself; a closure left in that
        # cycle would keep each call's moves and output alive until a cyclic
        # collection, which disabling gc rules out here.
        problem = random_problem(random.Random(0), 6)
        everyone_single = Matching(problem, {})
        assert len(profitable_group_deviations(problem, everyone_single)) == 111
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            profitable_group_deviations(problem, everyone_single)
            base = tracemalloc.get_traced_memory()[0]
            held = []
            for _ in range(8):
                profitable_group_deviations(problem, everyone_single)
                held.append(tracemalloc.get_traced_memory()[0] - base)
        finally:
            tracemalloc.stop()
            if was_enabled:
                gc.enable()
        # A leaked call holds about 65 KiB here; a few KiB of interpreter
        # caches may settle in over the first calls.
        assert held[-1] - held[1] < 8 << 10, held

    def test_exhaustive_enumeration_oracle(self):
        rng = random.Random(62)
        for n in (2, 3):
            for _ in range(20):
                problem = random_problem(rng, n)
                matchings = all_matchings(problem)
                m = matchings[rng.randrange(len(matchings))]
                got = {
                    (d.group, d.rematching)
                    for d in profitable_group_deviations(problem, m)
                }
                assert got == enumerate_deviations(problem, m)


class TestMatchingValue:
    def test_stable_matching_keeps_partners(self):
        rng = random.Random(56)
        for _ in range(80):
            problem = random_problem(rng, rng.randint(1, 4))
            m = deferred_acceptance(problem, "A")
            value = matching_value(problem, m)
            for person, outcome in value.worst:
                assert outcome == m.partner(person)

    def test_partner_in_deviation_means_single(self):
        problem = aligned_2x2()
        swapped = Matching(problem, {"a1": "b2", "b2": "a1", "a2": "b1", "b1": "a2"})
        value = matching_value(problem, swapped)
        # everyone's partner defects to their first choice, stranding them
        assert value.of("a1") == "a1"
        assert value.of("b2") == "b2"

    def test_all_single_with_no_acceptable_partners(self):
        problem = MarriageProblem(
            ("a",), ("b",), {"a": ("a", "b"), "b": ("b", "a")}
        )
        value = matching_value(problem, Matching(problem, {}))
        assert value.of("a") == "a" and value.of("b") == "b"

    def test_matches_deviation_walk_oracle(self):
        rng = random.Random(57)
        for _ in range(60):
            problem = random_problem(rng, 3)
            for m in all_matchings(problem):
                value = dict(matching_value(problem, m).worst)
                assert value == brute_matching_value(problem, m)

    def test_value_and_stability_match_exhaustive_enumeration(self):
        # The oracle is the from-scratch enumeration, not
        # `profitable_group_deviations`, which shares `_moves` with the code under test.
        rng = random.Random(63)
        for _ in range(40):
            problem = random_problem(rng, rng.randint(1, 3))
            everyone = problem.everyone()
            for m in all_matchings(problem):
                found = enumerate_deviations(problem, m)
                value = dict(matching_value(problem, m).worst)
                assert value == worst_over(problem, m, [dict(r) for _, r in found])
                singles = [p for p in everyone if ((p,), ((p, p),)) in found]
                pairs = [
                    (a, b)
                    for a in problem.side_a
                    for b in problem.side_b
                    if ((a, b), tuple(sorted(((a, b), (b, a))))) in found
                ]
                report = is_stable(problem, m)
                assert report.stable == (not found)
                assert report.blocking_individual == (singles[0] if singles else None)
                assert report.blocking_pair == (pairs[0] if pairs and not singles else None)

    def test_value_weakly_below_partner(self):
        rng = random.Random(58)
        for _ in range(60):
            problem = random_problem(rng, 3)
            for m in all_matchings(problem)[:12]:
                for person, outcome in matching_value(problem, m).worst:
                    assert problem.rank(person, outcome) >= problem.rank(
                        person, m.partner(person)
                    )


class TestOptiminMatchings:
    def test_mutual_pair(self):
        problem = tiny_mutual()
        result = optimin_matchings(problem)
        assert len(result) == 1
        assert result[0].partner("a") == "b"

    def test_stable_matchings_always_included(self):
        rng = random.Random(59)
        for _ in range(60):
            problem = random_problem(rng, rng.randint(2, 4))
            solutions = optimin_matchings(problem)
            for m in all_matchings(problem):
                if is_stable(problem, m).stable:
                    assert m in solutions

    def test_equals_independent_reimplementation(self):
        rng = random.Random(60)
        for _ in range(25):
            problem = random_problem(rng, 3)
            assert optimin_matchings(problem) == brute_optimin(problem)

    # brute_optimin takes about 0.5, 6 and 96 ms at 2, 3 and 4 per side.
    @settings(max_examples=100, deadline=None)
    @given(marriage_arguments())
    def test_equals_the_oracle_and_holds_both_da_matchings(self, arguments):
        problem = MarriageProblem(*arguments)
        solutions = optimin_matchings(problem)
        assert solutions == brute_optimin(problem)
        for side in ("A", "B"):
            assert deferred_acceptance(problem, side) in solutions

    # At 5 per side, the benchmark's size, brute_optimin would take seconds
    # per problem, so the enumerator is checked against matching_value.
    @settings(max_examples=80, deadline=None)
    @given(marriage_arguments(5, 5))
    def test_five_per_side_holds_both_da_matchings(self, arguments):
        problem = MarriageProblem(*arguments)
        orders, values = _candidates(problem)
        matchings = _decoded(problem, orders)
        assert len(matchings) == 1546
        for vector, m in zip(values, matchings):
            assert vector == tuple(-problem.rank(p, w) for p, w in matching_value(problem, m).worst)
        solutions = optimin_matchings(problem)
        for side in ("A", "B"):
            assert deferred_acceptance(problem, side) in solutions

    def test_size_bound(self):
        rng = random.Random(61)
        with pytest.raises(ResourceLimitError) as info:
            optimin_matchings(random_problem(rng, 6))
        message = str(info.value)
        assert str(OPTIMIN_MAX_SIZE) in message
        assert "6 per side" in message
        assert "OPTIMIN_MAX_SIZE" in message


class TestAllMatchings:
    def test_size_bound(self, monkeypatch):
        # 8 per side has 1 441 729 matchings; the refusal comes before any.
        problem = random_problem(random.Random(63), MATCHINGS_MAX_SIZE + 1)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError) as info:
                all_matchings(problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        message = str(info.value)
        assert str(MATCHINGS_MAX_SIZE) in message
        assert f"{MATCHINGS_MAX_SIZE + 1} per side" in message
        assert "MATCHINGS_MAX_SIZE" in message
        monkeypatch.setattr("optimin.matching.MATCHINGS_MAX_SIZE", 3)
        # sum over k of C(3, k)^2 k! matchings with k pairs
        assert len(all_matchings(random_problem(random.Random(64), 3))) == 1 + 9 + 18 + 6
        with pytest.raises(ResourceLimitError):
            all_matchings(random_problem(random.Random(65), 4))


def mixed_label_problem(rng, n):
    """Labels whose string order differs from side order and interleaves the
    sides; everyone's ranking puts self anywhere, so some partners are
    unacceptable.  Up to 6 per side."""
    pool = ["a10", "a9", "z1", "b2", "b10", "Q", "m3", "m20", "B7", "k", "Z0", "c1"]
    labels = rng.sample(pool, 2 * n)
    side_a, side_b = labels[:n], labels[n:]
    prefs = {}
    for person in labels:
        ranking = (side_b if person in side_a else side_a) + [person]
        rng.shuffle(ranking)
        prefs[person] = ranking
    return MarriageProblem(side_a, side_b, prefs)


class TestCandidateKernel:
    def test_worst_ranks_match_matching_value(self):
        # Two at 5 per side, the benchmark's size, where `order` has 10
        # digits of 4 bits; the oracle takes about 3 s on each.
        rng = random.Random(64)
        for n in [rng.randint(0, 4) for _ in range(58)] + [5, 5]:
            problem = mixed_label_problem(rng, n)
            orders, values = _candidates(problem)
            matchings = all_matchings(problem)
            assert len(matchings) == len(orders) == len(values) == len(set(matchings)) == len(set(orders))
            assert len(matchings) == sum(math.comb(n, k) ** 2 * math.factorial(k) for k in range(n + 1))
            keys = [m.key() for m in matchings]
            assert keys == sorted(keys)
            decoded = _decoded(problem, orders)
            assert _decoded(problem, sorted(orders)) == sorted(decoded, key=Matching.key) == matchings
            for vector, m in zip(values, decoded):
                worst = matching_value(problem, m).worst
                assert vector == tuple(-problem.rank(p, w) for p, w in worst)
            assert optimin_matchings(problem) == brute_optimin(problem)


class TestDecodedMatchings:
    def test_decoded_matchings_equal_checked_ones(self):
        # `_decoded` skips the constructor's checks; each matching it builds
        # must be the one the checked constructor builds from the same map,
        # down to the order of `pairs`.
        rng = random.Random(3304)
        for _ in range(6):
            problem = mixed_label_problem(rng, 4)
            matchings = all_matchings(problem)
            assert len(matchings) == 209
            for m in matchings:
                checked = Matching(problem, m.pairs)
                assert m == checked and hash(m) == hash(checked) and repr(m) == repr(checked)
                assert list(m.pairs.items()) == list(checked.pairs.items())
            kept = optimin_matchings(problem)
            assert kept == [Matching(problem, m.pairs) for m in kept]


class TestValidation:
    def test_unequal_sides_rejected(self):
        with pytest.raises(DomainError):
            MarriageProblem(("a",), ("b", "c"), {})

    def test_incomplete_ranking_rejected(self):
        with pytest.raises(DomainError):
            MarriageProblem(
                ("a",), ("b",), {"a": ("b",), "b": ("a", "b")}
            )

    @pytest.mark.parametrize(
        "side_a, side_b, message",
        [
            (("a", "a"), ("b", "c"), "duplicate labels within a side"),
            (("a", "b"), ("c", "c"), "duplicate labels within a side"),
            (("a", "b"), ("b", "c"), "the two sides must be disjoint"),
        ],
    )
    def test_side_labels_refused(self, side_a, side_b, message):
        with pytest.raises(DomainError) as info:
            MarriageProblem(side_a, side_b, {})
        assert str(info.value) == message

    def test_two_of_side_b_cannot_pair(self):
        with pytest.raises(DomainError) as info:
            Matching(aligned_2x2(), {"b1": "b2", "b2": "b1"})
        assert str(info.value) == "'b1' must be matched within the other side or single"

    def test_proposing_side_must_be_a_or_b(self):
        with pytest.raises(DomainError) as info:
            deferred_acceptance(aligned_2x2(), "C")
        assert str(info.value) == "proposing side must be 'A' or 'B', got 'C'"

    def test_non_mutual_matching_rejected(self):
        problem = aligned_2x2()
        with pytest.raises(DomainError):
            Matching(problem, {"a1": "b1", "b1": "a2", "a2": "b1"})


def test_a_preference_list_of_no_individual_is_refused():
    # Checked after the sides and rankings, whose messages come first.
    prefs = {"a": ["b", "a"], "b": ["a", "b"], "c": ["a"]}
    with pytest.raises(DomainError) as info:
        MarriageProblem(["a"], ["b"], prefs)
    assert str(info.value) == "prefs: unknown individual 'c'"
    with pytest.raises(DomainError) as info:
        MarriageProblem(["a"], ["b"], {**prefs, "b": ["a"]})
    assert str(info.value) == "'b' must rank the whole other side plus themselves once"


@settings(max_examples=50, deadline=None)
@given(marriage_arguments())
def test_a_problem_prints_the_arguments_that_rebuild_it(arguments):
    problem = MarriageProblem(*arguments)
    again = eval(repr(problem), {"MarriageProblem": MarriageProblem})
    assert (again.side_a, again.side_b, again.prefs) == (problem.side_a, problem.side_b, problem.prefs)
    assert repr(again) == repr(problem)


def test_a_problem_repr():
    assert repr(tiny_mutual()) == "MarriageProblem(('a',), ('b',), {'a': ('b', 'a'), 'b': ('a', 'b')})"
