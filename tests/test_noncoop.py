import gc
import math
import random
import tracemalloc
from fractions import Fraction as F

import pytest

from optimin import (
    NormalFormGame,
    ResourceLimitError,
    UnsupportedArityError,
    affine_transform,
    better_responses,
    deviation_space,
    fictitious_extension,
    gen_named,
    gen_prisoners_dilemma,
    is_maximin_equilibrium,
    maximin_profile,
    nash_pure,
    optimin_grid_2p,
    optimin_pure,
    pareto_filter,
    value_mixed_2p,
    value_pure,
    value_table,
)
from optimin import noncoop
from conftest import (
    brute_pareto,
    brute_value_pure,
    random_constant_sum_game,
    random_game,
    zero_game,
)

# Worst-case table of the 3x3 illustrative game, frozen from its source.
FIGURE1_VALUES = {
    (0, 0): (100, 100), (0, 1): (100, 0), (0, 2): (0, 0),
    (1, 0): (0, 100), (1, 1): (0, 0), (1, 2): (0, 5),
    (2, 0): (0, 0), (2, 1): (5, 0), (2, 2): (5, 5),
}


def matching_pennies():
    return NormalFormGame(
        ("row", "column"),
        (("H", "T"), ("H", "T")),
        [[(1, -1), (-1, 1)], [(-1, 1), (1, -1)]],
    )


class TestBetterResponses:
    def test_figure1_top_left_column_player(self):
        g = gen_named("figure1")
        assert better_responses(g, (0, 0), 1).responses == (1,)

    def test_figure1_nash_cell_row_player(self):
        g = gen_named("figure1")
        assert better_responses(g, (2, 2), 0).responses == ()

    def test_pd_dominant_cell(self):
        pd = gen_prisoners_dilemma(5, 3, 1, 0)
        assert not better_responses(pd, (1, 1), 0)
        assert not better_responses(pd, (1, 1), 1)

    def test_deviation_space_always_contains_agreement(self):
        rng = random.Random(11)
        for _ in range(50):
            g = random_game(rng)
            for profile in g.profiles():
                for i in range(g.num_players):
                    space = deviation_space(g, profile, i)
                    assert profile in set(space.profiles())
                    for j, opts in enumerate(space.options):
                        assert profile[j] in opts


class TestValuePure:
    def test_figure1_walkthrough_cells(self):
        g = gen_named("figure1")
        assert value_pure(g, (0, 0)).value == (F(100), F(100))
        assert value_pure(g, (2, 1)).value == (F(5), F(0))
        assert value_pure(g, (0, 1)).value == (F(100), F(0))

    def test_witness_reproduces_value(self):
        rng = random.Random(12)
        for _ in range(60):
            g = random_game(rng)
            for profile in g.profiles():
                ev = value_pure(g, profile)
                for i, wit in enumerate(ev.witnesses):
                    assert g.payoff(wit)[i] == ev.value[i]
                    assert wit[i] == profile[i]  # own strategy held fixed

    def test_witness_is_lexicographically_smallest(self):
        g = NormalFormGame(
            ("a", "b"),
            (("x", "y"), ("u", "v", "w")),
            # Both v and w are profitable for the column player at (x, u) and
            # both give the row player the same payoff 1.
            [[(5, 0), (1, 2), (1, 3)], [(0, 0), (0, 0), (0, 0)]],
        )
        ev = value_pure(g, (0, 0))
        assert ev.value[0] == F(1)
        assert ev.witnesses[0] == (0, 1)

    def test_value_never_exceeds_payoff(self):
        rng = random.Random(13)
        for _ in range(120):
            g = random_game(rng)
            for profile in g.profiles():
                ev = value_pure(g, profile)
                u = g.payoff(profile)
                assert all(v <= x for v, x in zip(ev.value, u))


class TestValueTable:
    def test_figure1_golden_table(self):
        table = value_table(gen_named("figure1"))
        assert len(table) == 9
        for prof, expected in FIGURE1_VALUES.items():
            assert table[prof] == tuple(F(v) for v in expected)

    def test_constant_game_table_is_payoff_table(self):
        c = F(3)
        g = NormalFormGame(
            ("a", "b"), (("x", "y"), ("u", "v")), [[(c, c)] * 2] * 2
        )
        assert all(v == (c, c) for v in value_table(g).values())

    def test_motivating_game_values(self):
        table = value_table(gen_named("motivating"))
        assert table[(0, 0)] == (F(2), F(2))
        assert table[(0, 1)] == (F(0), F(1))
        assert table[(1, 0)] == (F(1), F(2))
        assert table[(1, 1)] == (F(1), F(1))

    def test_fast_path_matches_definition(self):
        rng = random.Random(14)
        for _ in range(120):
            g = random_game(rng, max_players=2, max_strats=4)
            table = value_table(g)
            for profile in g.profiles():
                assert table[profile] == brute_value_pure(g, profile)

    def test_fast_path_with_heavy_payoff_ties(self):
        # Narrow payoff range forces equal-payoff groups through the sorted
        # suffix-minimum path.
        rng = random.Random(27)
        for _ in range(60):
            g = random_game(rng, max_players=2, max_strats=6, lo=-2, hi=2)
            table = value_table(g)
            for profile in g.profiles():
                assert table[profile] == brute_value_pure(g, profile)

    def test_three_player_table_matches_definition(self):
        rng = random.Random(15)
        for _ in range(40):
            g = random_game(rng, max_players=3)
            table = value_table(g)
            for profile in g.profiles():
                assert table[profile] == brute_value_pure(g, profile)


class TestParetoFilter:
    # The kernel's own tests are in test_pareto.py; this one runs it on a table.
    def test_figure1_table_filters_to_top_left(self):
        table = value_table(gen_named("figure1"))
        kept = pareto_filter(list(table.items()), key=lambda kv: kv[1])
        assert [prof for prof, _ in kept] == [(0, 0)]


class TestOptiminPure:
    def test_motivating_game(self):
        assert [e.profile for e in optimin_pure(gen_named("motivating"))] == [(0, 0)]

    def test_prisoners_dilemma(self):
        pd = gen_prisoners_dilemma(5, 3, 1, 0)
        assert [e.profile for e in optimin_pure(pd)] == [(1, 1)]

    def test_battle_of_sexes(self):
        bos = gen_named("battle_of_sexes")
        assert [e.profile for e in optimin_pure(bos)] == [(0, 0), (1, 1)]

    def test_never_empty(self):
        rng = random.Random(17)
        for _ in range(100):
            assert optimin_pure(random_game(rng))

    def test_one_player_game_maximizes_payoff(self):
        g = NormalFormGame(("solo",), (("a", "b", "c"),), [(2,), (7,), (5,)])
        entries = optimin_pure(g)
        assert [e.profile for e in entries] == [(1,)]
        assert entries[0].value == (F(7),)
        assert nash_pure(g) == [(1,)]


class TestMaximin:
    def test_figure1_everything_is_maximin(self):
        for pm in maximin_profile(gen_named("figure1")):
            assert pm.strategies == (0, 1, 2)
            assert pm.security == F(0)

    def test_motivating_row_player(self):
        row = maximin_profile(gen_named("motivating"))[0]
        assert row.strategies == (1,)
        assert row.security == F(1)

    def test_matching_pennies(self):
        for pm in maximin_profile(matching_pennies()):
            assert pm.strategies == (0, 1)
            assert pm.security == F(-1)

    def test_widened_pipeline_equivalence(self):
        # Replacing the deviation space by the full opponent grid and Pareto
        # filtering collapses to per-player security maximization.
        rng = random.Random(18)
        for _ in range(80):
            g = random_game(rng)
            per_player = maximin_profile(g)
            widened = {
                prof: tuple(per_player[i].guarantees[prof[i]] for i in range(g.num_players))
                for prof in g.profiles()
            }
            kept = {
                prof
                for prof, _ in pareto_filter(list(widened.items()), key=lambda kv: kv[1])
            }
            import itertools

            expected = set(itertools.product(*(pm.strategies for pm in per_player)))
            assert kept == expected


class TestNashPure:
    def test_figure1(self):
        assert nash_pure(gen_named("figure1")) == [(2, 2)]

    def test_motivating(self):
        assert nash_pure(gen_named("motivating")) == [(0, 0)]

    def test_matching_pennies_has_none(self):
        assert nash_pure(matching_pennies()) == []

    def test_nash_value_equals_payoff(self):
        rng = random.Random(19)
        for _ in range(120):
            g = random_game(rng)
            for prof in nash_pure(g):
                assert value_pure(g, prof).value == g.payoff(prof)


class TestPropositions:
    def test_affine_invariance(self):
        rng = random.Random(20)
        for _ in range(80):
            g = random_game(rng)
            player = rng.randrange(g.num_players)
            alpha = F(rng.randint(1, 4), rng.randint(1, 3))
            beta = F(rng.randint(-5, 5))
            h = affine_transform(g, player, alpha, beta)
            orig = optimin_pure(g)
            scaled = optimin_pure(h)
            assert [e.profile for e in orig] == [e.profile for e in scaled]
            for before, after in zip(orig, scaled):
                for i in range(g.num_players):
                    expected = (
                        alpha * before.value[i] + beta if i == player else before.value[i]
                    )
                    assert after.value[i] == expected

    def test_constant_sum_nash_subset_of_optimin(self):
        rng = random.Random(21)
        for _ in range(150):
            g = random_constant_sum_game(rng)
            solutions = {e.profile for e in optimin_pure(g)}
            for prof in nash_pure(g):
                assert prof in solutions

    def test_fictitious_extension_contains_nash(self):
        rng = random.Random(22)
        for _ in range(100):
            g = random_game(rng)
            c = F(rng.randint(-6, 6))
            ext = fictitious_extension(g, c)
            solutions = {e.profile for e in optimin_pure(ext)}
            for prof in nash_pure(g):
                assert prof + (0,) in solutions

    def test_value_definition_with_explicit_own_payoff_min(self):
        # min{u_i(p), inf over deviations} never differs, because the
        # agreement itself always lies in the deviation space.
        rng = random.Random(23)
        for _ in range(60):
            g = random_game(rng)
            for profile in g.profiles():
                ev = value_pure(g, profile)
                u = g.payoff(profile)
                explicit = tuple(min(a, b) for a, b in zip(u, ev.value))
                assert explicit == ev.value


class TestMixedValues:
    def test_matching_pennies_at_mixed_nash(self):
        g = matching_pennies()
        half = F(1, 2)
        ev = value_mixed_2p(g, ((half, half), (half, half)))
        assert ev.value == (F(0), F(0))

    def test_matching_pennies_at_pure_heads(self):
        g = matching_pennies()
        one, zero = F(1), F(0)
        ev = value_mixed_2p(g, ((one, zero), (one, zero)))
        assert ev.value == (F(-1), F(-1))

    def test_rejects_three_players(self):
        rng = random.Random(24)
        g = random_game(rng, max_players=3)
        while g.num_players != 3:
            g = random_game(rng, max_players=3)
        uniform = tuple(
            tuple(F(1, m) for _ in range(m)) for m in g.shape
        )
        with pytest.raises(UnsupportedArityError):
            value_mixed_2p(g, uniform)

    def test_figure1_degenerate_cells(self):
        # Mixed deviations enlarge the deviation sets, so the mixed value can
        # drop strictly below the pure-deviation value; where the opponents'
        # minimizing deviations are pure, the two coincide.
        g = gen_named("figure1")
        pure_equal = [(0, 1), (0, 2), (1, 0), (1, 1), (2, 0), (2, 2)]
        for prof in pure_equal:
            mixed = value_mixed_2p(g, g.degenerate(prof)).value
            assert mixed == value_pure(g, prof).value
        # (Top,Left): the column player can slide weight onto Right while
        # keeping expected payoff >= 100, pushing the row player to 2000/21.
        top_left = value_mixed_2p(g, g.degenerate((0, 0))).value
        assert top_left == (F(2000, 21), F(2000, 21))
        assert value_mixed_2p(g, g.degenerate((2, 1))).value == (F(0), F(0))
        assert value_mixed_2p(g, g.degenerate((1, 2))).value == (F(0), F(0))

    def test_mixed_value_never_exceeds_pure_value(self):
        rng = random.Random(25)
        for _ in range(60):
            g = random_game(rng, max_players=2, max_strats=3)
            for prof in g.profiles():
                mixed = value_mixed_2p(g, g.degenerate(prof)).value
                pure = value_pure(g, prof).value
                assert all(m <= p for m, p in zip(mixed, pure))

    def test_witness_reproduces_mixed_value(self):
        rng = random.Random(26)
        for _ in range(40):
            g = random_game(rng, max_players=2, max_strats=3)
            for prof in g.profiles():
                ev = value_mixed_2p(g, g.degenerate(prof))
                for i, wit in enumerate(ev.witnesses):
                    assert g.expected_payoff(wit)[i] == ev.value[i]


class TestGridOptimin:
    def test_matching_pennies_grid_k2(self):
        g = matching_pennies()
        result = optimin_grid_2p(g, 2)
        assert result.kind == "grid-approximate"
        half = F(1, 2)
        center = ((half, half), (half, half))
        kept = {e.profile: e.value for e in result.entries}
        assert kept == {center: (F(0), F(0))}

    def test_k1_grid_is_the_pure_profiles(self):
        g = gen_named("motivating")
        result = optimin_grid_2p(g, 1)
        for entry in result.entries:
            for dist in entry.profile:
                assert sorted(dist) in ([F(0), F(1)], [F(1)])

    def test_k1_matches_pure_optimin_on_small_goldens(self):
        for tag in ("motivating", "battle_of_sexes", "prisoners_dilemma"):
            g = gen_named(tag)
            grid = optimin_grid_2p(g, 1)
            grid_profiles = {
                tuple(dist.index(F(1)) for dist in e.profile) for e in grid.entries
            }
            assert grid_profiles == {e.profile for e in optimin_pure(g)}

    def test_figure1_k1_admits_mixed_deviation_survivors(self):
        # Under mixed deviations (Top,Left) drops to 2000/21 < 100, so
        # (Top,Center) and (Middle,Left) become incomparable and survive.
        g = gen_named("figure1")
        grid = optimin_grid_2p(g, 1)
        profiles = {
            tuple(dist.index(F(1)) for dist in e.profile) for e in grid.entries
        }
        assert profiles == {(0, 0), (0, 1), (1, 0)}

    def test_oracle_enumeration_matching_pennies_k2(self):
        # Independent enumeration of all nine grid profiles.
        g = matching_pennies()
        grid = [
            (F(1), F(0)), (F(1, 2), F(1, 2)), (F(0), F(1)),
        ]
        entries = []
        for p in grid:
            for q in grid:
                entries.append(((p, q), value_mixed_2p(g, (p, q)).value))
        survivors = brute_pareto([v for _, v in entries])
        assert set(survivors) == {(F(0), F(0))}

    def test_equals_the_filter_over_every_grid_profile(self):
        # The grid search shares each grid point's payoff vectors between
        # profiles; it must give exactly the per-profile values and witnesses.
        from optimin.noncoop import grid_profiles_2p

        rng = random.Random(61)
        games = [gen_named("figure1"), matching_pennies()]
        games += [random_game(rng, max_players=2, max_strats=3) for _ in range(12)]
        games += [random_game(rng, max_players=2, max_strats=3, lo=0, hi=2) for _ in range(6)]
        for g in games:
            for k in (1, 2, 3):
                evaluated = [value_mixed_2p(g, p) for p in grid_profiles_2p(g, k)]
                expected = pareto_filter(evaluated, key=lambda e: e.value)
                assert optimin_grid_2p(g, k).entries == tuple(expected)

    def test_large_denominators_at_3136_profiles(self):
        # The filter's int keys scale each player's values to the lcm of their
        # denominators over the grid, which here runs to 83 and 97 digits.
        from optimin.noncoop import grid_profiles_2p

        rng = random.Random(63)
        labels = [f"s{k}" for k in range(6)]
        payoffs = [
            [[F(rng.randint(-20, 20), rng.randint(1, 12)) for _ in range(2)] for _ in labels]
            for _ in labels
        ]
        g = NormalFormGame(("row", "column"), (labels, labels), payoffs)
        profiles = grid_profiles_2p(g, 3)
        assert len(profiles) == 3136
        evaluated = [value_mixed_2p(g, p) for p in profiles]
        assert math.lcm(*(e.value[0].denominator for e in evaluated)) > 10**30
        expected = pareto_filter(evaluated, key=lambda e: e.value)
        assert optimin_grid_2p(g, 3).entries == tuple(expected)

    def test_grid_search_leaves_no_cyclic_garbage(self):
        # Cyclic garbage waits for the collector, and the grid search makes
        # too few objects to trigger it often, so a cycle per call piles up.
        g = gen_named("figure1")
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            optimin_grid_2p(g, 4)
            assert gc.collect() == 0
        finally:
            if was_enabled:
                gc.enable()

    def test_constant_game_keeps_every_profile_in_grid_order(self):
        from optimin.noncoop import grid_profiles_2p

        g = NormalFormGame(
            ("row", "column"),
            (("a", "b", "c"), ("x", "y")),
            [[(F(7, 3), -2)] * 2] * 3,
        )
        entries = optimin_grid_2p(g, 3).entries
        assert [e.profile for e in entries] == grid_profiles_2p(g, 3)
        assert len(entries) == 10 * 4
        for e in entries:
            assert e.value == (F(7, 3), F(-2))
            assert e.witnesses == (e.profile, e.profile)


class TestMaximinEquilibrium:
    def test_figure1_top_left(self):
        assert is_maximin_equilibrium(gen_named("figure1"), (0, 0))

    def test_pd_defect_defect(self):
        pd = gen_prisoners_dilemma(5, 3, 1, 0)
        assert is_maximin_equilibrium(pd, (1, 1))

    def test_pd_cooperate_defect(self):
        pd = gen_prisoners_dilemma(5, 3, 1, 0)
        assert not is_maximin_equilibrium(pd, (0, 1))

    def test_solution_membership_alone_suffices(self):
        # In the 2-node stop-or-continue game, mutual continuation survives the
        # filter even though continuing is not player 1's own-value maximizer,
        # so only the membership branch of the disjunction applies.
        from optimin import gen_centipede

        g = gen_centipede(2, "increasing")
        cc = g.profile_from_labels(("continue", "continue"))
        assert cc in [e.profile for e in optimin_pure(g)]
        v_stop = value_pure(g, g.profile_from_labels(("stop@1", "continue"))).value[0]
        v_cont = value_pure(g, cc).value[0]
        assert v_stop > v_cont          # per-player condition fails for player 1
        assert is_maximin_equilibrium(g, cc)
        assert not is_maximin_equilibrium(
            g, g.profile_from_labels(("continue", "stop@2"))
        )


class TestGridBounds:
    def test_large_grids_are_refused(self):
        from optimin import gen_travelers
        from optimin.noncoop import GRID_PROFILE_LIMIT, grid_profiles_2p

        g = gen_travelers(2, 100, 2)
        assert len(grid_profiles_2p(g, 1)) == 99 * 99  # degenerate grid allowed
        with pytest.raises(ResourceLimitError) as info:
            grid_profiles_2p(g, 2)
        message = str(info.value)
        assert str(GRID_PROFILE_LIMIT) in message
        # 4950 half-step mixtures over 99 claims per player
        assert str(4950 * 4950) in message
        assert "GRID_PROFILE_LIMIT" in message
        assert "--mixed-grid" in message


class TestValueTableBound:
    def test_large_tables_are_refused_before_any_cell(self, monkeypatch):
        def scanned(*args):
            raise AssertionError("a cell was scanned")

        monkeypatch.setattr(noncoop, "_deviation_cells", scanned)
        g = zero_game((6,) * 6)  # 46 656 cells, 6 · 7 776 profiles for each
        for solve in (value_table, optimin_pure):
            tracemalloc.start()
            try:
                with pytest.raises(ResourceLimitError) as info:
                    solve(g)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20
            message = str(info.value)
            assert str(46656 * 6 * 7776) in message
            assert str(noncoop.VALUE_TABLE_MAX_PROFILES) in message
            assert "VALUE_TABLE_MAX_PROFILES" in message

    def test_bound_counts_the_worst_case(self, monkeypatch):
        g = zero_game((3, 3, 3))  # 27 cells · 3 players · 9 profiles
        monkeypatch.setattr(noncoop, "VALUE_TABLE_MAX_PROFILES", 729)
        assert len(value_table(g)) == 27
        monkeypatch.setattr(noncoop, "VALUE_TABLE_MAX_PROFILES", 728)
        with pytest.raises(ResourceLimitError):
            value_table(g)
        # Player 0 earns their own strategy's index, so (0, 0, 0) is not their
        # maximin and the test falls through to the bounded table.
        u0 = [idx // 9 for idx in range(27)]
        g = NormalFormGame._from_scaled(["p0", "p1", "p2"], [["a", "b", "c"]] * 3, [u0, u0, u0], [1] * 3)
        with pytest.raises(ResourceLimitError):
            is_maximin_equilibrium(g, (0, 0, 0))
        # Two players keep the sorted line kernel, which no count bounds.
        monkeypatch.setattr(noncoop, "VALUE_TABLE_MAX_PROFILES", 0)
        assert len(value_table(zero_game((3, 3)))) == 9
