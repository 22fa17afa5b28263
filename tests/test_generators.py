import itertools
import math
import random
import tracemalloc
import warnings
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optimin import (
    NormalFormGame,
    ParameterError,
    ResourceLimitError,
    better_responses,
    gen_centipede,
    gen_named,
    gen_prisoners_dilemma,
    gen_public_goods,
    gen_travelers,
    nash_pure,
    optimin_pure,
    sweep,
    value_pure,
)
from optimin.fileio import dump_game, parse_game
from optimin.generators import CENTIPEDE_MAX_NODES, GAME_TAGS, PUBLIC_GOODS_CELL_LIMIT, TRAVELERS_CELL_LIMIT


def optimin_labels(game):
    return [game.profile_labels(e.profile) for e in optimin_pure(game)]


# -- definition-direct oracles: nested Fraction tensors, one cell at a time --


def oracle_centipede(nodes: int, variant: str) -> NormalFormGame:
    def stop_payoff(k: int) -> tuple[F, F]:
        mover_first = k % 2 == 1
        if variant == "increasing":
            hi, lo = F(4 * 2 ** (k - 1)), F(2 ** (k - 1))
        else:
            total = 2 ** (nodes + 2)
            edge = total // 2 ** (k + 1)
            hi, lo = F(total // 2 + edge), F(total // 2 - edge)
        return (hi, lo) if mover_first else (lo, hi)

    own1 = [k for k in range(1, nodes + 1) if k % 2 == 1]
    own2 = [k for k in range(1, nodes + 1) if k % 2 == 0]
    s1 = tuple(f"stop@{k}" for k in own1) + ("continue",)
    s2 = tuple(f"stop@{k}" for k in own2) + ("continue",)
    end = stop_payoff(nodes + 1)  # nobody stopped; next mover's split stands

    def outcome(k1, k2):
        stops = [k for k in (k1, k2) if k is not None]
        return stop_payoff(min(stops)) if stops else end

    payoffs = [[outcome(k1, k2) for k2 in own2 + [None]] for k1 in own1 + [None]]
    return NormalFormGame(("player1", "player2"), (s1, s2), payoffs)


def oracle_prisoners_dilemma(t: F, r: F, p: F, s: F) -> NormalFormGame:
    strategies = ("Cooperate", "Defect")
    payoffs = [
        [(r, r), (s, t)],
        [(t, s), (p, p)],
    ]
    return NormalFormGame(("row", "column"), (strategies, strategies), payoffs)


def oracle_public_goods(n: int, e: F, m: F, levels) -> NormalFormGame:
    menu = sorted(set(levels))
    labels = tuple(str(c) for c in menu)
    players = tuple(f"player{i + 1}" for i in range(n))

    def build(depth: int, chosen: tuple[F, ...]):
        if depth == n:
            total = sum(chosen, F(0))
            return [e - c + m * total for c in chosen]
        return [build(depth + 1, chosen + (c,)) for c in menu]

    return NormalFormGame(players, (labels,) * n, build(0, ()))


def assert_same_game(got, want):
    assert got == want
    assert dump_game(got) == dump_game(want)


def random_fraction(rng: random.Random, lo: int, hi: int, max_den: int = 6) -> F:
    return F(rng.randint(lo, hi), rng.randint(1, max_den))


class TestIntGeneratorsMatchOracles:
    @pytest.mark.parametrize("variant", ["increasing", "constant"])
    def test_centipede(self, variant):
        for nodes in range(1, 61):
            assert_same_game(gen_centipede(nodes, variant), oracle_centipede(nodes, variant))

    def test_public_goods(self):
        rng = random.Random(19)
        for trial in range(60):
            n = rng.randint(2, 5)
            e = random_fraction(rng, 1, 30)
            m = random_fraction(rng, 1, 12, 8)  # two thirds of them >= 1
            levels = [e * random_fraction(rng, 0, 6, 6) / 6 for _ in range(rng.randint(2, 4))]
            levels = [min(c, e) for c in levels] + [levels[0]]  # a duplicate, unsorted
            if len(set(levels)) < 2 or len(set(levels)) ** n > 1024:
                continue
            # The generator reads exact strings; the oracle gets Fractions.
            args = (n, str(e), str(m), [str(c) for c in levels])
            assert_same_game(gen_public_goods(*args), oracle_public_goods(n, e, m, levels))
            assert_same_game(gen_public_goods(n, e, m, levels), oracle_public_goods(n, e, m, levels))

    def test_prisoners_dilemma(self):
        rng = random.Random(19)
        for trial in range(100):
            values = sorted({random_fraction(rng, -20, 20) for _ in range(4)}, reverse=True)
            if len(values) < 4:
                continue
            assert_same_game(gen_prisoners_dilemma(*values), oracle_prisoners_dilemma(*values))
            assert_same_game(
                gen_prisoners_dilemma(*map(str, values)), oracle_prisoners_dilemma(*values)
            )

    def test_fractions_built_do_not_grow_with_cells(self, count_fractions):
        # 1 024 and 10 201 cells; the parent's nested builders made a
        # Fraction per payoff.
        menu = ["0", "7/3"]
        with count_fractions() as built:
            gen_public_goods(10, "7/2", "2/3", menu)
        assert len(built) <= len(menu) + 4
        with count_fractions() as built:
            gen_centipede(200, "increasing")
            gen_centipede(200, "constant")
            gen_prisoners_dilemma("7/2", 3, "1/2", 0)
        assert len(built) <= 4


class TestTravelers:
    def test_undercut_cell(self):
        g = gen_travelers(2, 100, 2)
        prof = g.profile_from_labels(("100", "99"))
        assert g.payoff(prof) == (F(97), F(101))

    def test_diagonal(self):
        g = gen_travelers(2, 100, 7)
        for k in (2, 50, 100):
            prof = g.profile_from_labels((str(k), str(k)))
            assert g.payoff(prof) == (F(k), F(k))

    def test_unique_nash_is_lowest_pair(self):
        g = gen_travelers(2, 100, 2)
        assert [g.profile_labels(p) for p in nash_pure(g)] == [("2", "2")]

    def test_antisymmetry_across_the_diagonal(self):
        g = gen_travelers(2, 20, 3)
        for a in range(19):
            for b in range(a + 1, 19):
                u = g.payoff((a, b))
                assert g.payoff((b, a)) == (u[1], u[0])

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(2, 40),
        st.integers(1, 40),
        st.integers(1, 12).flatmap(lambda q: st.builds(F, st.integers(q + 1, 60 * q), st.just(q))),
    )
    def test_every_cell_matches_the_definition(self, low, width, r):
        # r reaches past the claim range as well as below it, and r = p/q
        # puts every payoff over q.  Player 2's payoffs are built as the
        # transpose of player 1's, so each cell is checked for both.
        claims = range(low, low + width + 1)
        g = gen_travelers(low, claims[-1], r)
        assert g.strategies == (tuple(map(str, claims)),) * 2
        for (a, x), (b, y) in itertools.product(enumerate(claims), repeat=2):
            if x == y:
                want = (F(x), F(x))
            elif x < y:
                want = (x + r, x - r)
            else:
                want = (y - r, y + r)
            assert g.payoff((a, b)) == want
        # gen_travelers sets the symmetry flag itself; a fresh check must agree.
        assert g._symmetric is True
        g._symmetric = None
        assert g._is_symmetric()

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            gen_travelers(2, 100, 1)
        with pytest.raises(ParameterError):
            gen_travelers(100, 2, 5)

    def test_cell_bound(self):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError) as info:
                gen_travelers(2, 10**9, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # refused before the claim lists exist
        message = str(info.value)
        assert str(TRAVELERS_CELL_LIMIT) in message
        assert str((10**9 - 1) ** 2) in message
        assert "--high" in message
        side = math.isqrt(TRAVELERS_CELL_LIMIT)
        with pytest.raises(ResourceLimitError):
            gen_travelers(2, side + 2, 2)

    def test_small_reward_rewards_high_claims(self):
        g = gen_travelers(2, 30, 2)
        assert optimin_labels(g) == [("30", "30")]

    def test_large_reward_kills_high_claims(self):
        # Beyond the crossover the top pair leaves the solution set and the
        # bottom pair enters; the near-top asymmetric cells stay because the
        # undercut winner has no profitable deviation, locking the loser in.
        g = gen_travelers(2, 30, 20)
        labels = optimin_labels(g)
        assert ("2", "2") in labels
        assert ("30", "30") not in labels
        assert set(labels) == {("2", "2"), ("29", "30"), ("30", "29")}


class TestCentipede:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"nodes": 0}, "node count must be a positive integer, got 0"),
            ({"variant": "decreasing"}, "variant must be 'increasing' or 'constant', got 'decreasing'"),
            ({"nodes": True}, "node count must be a positive integer, got True"),
            ({"nodes": 2.0}, "node count must be a positive integer, got 2.0"),
        ],
    )
    def test_parameters_refused(self, kwargs, message):
        with pytest.raises(ParameterError) as info:
            gen_centipede(**kwargs)
        assert str(info.value) == message

    def test_one_node_game_shape(self):
        g = gen_centipede(1, "increasing")
        assert g.shape == (2, 1)
        assert optimin_labels(g) == [("stop@1", "continue")]

    def test_increasing_pot_doubles(self):
        g = gen_centipede(4, "increasing")
        prof = g.profile_from_labels(("stop@3", "continue"))
        assert g.payoff(prof) == (F(16), F(4))
        full = g.profile_from_labels(("continue", "continue"))
        assert g.payoff(full) == (F(64), F(16))

    def test_constant_sum_variant_is_constant_sum(self):
        from optimin import is_constant_sum

        for nodes in (1, 2, 5):
            check = is_constant_sum(gen_centipede(nodes, "constant"))
            assert check.is_constant_sum

    def test_constant_sum_stops_immediately(self):
        for nodes in (1, 2, 3, 5):
            g = gen_centipede(nodes, "constant")
            labels = optimin_labels(g)
            assert labels, "never empty"
            assert all(p[0] == "stop@1" for p in labels)
            assert len(labels) == g.shape[1]  # every column, same outcome

    def test_increasing_cooperates_from_four_nodes(self):
        for nodes in (4, 5, 6, 7, 8):
            g = gen_centipede(nodes, "increasing")
            assert optimin_labels(g) == [("continue", "continue")]

    def test_node_bound(self):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError) as info:
                gen_centipede(100_000, "constant")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # refused before any payoff exists
        message = str(info.value)
        assert str(CENTIPEDE_MAX_NODES) in message
        assert "100000 nodes" in message
        assert "CENTIPEDE_MAX_NODES" in message
        assert "--nodes" in message
        for variant in ("increasing", "constant"):
            with pytest.raises(ResourceLimitError):
                gen_centipede(CENTIPEDE_MAX_NODES + 1, variant)

    def test_two_nodes_mixes_stop_and_cooperation(self):
        g = gen_centipede(2, "increasing")
        labels = set(optimin_labels(g))
        assert ("continue", "continue") in labels
        assert ("stop@1", "stop@2") in labels


class TestPrisonersDilemma:
    def test_ordering_enforced(self):
        with pytest.raises(ParameterError):
            gen_prisoners_dilemma(3, 5, 1, 0)

    def test_defection_strictly_dominant(self):
        g = gen_prisoners_dilemma(5, 3, 1, 0)
        for prof in g.profiles():
            for player in (0, 1):
                brs = better_responses(g, prof, player)
                if prof[player] == 0:  # cooperating: defecting always improves
                    assert brs.responses == (1,)
                else:
                    assert brs.responses == ()

    def test_payoff_pareto_rankings(self):
        g = gen_prisoners_dilemma(5, 3, 1, 0)
        cc, dd = g.payoff((0, 0)), g.payoff((1, 1))
        assert all(a > b for a, b in zip(cc, dd))
        vcc = value_pure(g, (0, 0)).value
        vdd = value_pure(g, (1, 1)).value
        assert all(a > b for a, b in zip(vdd, vcc))


class TestPublicGoods:
    @pytest.mark.parametrize("n", [1, True, 2.5])
    def test_player_count_refused(self, n):
        with pytest.raises(ParameterError) as info:
            gen_public_goods(n)
        assert str(info.value) == f"need at least 2 players, got {n} (--n)"

    def test_payoffs(self):
        g = gen_public_goods(2, 10, F(9, 10), (0, 10))
        full = g.profile_from_labels(("10", "10"))
        assert g.payoff(full) == (F(18), F(18))
        lone = g.profile_from_labels(("10", "0"))
        assert g.payoff(lone) == (F(9), F(19))

    def test_low_return_free_rides(self):
        g = gen_public_goods(2, 10, F(1, 10), (0, 10))
        assert optimin_labels(g) == [("0", "0")]
        assert [g.profile_labels(p) for p in nash_pure(g)] == [("0", "0")]

    def test_below_unit_return_still_free_rides(self):
        # With a one-shot game, any return rate below 1 leaves defection's
        # worst case on top; the flip happens exactly at 1.
        g = gen_public_goods(2, 10, F(9, 10), (0, 10))
        assert optimin_labels(g) == [("0", "0")]

    def test_unit_and_higher_return_cooperates(self):
        for m in (F(1), F(3, 2)):
            g = gen_public_goods(2, 10, m, (0, 10))
            assert optimin_labels(g) == [("10", "10")]

    def test_return_rate_above_one_builds_without_a_warning(self):
        # A return rate >= 1 is a valid game; `sweep` crosses it.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = gen_public_goods(2, 10, F(3, 2), (0, 10))
        assert g.payoff(g.profile_from_labels(("10", "0"))) == (F(15), F(25))

    def test_three_players(self):
        g = gen_public_goods(3, 6, F(1, 2), (0, 3, 6))
        assert g.shape == (3, 3, 3)
        prof = g.profile_from_labels(("3", "0", "6"))
        total = F(9, 2)
        assert g.payoff(prof) == (3 + total, 6 + total, total)

    def test_cell_bound(self):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError) as info:
                gen_public_goods(10**6, 10, F(1, 2), (0, 5, 10))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # refused before any cell or power of 3 exists
        message = str(info.value)
        assert str(PUBLIC_GOODS_CELL_LIMIT) in message
        assert "1000000 players" in message
        assert "3 levels" in message
        assert "PUBLIC_GOODS_CELL_LIMIT" in message
        players = PUBLIC_GOODS_CELL_LIMIT.bit_length() - 1  # 2**players cells, the bound
        assert 2**players == PUBLIC_GOODS_CELL_LIMIT
        with pytest.raises(ResourceLimitError):
            gen_public_goods(players + 1, 10, F(1, 2), (0, 10))


class TestNamed:
    def test_figure1_cells(self):
        g = gen_named("figure1")
        assert g.payoff((0, 0)) == (F(100), F(100))

    def test_motivating_cell(self):
        g = gen_named("motivating")
        assert g.payoff(g.profile_from_labels(("U", "R"))) == (F(0), F(1))

    def test_empty_core_worths(self):
        g = gen_named("coop_empty_core")
        assert g.worth(0b110) == F(70)  # players 2 and 3
        assert g.worth(0b111) == F(110)

    def test_unknown_tag(self):
        with pytest.raises(ParameterError):
            gen_named("nope")


def test_the_symmetric_games_among_the_generators():
    # Unchanged under every permutation of the players: these games keep
    # every payoff line's order under the last player alone, and a
    # two-player one's value table reads player 2's values off player 1's.
    built = {tag: gen_named(tag) for tag in GAME_TAGS}
    built.update(
        travelers=gen_travelers(),
        travelers_r5=gen_travelers(10, 20, 5),
        centipede=gen_centipede(),
        public_goods_2=gen_public_goods(2),
        public_goods_3=gen_public_goods(3),
        public_goods_4=gen_public_goods(4),
    )
    symmetric = sorted(name for name, game in built.items() if game._is_symmetric())
    assert symmetric == [
        "figure1", "prisoners_dilemma", "public_goods_2", "public_goods_3", "public_goods_4", "travelers", "travelers_r5"
    ]


class TestRoundTrip:
    def test_generators_round_trip_byte_identically(self):
        games = [
            gen_travelers(2, 6, F(5, 2)),
            gen_centipede(3, "increasing"),
            gen_centipede(2, "constant"),
            gen_prisoners_dilemma(5, 3, 1, 0),
            gen_named("figure1"),
            gen_named("motivating"),
        ]
        games.append(gen_public_goods(2, 10, F(2, 5), (0, 5, 10)))
        for g in games:
            text = dump_game(g)
            again = parse_game(text)
            assert dump_game(again) == text
            assert again == g


class TestSweep:
    def test_travelers_small_range(self):
        result = sweep("travelers", "r", range(2, 8), low=2, high=12)
        assert result.row_for(2).optimin == (("12", "12"),)
        assert result.row_for(2).nash == (("2", "2"),)

    def test_centipede_cooperation_by_four_nodes(self):
        result = sweep("centipede", "nodes", range(1, 9), variant="increasing")
        assert result.threshold is not None and result.threshold <= 4
        for row in result.rows:
            if row.parameter >= 4:
                assert row.optimin == (("continue", "continue"),)

    @pytest.mark.parametrize(
        "family, parameter, values, fixed, build",
        [
            ("travelers", "r", [2, F(5, 2), 7, 30], dict(low=3, high=15), lambda v: gen_travelers(3, 15, v)),
            ("centipede", "nodes", range(1, 6), dict(variant="constant"), lambda v: gen_centipede(v, "constant")),
            ("public_goods", "mpcr", [F(1, 2), F(3, 2)], dict(n=3), lambda v: gen_public_goods(3, mpcr=v)),
        ],
        ids=["travelers", "centipede", "public_goods"],
    )
    def test_rows_hold_the_solution_set(self, family, parameter, values, fixed, build):
        # `sweep` decodes the surviving cells without building witnesses.
        result = sweep(family, parameter, values, **fixed)
        for value, row in zip(values, result.rows, strict=True):
            game = build(value)
            assert row.optimin == tuple(optimin_labels(game))
            assert row.nash == tuple(map(game.profile_labels, nash_pure(game)))

    def test_public_goods_flip_at_unit_return(self):
        values = [F(1, 10), F(1, 2), F(9, 10), F(1), F(11, 10)]
        result = sweep("public_goods", "mpcr", values, n=2, endowment=10, levels=(0, 10))
        assert result.threshold == F(1)
        assert result.row_for(F(9, 10)).optimin == (("0", "0"),)
        assert result.row_for(F(11, 10)).optimin == (("10", "10"),)
        with pytest.raises(ParameterError) as info:
            result.row_for("3/4")
        assert str(info.value) == "no sweep row at 3/4"

    def test_unknown_family(self):
        with pytest.raises(ParameterError):
            sweep("nope", "x", [1])

    @pytest.mark.parametrize("fixed", [{"nodes": 7}, {"r": 3}, {"high": 5, "nodes": 7}])
    def test_a_keyword_the_family_does_not_fix_is_refused(self, fixed):
        # centipede's nodes is no travelers parameter, and r is the swept one.
        with pytest.raises(ParameterError) as info:
            sweep("travelers", "r", [2], **fixed)
        name = "r" if "r" in fixed else "nodes"
        assert str(info.value) == f"{name!r} is not a fixed parameter of the travelers sweep"
