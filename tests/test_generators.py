import math
import tracemalloc
import warnings
from fractions import Fraction as F

import pytest

from optimin import (
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
from optimin.generators import CENTIPEDE_MAX_NODES, PUBLIC_GOODS_CELL_LIMIT, TRAVELERS_CELL_LIMIT


def optimin_labels(game):
    return [game.profile_labels(e.profile) for e in optimin_pure(game)]


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
    def test_payoffs(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
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
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for m in (F(1), F(3, 2)):
                g = gen_public_goods(2, 10, m, (0, 10))
                assert optimin_labels(g) == [("10", "10")]

    def test_warning_above_unit_return(self):
        with pytest.warns(UserWarning):
            gen_public_goods(2, 10, F(3, 2), (0, 10))

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
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
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

    def test_public_goods_flip_at_unit_return(self):
        values = [F(1, 10), F(1, 2), F(9, 10), F(1), F(11, 10)]
        result = sweep("public_goods", "mpcr", values, n=2, endowment=10, levels=(0, 10))
        assert result.threshold == F(1)
        assert result.row_for(F(9, 10)).optimin == (("0", "0"),)
        assert result.row_for(F(11, 10)).optimin == (("10", "10"),)

    def test_unknown_family(self):
        with pytest.raises(ParameterError):
            sweep("nope", "x", [1])
