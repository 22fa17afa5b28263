import random
from fractions import Fraction as F

import pytest

from optimin import (
    DomainError,
    InvalidDistributionError,
    InvalidProfileError,
    NormalFormGame,
    StatisticalGame,
    UnsupportedFeatureError,
    bulmer_game,
    game_value,
    guarantee,
    maximin_lp,
    optimin_equals_maximin_check,
    optimin_grid_2p,
    value_mixed_2p,
)
from optimin.fileio import dump_game


def matching_pennies():
    return StatisticalGame(
        NormalFormGame(
            ("row", "column"),
            (("H", "T"), ("H", "T")),
            [[(1, -1), (-1, 1)], [(-1, 1), (1, -1)]],
        )
    )


def coin_rule_accuracy(rule, bias):
    """Oracle: walk the coin outcomes and count correct guesses exactly.

    `rule` maps a toss outcome to the guessed bias.
    """
    p_heads = bias
    total = F(0)
    for outcome, prob in (("heads", p_heads), ("tails", 1 - p_heads)):
        if rule(outcome) == bias:
            total += prob
    return total


class TestBulmerGame:
    def test_entries_match_the_outcome_enumeration(self):
        rules = {
            "never": lambda toss: F(1, 2),
            "always": lambda toss: F(1, 4),
            "if-heads": lambda toss: F(1, 4) if toss == "heads" else F(1, 2),
            "if-tails": lambda toss: F(1, 4) if toss == "tails" else F(1, 2),
        }
        sg = bulmer_game()
        g = sg.game
        assert g.strategies[0] == ("never", "always", "if-heads", "if-tails")
        for r, rule_name in enumerate(g.strategies[0]):
            for c, bias in enumerate((F(1, 4), F(1, 2))):
                expected = coin_rule_accuracy(rules[rule_name], bias)
                assert g.payoff((r, c))[0] == expected

    def test_never_row(self):
        g = bulmer_game().game
        assert [g.payoff((0, c))[0] for c in (0, 1)] == [F(0), F(1)]

    def test_if_tails_row(self):
        g = bulmer_game().game
        assert [g.payoff((3, c))[0] for c in (0, 1)] == [F(3, 4), F(1, 2)]

    def test_zero_sum_by_construction(self):
        g = bulmer_game().game
        for prof in g.profiles():
            u = g.payoff(prof)
            assert u[0] + u[1] == 0

    def test_equals_the_game_of_its_fraction_table(self):
        correct = [[F(0), F(1)], [F(1), F(0)], [F(1, 4), F(1, 2)], [F(3, 4), F(1, 2)]]
        table = NormalFormGame(
            ("statistician", "nature"),
            (("never", "always", "if-heads", "if-tails"), ("p=1/4", "p=1/2")),
            [[(p, -p) for p in row] for row in correct],
        )
        assert bulmer_game().game == table
        assert dump_game(bulmer_game().game) == dump_game(table)

    def test_two_tosses_not_generated(self):
        with pytest.raises(UnsupportedFeatureError):
            bulmer_game(tosses=2)

    @pytest.mark.parametrize("tosses", [True, 1.0])
    def test_a_toss_count_that_is_not_an_int_is_refused(self, tosses):
        with pytest.raises(UnsupportedFeatureError) as info:
            bulmer_game(tosses=tosses)
        assert str(info.value) == f"only the single-toss game is generated, got tosses={tosses}"


class TestMaximinLP:
    def test_bulmer_statistician(self):
        sol = maximin_lp(bulmer_game(), 0)
        assert sol.mixture == (F(1, 5), F(0), F(0), F(4, 5))
        assert sol.value == F(3, 5)

    def test_bulmer_nature(self):
        sol = maximin_lp(bulmer_game(), 1)
        assert sol.mixture == (F(2, 5), F(3, 5))
        assert sol.value == F(-3, 5)

    def test_matching_pennies(self):
        sol = maximin_lp(matching_pennies(), 0)
        assert sol.mixture == (F(1, 2), F(1, 2))
        assert sol.value == F(0)

    def test_non_zero_sum_rejected(self):
        g = NormalFormGame(("a", "b"), (("x",), ("y",)), [[(1, 0)]])
        with pytest.raises(DomainError):
            StatisticalGame(g)

    @pytest.mark.parametrize("player", [True, False, 2, -1, 1.0, "0"])
    def test_refuses_a_player_other_than_0_or_1(self, player):
        # The same refusal as every normal-form player argument.
        sg = bulmer_game()
        with pytest.raises(InvalidProfileError, match=r"^no player with index "):
            maximin_lp(sg, player)
        with pytest.raises(InvalidProfileError, match=r"^no player with index "):
            guarantee(sg, player, (F(1, 2), F(1, 2)))

    @pytest.mark.parametrize(
        "mixture, fault",
        [
            ((F(2), F(-1), F(0), F(0)), "negative probability -1"),
            ((F(1, 2), F(1, 4), F(0), F(0)), "sum to 3/4, not 1"),
            ((1, 0, 0, 0), "must be Fractions"),
            ((F(1, 2), F(1, 2)), "distribution over 2 strategies, game has 4"),
        ],
    )
    def test_guarantee_refuses_a_mixture_that_is_no_distribution(self, mixture, fault):
        with pytest.raises(InvalidDistributionError, match=fault):
            guarantee(bulmer_game(), 0, mixture)

    def test_duality_on_random_games(self):
        rng = random.Random(31)
        for _ in range(150):
            sg = _random_zero_sum(rng)
            assert maximin_lp(sg, 0).value == -maximin_lp(sg, 1).value

    def test_returned_mixture_attains_its_value(self):
        rng = random.Random(32)
        for _ in range(80):
            sg = _random_zero_sum(rng)
            for player in (0, 1):
                sol = maximin_lp(sg, player)
                assert guarantee(sg, player, sol.mixture) == sol.value


class TestMaximinCheck:
    def test_bulmer_pair(self):
        sg = bulmer_game()
        pair = ((F(1, 5), F(0), F(0), F(4, 5)), (F(2, 5), F(3, 5)))
        assert optimin_equals_maximin_check(sg, pair)

    def test_pure_heads_fails(self):
        sg = matching_pennies()
        profile = ((F(1), F(0)), (F(1, 2), F(1, 2)))
        assert not optimin_equals_maximin_check(sg, profile)

    def test_trivial_one_by_one(self):
        sg = StatisticalGame(
            NormalFormGame(("a", "b"), (("x",), ("y",)), [[(2, -2)]])
        )
        assert optimin_equals_maximin_check(sg, ((F(1),), (F(1),)))


class TestEquivalenceProperties:
    def test_maximin_pair_value_weakly_dominates_grid(self):
        rng = random.Random(33)
        for _ in range(60):
            sg = _random_zero_sum(rng, max_strats=2)
            pair = (maximin_lp(sg, 0).mixture, maximin_lp(sg, 1).mixture)
            pair_value = value_mixed_2p(sg.game, pair).value
            for p in _grid(sg.game, 2):
                v = value_mixed_2p(sg.game, p).value
                assert all(a >= b for a, b in zip(pair_value, v))

    def test_grid_survivors_attain_grid_best_guarantees(self):
        rng = random.Random(34)
        for _ in range(40):
            sg = _random_zero_sum(rng, max_strats=2)
            result = optimin_grid_2p(sg.game, 2)
            grid = _grid(sg.game, 2)
            best0 = max(guarantee(sg, 0, p[0]) for p in grid)
            best1 = max(guarantee(sg, 1, p[1]) for p in grid)
            for entry in result.entries:
                assert guarantee(sg, 0, entry.profile[0]) == best0
                assert guarantee(sg, 1, entry.profile[1]) == best1

    def test_grid_survivors_hit_game_value_when_optimum_on_grid(self):
        sg = matching_pennies()
        value = game_value(sg)
        result = optimin_grid_2p(sg.game, 2)
        for entry in result.entries:
            assert guarantee(sg, 0, entry.profile[0]) == value
            assert guarantee(sg, 1, entry.profile[1]) == -value


def _random_zero_sum(rng, max_strats=3) -> StatisticalGame:
    r = rng.randint(2, max_strats)
    c = rng.randint(2, max_strats)
    payoffs = [
        [(v := rng.randint(-5, 5), -v) for _ in range(c)] for _ in range(r)
    ]
    return StatisticalGame(
        NormalFormGame(
            ("row", "column"),
            ([f"r{k}" for k in range(r)], [f"c{k}" for k in range(c)]),
            payoffs,
        )
    )


def _grid(game, k):
    def side(m):
        out = []

        def rec(slot, left, acc):
            if slot == m - 1:
                out.append(acc + (F(left, k),))
                return
            for take in range(left + 1):
                rec(slot + 1, left - take, acc + (F(take, k),))

        rec(0, k, ())
        return out

    return [(p, q) for p in side(game.shape[0]) for q in side(game.shape[1])]
