import random
from fractions import Fraction as F

import pytest

from optimin import (
    InvalidDistributionError,
    InvalidProfileError,
    InvalidScaleError,
    NormalFormGame,
    affine_transform,
    fictitious_extension,
    gen_named,
    gen_prisoners_dilemma,
    is_constant_sum,
)
from conftest import random_game


def matching_pennies():
    return NormalFormGame(
        ("row", "column"),
        (("H", "T"), ("H", "T")),
        [[(1, -1), (-1, 1)], [(-1, 1), (1, -1)]],
    )


class TestPayoff:
    def test_figure1_cells(self):
        g = gen_named("figure1")
        assert g.payoff((0, 0)) == (F(100), F(100))
        assert g.payoff((2, 1)) == (F(210), F(0))

    def test_single_cell_game(self):
        g = NormalFormGame(("a", "b"), (("x",), ("y",)), [[(3, 4)]])
        assert g.payoff((0, 0)) == (F(3), F(4))

    def test_out_of_range_profile(self):
        g = gen_named("figure1")
        with pytest.raises(InvalidProfileError):
            g.payoff((0, 3))
        with pytest.raises(InvalidProfileError):
            g.payoff((0,))

    def test_labels_round_trip(self):
        g = gen_named("figure1")
        assert g.profile_labels((1, 2)) == ("Middle", "Right")
        assert g.profile_from_labels(("Middle", "Right")) == (1, 2)
        with pytest.raises(InvalidProfileError):
            g.profile_from_labels(("Middle", "nope"))


class TestExpectedPayoff:
    def test_uniform_matching_pennies(self):
        g = matching_pennies()
        half = F(1, 2)
        assert g.expected_payoff(((half, half), (half, half))) == (F(0), F(0))

    def test_degenerate_equals_pure(self):
        g = gen_named("figure1")
        assert g.expected_payoff(g.degenerate((0, 0))) == (F(100), F(100))

    def test_constant_game(self):
        c = F(7)
        g = NormalFormGame(
            ("a", "b"), (("x", "y"), ("u", "v")), [[(c, c)] * 2, [(c, c)] * 2]
        )
        mixed = ((F(1, 3), F(2, 3)), (F(1, 4), F(3, 4)))
        assert g.expected_payoff(mixed) == (c, c)

    def test_rejects_bad_distribution(self):
        g = matching_pennies()
        with pytest.raises(InvalidDistributionError):
            g.expected_payoff(((F(1, 2), F(1, 3)), (F(1, 2), F(1, 2))))
        with pytest.raises(InvalidDistributionError):
            g.expected_payoff(((F(3, 2), F(-1, 2)), (F(1, 2), F(1, 2))))

    def test_degenerate_matches_pure_on_random_games(self):
        rng = random.Random(101)
        for _ in range(150):
            g = random_game(rng)
            for profile in g.profiles():
                assert g.expected_payoff(g.degenerate(profile)) == g.payoff(profile)

    def test_multilinearity_in_one_coordinate(self):
        # Fixing the others, expectation is the exact mixture of pure slices.
        rng = random.Random(102)
        for _ in range(60):
            g = random_game(rng, max_players=2)
            w = F(rng.randint(1, 3), 4)
            mix0 = (w, 1 - w) + (F(0),) * (g.shape[0] - 2)
            other = tuple(
                F(1, g.shape[1]) for _ in range(g.shape[1])
            )
            combined = g.expected_payoff((mix0, other))
            slice0 = g.expected_payoff((g.degenerate((0, 0))[0], other))
            slice1 = g.expected_payoff((g.degenerate((1, 0))[0], other))
            expected = tuple(w * a + (1 - w) * b for a, b in zip(slice0, slice1))
            assert combined == expected


class TestAffineTransform:
    def test_identity(self):
        g = gen_named("figure1")
        assert affine_transform(g, 0, 1, 0) == g

    def test_figure1_player1(self):
        g = affine_transform(gen_named("figure1"), 0, 2, 1)
        assert g.payoff((0, 0)) == (F(201), F(100))

    def test_pd_shift(self):
        g = affine_transform(gen_prisoners_dilemma(5, 3, 1, 0), 0, 1, -1)
        assert g.payoff((0, 0)) == (F(2), F(3))
        assert g.payoff((1, 0)) == (F(4), F(0))
        assert g.payoff((0, 1)) == (F(-1), F(5))
        assert g.payoff((1, 1)) == (F(0), F(1))

    def test_rejects_nonpositive_scale(self):
        g = gen_named("figure1")
        with pytest.raises(InvalidScaleError):
            affine_transform(g, 0, 0, 1)
        with pytest.raises(InvalidScaleError):
            affine_transform(g, 0, -2, 1)

    def test_composition(self):
        rng = random.Random(103)
        for _ in range(40):
            g = random_game(rng)
            player = rng.randrange(g.num_players)
            a1, b1 = F(rng.randint(1, 5)), F(rng.randint(-4, 4))
            a2, b2 = F(rng.randint(1, 5), 2), F(rng.randint(-4, 4))
            twice = affine_transform(affine_transform(g, player, a1, b1), player, a2, b2)
            once = affine_transform(g, player, a2 * a1, a2 * b1 + b2)
            assert twice == once


class TestConstantSum:
    def test_matching_pennies(self):
        check = is_constant_sum(matching_pennies())
        assert check.is_constant_sum and check.constant == 0

    def test_figure1_is_not(self):
        assert not is_constant_sum(gen_named("figure1")).is_constant_sum

    def test_one_player_game(self):
        flat = NormalFormGame(("solo",), (("a", "b"),), [(4,), (4,)])
        assert is_constant_sum(flat) == (True, F(4))
        bumpy = NormalFormGame(("solo",), (("a", "b"),), [(4,), (5,)])
        assert not is_constant_sum(bumpy).is_constant_sum


class TestFictitiousExtension:
    def test_zero_sum_game_gets_zero(self):
        g = fictitious_extension(matching_pennies(), 0)
        assert all(g.payoff(prof)[2] == 0 for prof in g.profiles())

    def test_motivating_game_constant_4(self):
        g = fictitious_extension(gen_named("motivating"), 4)
        assert g.payoff((0, 0, 0))[2] == F(0)
        assert g.payoff((0, 1, 0))[2] == F(3)
        assert g.payoff((1, 0, 0))[2] == F(1)
        assert g.payoff((1, 1, 0))[2] == F(2)

    def test_figure1_constant_210(self):
        g = fictitious_extension(gen_named("figure1"), 210)
        assert g.payoff((0, 0, 0))[2] == F(10)

    def test_always_constant_sum(self):
        rng = random.Random(104)
        for _ in range(100):
            g = random_game(rng)
            c = F(rng.randint(-10, 10))
            check = is_constant_sum(fictitious_extension(g, c))
            assert check.is_constant_sum and check.constant == c


class TestValidation:
    def test_tensor_shape_must_match(self):
        with pytest.raises(ValueError):
            NormalFormGame(("a", "b"), (("x", "y"), ("u",)), [[(1, 2), (3, 4)]])

    def test_cell_width_must_match_players(self):
        with pytest.raises(ValueError):
            NormalFormGame(("a", "b"), (("x",), ("u",)), [[(1, 2, 3)]])

    def test_empty_strategy_list_rejected(self):
        with pytest.raises(ValueError):
            NormalFormGame(("a", "b"), (("x",), ()), [[]])
