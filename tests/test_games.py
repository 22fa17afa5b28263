import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optimin import (
    Constraint,
    InvalidDistributionError,
    InvalidProfileError,
    InvalidScaleError,
    MarriageProblem,
    Matching,
    NormalFormGame,
    StatisticalGame,
    TUGame,
    affine_transform,
    better_responses,
    deviation_space,
    fictitious_extension,
    gen_named,
    gen_prisoners_dilemma,
    is_constant_sum,
    value_pure,
)
from optimin.games import simplex_columns
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

    def test_label_of_a_player_already_named_fictitious(self):
        g = NormalFormGame(("fictitious", "fictitious'"), (("x",), ("y",)), [[(1, 2)]])
        extended = fictitious_extension(g, 5)
        assert extended.players == ("fictitious", "fictitious'", "fictitious''")
        assert extended.payoff((0, 0, 0)) == (F(1), F(2), F(2))

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


# Every label fault, as both constructors refuse it: the field, and for a
# repeat the label, which is compared after `str` (so 1 repeats "1").
LABEL_FAULTS = [
    ((), (), "players: expected at least one label"),
    (("a", "b", "a"), (("x",), ("y",), ("z",)), "players: repeated label 'a'"),
    ((1, "1"), (("x",), ("y",)), "players: repeated label '1'"),
    (("a", "b"), (("x",),), "strategies: expected 2 strategy lists"),
    (("a", "b"), (("x",), ("y",), ("z",)), "strategies: expected 2 strategy lists"),
    (("a", "b"), (("x",), ()), "strategies[1]: expected at least one label"),
    (("a", "b"), (("x",), ("y", "é", "y")), "strategies[1]: repeated label 'y'"),
    (("a", "b"), (("x", "x"), ()), "strategies[0]: repeated label 'x'"),
]


@pytest.mark.parametrize("players, strategies, message", LABEL_FAULTS)
def test_label_faults_are_named(players, strategies, message):
    for build in (
        lambda: NormalFormGame(players, strategies, [[(0, 0)]]),
        lambda: NormalFormGame._from_scaled(players, strategies, [[0]] * len(players), 1),
    ):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message


# Every refusal of `validate_mixed`, byte for byte, on figure1 (players "row"
# and "column", 3 strategies each).  A distribution is refused at its first
# entry that is not a `Fraction` or is negative, before its sum is checked.
UNIFORM = (F(1, 3), F(1, 3), F(1, 3))
MIXED_REFUSALS = [
    ((UNIFORM,), "mixed profile has 1 entries for a 2-player game"),
    ((UNIFORM, UNIFORM, UNIFORM), "mixed profile has 3 entries for a 2-player game"),
    (((F(1), F(0)), UNIFORM), "player 'row': distribution over 2 strategies, game has 3"),
    ((UNIFORM, (F(1),) * 4), "player 'column': distribution over 4 strategies, game has 3"),
    (((F(1), 0, F(0)), UNIFORM), "player 'row': probabilities must be Fractions"),
    (((F(1), "0", F(0)), UNIFORM), "player 'row': probabilities must be Fractions"),
    (((F(1, 2), F(-1, 2), F(1)), UNIFORM), "player 'row': negative probability -1/2"),
    (((F(-1), 1, F(2)), UNIFORM), "player 'row': negative probability -1"),
    (((F(1), 0.5, F(-1)), UNIFORM), "player 'row': probabilities must be Fractions"),
    (((F(1, 2), F(1, 3), F(0)), UNIFORM), "player 'row': probabilities sum to 5/6, not 1"),
    ((UNIFORM, (F(1), F(1), F(0))), "player 'column': probabilities sum to 2, not 1"),
    (((F(0),) * 3, (F(1), F(1), F(0))), "player 'row': probabilities sum to 0, not 1"),
]


@pytest.mark.parametrize("profile, message", MIXED_REFUSALS)
def test_validate_mixed_refusals_are_pinned(profile, message):
    g = gen_named("figure1")
    with pytest.raises(InvalidDistributionError) as info:
        g.validate_mixed(profile)
    assert str(info.value) == message
    with pytest.raises(InvalidDistributionError) as info:
        g.expected_payoff(profile)
    assert str(info.value) == message


def test_validate_mixed_builds_no_fraction(count_fractions):
    # Each distribution is read once, to ints over its own denominator.
    g = NormalFormGame(("a", "b", "c"), (("x", "y"), ("u", "v", "w"), ("z",)), [[[(1, 2, 3)]] * 3] * 2)
    profile = ((F(1, 3), F(2, 3)), (F(1, 6), F(0), F(5, 6)), (F(1),))
    with count_fractions() as built:
        read = g.validate_mixed(profile)
    assert built == []
    assert read == [([1, 2], 3), ([1, 0, 5], 6), ([1], 1)]


def test_validate_profile_returns_the_cell_index():
    g = NormalFormGame(("a", "b", "c"), (("x", "y"), ("u", "v", "w"), ("z", "t")), [[[(0, 0, 0)] * 2] * 3] * 2)
    cells = [g.validate_profile(p) for p in g.profiles()]
    assert cells == list(range(12))


@pytest.mark.parametrize("profile, message", [
    ((True, False), "strategy index True out of range for player 'row'"),
    ((0, False), "strategy index False out of range for player 'column'"),
], ids=["row", "column"])
def test_a_bool_is_no_strategy_index(profile, message):
    # `True == 1`: read as indices, (True, False) would name the (Middle, Left) cell.
    g = gen_named("figure1")
    for call in (g.payoff, g.profile_labels, lambda p: value_pure(g, p), lambda p: better_responses(g, p, 0)):
        with pytest.raises(InvalidProfileError) as info:
            call(profile)
        assert str(info.value) == message


@pytest.mark.parametrize("player", [2, 5, -1, True, False, 1.0, "1"])
def test_every_player_argument_names_a_player(player):
    g = gen_named("figure1")
    calls = (
        lambda: better_responses(g, (0, 0), player),
        lambda: deviation_space(g, (0, 0), player),
        lambda: affine_transform(g, player, 2, 1),
    )
    for call in calls:
        with pytest.raises(InvalidProfileError) as info:
            call()
        assert str(info.value) == f"no player with index {player!r}"


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5), st.integers(0, 7))
def test_simplex_columns_match_their_definition(size, total):
    # Every int tuple of `size` nonnegative shares summing to `total`, in
    # lexicographic order, one column per share.
    shares = [s for s in itertools.product(range(total + 1), repeat=size) if sum(s) == total]
    assert simplex_columns(size, total) == [list(column) for column in zip(*shares)]


@st.composite
def scaled_column(draw, length):
    """`length` int payoffs over a denominator d in 1..60 that share a factor
    f of d, except, when drawn, one entry that breaks it; the break may come
    after any number of entries, or never.  The other entries cycle through
    a drawn list of 1 to `length` multiples of f, so that a failure shrinks
    in seconds rather than minutes."""
    f = draw(st.integers(1, 60))
    d = f * draw(st.integers(1, 60 // f))
    xs = draw(st.lists(st.integers(-10**9, 10**9), min_size=1, max_size=length))
    column = [f * xs[k % len(xs)] for k in range(length)]
    at = draw(st.none() | st.integers(0, length - 1))
    if at is not None:
        column[at] += 1  # f * x + 1 shares no factor with f
    return column, d


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 300).flatmap(lambda length: st.tuples(scaled_column(length), scaled_column(length))))
def test_from_scaled_is_the_canonical_form(columns):
    # A game has a cell, so no column is empty.  Both players' columns are
    # handed over at the lcm d of their denominators.  Every int and d must
    # be divided by the gcd of all of them, however far into either column
    # the last factor breaks, and give the game that the constructor reads
    # from the same payoffs as Fractions.
    (u1, d1), (u2, d2) = columns
    d = math.lcm(d1, d2)
    scaled = [u * (d // d1) for u in u1], [u * (d // d2) for u in u2]
    strategies = ([f"s{k}" for k in range(len(u1))], ["t"])
    game = NormalFormGame._from_scaled(("p1", "p2"), strategies, scaled, d)
    g = math.gcd(d, *scaled[0], *scaled[1])
    assert game._num == tuple(tuple(u // g for u in column) for column in scaled)
    assert game._den == d // g
    payoffs = [[(F(a, d1), F(b, d2))] for a, b in zip(u1, u2)]
    built = NormalFormGame(("p1", "p2"), strategies, payoffs)
    assert (built._num, built._den) == (game._num, game._den)
    assert built == game


@pytest.mark.parametrize(
    "build",
    [
        lambda: TUGame(1, {1: 1}),
        matching_pennies,
        lambda: Constraint([1], "<=", 1),
        lambda: Matching(MarriageProblem(("a",), ("b",), {"a": ("b", "a"), "b": ("a", "b")}), {}),
        lambda: StatisticalGame(matching_pennies()),
    ],
    ids=["TUGame", "NormalFormGame", "Constraint", "Matching", "StatisticalGame"],
)
def test_eq_leaves_a_foreign_object_to_python(build):
    # `__eq__` answers NotImplemented, so Python falls back to identity.
    value, foreign = build(), object()
    assert value.__eq__(foreign) is NotImplemented
    assert not value == foreign and value != foreign
