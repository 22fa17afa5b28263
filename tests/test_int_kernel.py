"""The integer payoff kernel against the definitions, and its representation.

`NormalFormGame` stores each player's payoffs as ints over one common
denominator, and the solvers and readers run on those ints.  The differential
suite draws games whose players mix denominators, including all-integer
players and large lcms, and requires exact equality with definition-direct
oracles computed from the `Fraction` payoffs.
"""

import hashlib
import json
import math
import random
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optimin import (
    DomainError,
    LinearProgram,
    NormalFormGame,
    StatisticalGame,
    affine_transform,
    fictitious_extension,
    gen_named,
    gen_travelers,
    is_constant_sum,
    is_maximin_equilibrium,
    maximin_profile,
    nash_pure,
    optimin_grid_2p,
    optimin_pure,
    solve_lp,
    value_mixed_2p,
    value_pure,
    value_table,
)
from optimin.fileio import dump_game, parse_game
from optimin.rational import json_number
from optimin.zerosum import MaximinSolution, guarantee, maximin_lp
from conftest import brute_pareto, brute_value_pure

# Per-player denominator pools: an all-integer player, small mixed ones, and
# large primes whose lcm runs far past 64 bits.
DENOMINATOR_POOLS = st.sampled_from(
    [(1,), (1, 2), (2, 3, 4), (1, 6, 10, 15), (7, 1_000_000_007), (998_244_353, 2**61 - 1)]
)


def nest(cells, shape):
    """The nested payoff tensor of a {profile: payoffs} table."""

    def build(prefix):
        if len(prefix) == len(shape):
            return cells[prefix]
        return [build(prefix + (k,)) for k in range(shape[len(prefix)])]

    return build(())


def rebuilt(game, cells):
    """A game with `game`'s labels and the given {profile: payoffs} table."""
    return NormalFormGame(game.players, game.strategies, nest(cells, game.shape))


@st.composite
def built_games(
    draw,
    player_counts=st.integers(min_value=2, max_value=3),
    # Few numerators, negatives among them, so that ties are common.
    numerators=st.integers(min_value=-4, max_value=4),
    denominator_pools=DENOMINATOR_POOLS,
):
    """A game and the `Fraction` payoffs it was built from, by profile."""
    n = draw(player_counts)
    most = 4 if n == 2 else 3
    shape = tuple(draw(st.integers(min_value=1, max_value=most)) for _ in range(n))
    pools = [draw(denominator_pools) for _ in range(n)]
    cells = {}
    for prof in product(*(range(k) for k in shape)):
        cells[prof] = [
            F(draw(numerators), draw(st.sampled_from(pools[i]))) for i in range(n)
        ]
    players = [f"p{i}" for i in range(n)]
    strategies = [[f"s{k}" for k in range(m)] for m in shape]
    return NormalFormGame(players, strategies, nest(cells, shape)), cells


def games():
    return built_games().map(lambda built: built[0])


@st.composite
def grid_mixtures(draw, size):
    """A distribution over `size` strategies on the grid of step 1/k, k <= 4."""
    k = draw(st.integers(min_value=1, max_value=4))
    cuts = sorted(draw(st.lists(st.integers(0, k), min_size=size - 1, max_size=size - 1)))
    return tuple(F(b - a, k) for a, b in zip([0] + cuts, cuts + [k]))


def deviation_product(game, profile, player):
    """Profiles the others can reach by staying or by a strictly better reply."""
    factors = []
    for j in range(game.num_players):
        if j == player:
            factors.append([profile[j]])
            continue
        base = game.payoff(profile)[j]
        factors.append(
            [
                s
                for s in range(game.shape[j])
                if s == profile[j]
                or game.payoff(profile[:j] + (s,) + profile[j + 1 :])[j] > base
            ]
        )
    return list(product(*factors))


def check_value_table(game):
    brute = {prof: brute_value_pure(game, prof) for prof in game.profiles()}
    assert value_table(game) == brute
    assert list(value_table(game)) == list(brute)


def check_witnesses(game):
    for prof in game.profiles():
        entry = value_pure(game, prof)
        assert entry.value == brute_value_pure(game, prof)
        for i, witness in enumerate(entry.witnesses):
            space = deviation_product(game, prof, i)
            assert witness == min(space, key=lambda full: (game.payoff(full)[i], full))


@settings(max_examples=150, deadline=None)
@given(games())
def test_value_table_matches_the_definition(game):
    check_value_table(game)


@settings(max_examples=40, deadline=None)
@given(built_games(player_counts=st.integers(min_value=4, max_value=5)).map(lambda built: built[0]))
def test_values_and_witnesses_at_four_and_five_players(game):
    check_value_table(game)
    check_witnesses(game)


def test_values_and_witnesses_on_seeded_four_and_five_player_games():
    # Full-size shapes, which the drawn games above seldom reach.
    for seed, shape in enumerate([(3, 3, 3, 3), (3, 2, 3, 3), (3, 3, 3, 3, 3), (2, 3, 3, 2, 3)]):
        rng = random.Random(seed)
        n = len(shape)
        cells = {
            prof: [F(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(n)]
            for prof in product(*map(range, shape))
        }
        players = [f"p{i}" for i in range(n)]
        strategies = [[f"s{k}" for k in range(m)] for m in shape]
        game = NormalFormGame(players, strategies, nest(cells, shape))
        check_value_table(game)
        check_witnesses(game)


@settings(max_examples=150, deadline=None)
@given(games())
def test_optimin_pure_matches_brute_pareto(game):
    brute = [(prof, brute_value_pure(game, prof)) for prof in game.profiles()]
    front = set(brute_pareto([vec for _, vec in brute]))
    expected = [(prof, vec) for prof, vec in brute if vec in front]
    assert [(e.profile, e.value) for e in optimin_pure(game)] == expected
    for prof, _ in brute:
        own_best = all(
            brute_value_pure(game, prof)[i]
            == max(
                brute_value_pure(game, prof[:i] + (s,) + prof[i + 1 :])[i]
                for s in range(game.shape[i])
            )
            for i in range(game.num_players)
        )
        in_front = any(prof == p for p, _ in expected)
        assert is_maximin_equilibrium(game, prof) == (own_best or in_front)


SIDES = st.sampled_from(range(1, 13))


@st.composite
def two_player_games(draw):
    """2-player games of up to 12x12, half of them a single row or column,
    with numerators from a tied pool (0..2) over each player's denominators.
    The payoffs come from one drawn `Random`, which keeps large games within
    hypothesis's data budget."""
    rows, cols = draw(SIDES), draw(SIDES)
    shape = draw(st.sampled_from([(1, cols), (rows, 1), (rows, cols), (rows, cols)]))
    pools = [draw(DENOMINATOR_POOLS) for _ in range(2)]
    rng = draw(st.randoms(use_true_random=False))
    cells = {
        prof: [F(rng.randint(0, 2), rng.choice(pool)) for pool in pools]
        for prof in product(*map(range, shape))
    }
    strategies = [[f"s{k}" for k in range(m)] for m in shape]
    return NormalFormGame(["p0", "p1"], strategies, nest(cells, shape))


@settings(max_examples=200, deadline=None)
@given(two_player_games())
def test_two_player_kernel_at_larger_sizes(game):
    brute = {prof: brute_value_pure(game, prof) for prof in game.profiles()}
    assert value_table(game) == brute
    assert list(value_table(game)) == list(brute)
    front = set(brute_pareto(list(brute.values())))
    expected = [prof for prof, vec in brute.items() if vec in front]
    entries = optimin_pure(game)
    assert [e.profile for e in entries] == expected
    for entry in entries:
        assert entry.value == brute[entry.profile]
        for i, witness in enumerate(entry.witnesses):
            space = deviation_product(game, entry.profile, i)
            assert witness == min(space, key=lambda full: (game.payoff(full)[i], full))
    for prof, vec in brute.items():
        own_best = all(
            vec[i] == max(brute[prof[:i] + (s,) + prof[i + 1 :]][i] for s in range(game.shape[i]))
            for i in (0, 1)
        )
        assert is_maximin_equilibrium(game, prof) == (own_best or prof in expected)


@settings(max_examples=150, deadline=None)
@given(games())
def test_nash_pure_matches_best_responses(game):
    expected = [
        prof
        for prof in game.profiles()
        if not any(
            game.payoff(prof[:i] + (s,) + prof[i + 1 :])[i] > game.payoff(prof)[i]
            for i in range(game.num_players)
            for s in range(game.shape[i])
        )
    ]
    assert nash_pure(game) == expected


@settings(max_examples=150, deadline=None)
@given(games())
def test_maximin_profile_matches_the_definition(game):
    for i, pm in enumerate(maximin_profile(game)):
        guarantees = tuple(
            min(game.payoff(prof)[i] for prof in game.profiles() if prof[i] == s)
            for s in range(game.shape[i])
        )
        assert pm.guarantees == guarantees
        assert pm.security == max(guarantees)
        assert pm.strategies == tuple(
            s for s, g in enumerate(guarantees) if g == max(guarantees)
        )


@settings(max_examples=150, deadline=None)
@given(games())
def test_value_pure_witnesses_are_lexicographically_smallest(game):
    check_witnesses(game)


@settings(max_examples=100, deadline=None)
@given(games(), st.fractions(min_value=F(1, 7), max_value=5, max_denominator=13),
       st.fractions(min_value=-3, max_value=3, max_denominator=11))
def test_game_helpers_match_fraction_arithmetic(game, alpha, beta):
    cells = [game.payoff(prof) for prof in game.profiles()]
    scaled = affine_transform(game, 1, alpha, beta)
    assert [scaled.payoff(prof) for prof in game.profiles()] == [
        (u[0], alpha * u[1] + beta) + u[2:] for u in cells
    ]
    extended = fictitious_extension(game, beta)
    assert [extended.payoff(prof + (0,))[-1] for prof in game.profiles()] == [
        beta - sum(u) for u in cells
    ]
    sums = {sum(u) for u in cells}
    expected = (True, sums.pop()) if len(sums) == 1 else (False, None)
    assert tuple(is_constant_sum(game)) == expected


def mixed_expectation(cells, profile):
    """Expected payoffs of a mixed profile, summed over every cell."""
    totals = [F(0)] * len(profile)
    for prof, payoffs in cells.items():
        weight = math.prod(dist[s] for dist, s in zip(profile, prof))
        for i, u in enumerate(payoffs):
            totals[i] += weight * u
    return tuple(totals)


def constant_sum_check(cells):
    sums = {sum(u) for u in cells.values()}
    return (True, sums.pop()) if len(sums) == 1 else (False, None)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_expected_payoff_matches_the_cells(data):
    game, cells = data.draw(built_games())
    profile = tuple(data.draw(grid_mixtures(k)) for k in game.shape)
    assert game.expected_payoff(profile) == mixed_expectation(cells, profile)


def tie_break_deviation(mine, gain):
    """The documented witness among the optimal vertices of {q : gain·q >= 0}:
    the lowest-index optimal pure reply, else the first optimal (s, t) mixture
    with gain[s] < 0 < gain[t] in lexicographic order."""
    m = len(gain)
    vertices = [tuple(F(r == t) for r in range(m)) for t in range(m) if gain[t] >= 0]
    for s, t in product(range(m), repeat=2):
        if gain[s] < 0 < gain[t]:
            q = [F(0)] * m
            q[s], q[t] = gain[t] / (gain[t] - gain[s]), -gain[s] / (gain[t] - gain[s])
            vertices.append(tuple(q))
    cost = [sum(x * u for x, u in zip(q, mine)) for q in vertices]
    return vertices[cost.index(min(cost))]


# Payoffs 0..2 make several deviation vertices optimal, so the tie-break shows.
TIED_2P_GAMES = built_games(st.just(2), st.integers(min_value=0, max_value=2), st.just((1,)))


def mixed_value_oracle(cells, shape, profile):
    """Each player's value under mixed deviations, from the deviation LP over
    the `Fraction` payoffs, and the documented witness."""
    expected = mixed_expectation(cells, profile)
    values, witnesses = [], []
    for i in (0, 1):
        j = 1 - i
        m = shape[j]
        answers = [[cells[(s, t) if i == 0 else (t, s)] for s in range(shape[i])] for t in range(m)]
        mine = [sum(q * u[i] for q, u in zip(profile[i], col)) for col in answers]
        theirs = [sum(q * u[j] for q, u in zip(profile[i], col)) for col in answers]
        if max(theirs) <= expected[j]:
            values.append(expected[i])
            witnesses.append(profile)
            continue
        sol = solve_lp(
            LinearProgram.build(
                objective=mine,
                maximize=False,
                constraints=[(theirs, ">=", expected[j]), ([1] * m, "=", 1)],
                bounds=[(0, None)] * m,
            )
        )
        values.append(sol.objective_value)
        dev = tie_break_deviation(mine, [u - expected[j] for u in theirs])
        witnesses.append((profile[0], dev) if j == 1 else (dev, profile[1]))
    return tuple(values), tuple(witnesses)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_value_mixed_2p_matches_the_fraction_lp(data):
    game, cells = data.draw(st.one_of(built_games(st.just(2)), TIED_2P_GAMES))
    profile = tuple(data.draw(grid_mixtures(k)) for k in game.shape)
    entry = value_mixed_2p(game, profile)
    assert (entry.value, entry.witnesses) == mixed_value_oracle(cells, game.shape, profile)


def grid(size, k):
    """Every distribution over `size` strategies in steps of 1/k, in lexicographic
    order of the weights."""
    return [
        tuple(F(w, k) for w in weights)
        for weights in product(range(k + 1), repeat=size)
        if sum(weights) == k
    ]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_optimin_grid_2p_matches_the_oracle(data):
    game, cells = data.draw(st.one_of(built_games(st.just(2)), TIED_2P_GAMES))
    # The oracle solves two LPs per profile and scans all pairs, so the
    # resolution stops where the grid would pass 400 profiles.
    sizes = [[len(grid(m, k)) for m in game.shape] for k in range(1, 5)]
    top = max(k for k, (a, b) in enumerate(sizes, 1) if a * b <= 400)
    k = data.draw(st.integers(min_value=1, max_value=top))
    evaluated = [
        ((p, q),) + mixed_value_oracle(cells, game.shape, (p, q))
        for p in grid(game.shape[0], k)
        for q in grid(game.shape[1], k)
    ]
    front = set(brute_pareto(list({value for _, value, _ in evaluated})))
    expected = [entry for entry in evaluated if entry[1] in front]
    result = optimin_grid_2p(game, k)
    assert [(e.profile, e.value, e.witnesses) for e in result.entries] == expected


@settings(max_examples=150, deadline=None)
@given(st.data(), st.fractions(min_value=-3, max_value=3, max_denominator=12))
def test_is_constant_sum_matches_the_cells(data, constant):
    game, cells = data.draw(built_games())
    assert tuple(is_constant_sum(game)) == constant_sum_check(cells)
    balanced = {prof: u[:-1] + [constant - sum(u[:-1])] for prof, u in cells.items()}
    assert tuple(is_constant_sum(rebuilt(game, balanced))) == (True, constant)
    prof = data.draw(st.sampled_from(sorted(balanced)))
    bumped = dict(balanced)
    bumped[prof] = [u + F(1, 7) for u in balanced[prof]]
    assert tuple(is_constant_sum(rebuilt(game, bumped))) == constant_sum_check(bumped)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_zero_sum_readers_match_the_cells(data):
    game, cells = data.draw(built_games(st.just(2)))
    opposed = {prof: [u[0], -u[0]] for prof, u in cells.items()}
    sg = StatisticalGame(rebuilt(game, opposed))
    for player in (0, 1):
        k, m = game.shape[player], game.shape[1 - player]
        columns = [
            [opposed[(s, t) if player == 0 else (t, s)][player] for s in range(k)]
            for t in range(m)
        ]
        mixture = data.draw(grid_mixtures(k))
        assert guarantee(sg, player, mixture) == min(
            sum(q * u for q, u in zip(mixture, col)) for col in columns
        )
        sol = solve_lp(
            LinearProgram.build(
                objective=[0] * k + [1],
                maximize=True,
                constraints=[(col + [-1], ">=", 0) for col in columns] + [([1] * k + [0], "=", 1)],
                bounds=[(0, None)] * k + [(None, None)],
            )
        )
        assert maximin_lp(sg, player) == MaximinSolution(
            player, tuple(sol.point[:k]), sol.objective_value
        )
    prof = data.draw(st.sampled_from(sorted(opposed)))
    bumped = dict(opposed)
    bumped[prof] = [opposed[prof][0], opposed[prof][1] + F(1, 7)]
    with pytest.raises(DomainError):
        StatisticalGame(rebuilt(game, bumped))
    # Halving player 1's payoffs can leave the int numerators opposite while
    # the payoffs are not.
    halved = {prof: [u[0], u[1] / 2] for prof, u in opposed.items()}
    if any(u[0] for u in opposed.values()):
        with pytest.raises(DomainError):
            StatisticalGame(rebuilt(game, halved))


@settings(max_examples=100, deadline=None)
@given(built_games(player_counts=st.integers(min_value=1, max_value=4)), st.integers(1, 12))
def test_parse_dump_round_trip(built, factor):
    game, cells = built
    text = dump_game(game)
    loaded = parse_game(text)
    assert dump_game(loaded) == text
    assert (loaded._num, loaded._den) == (game._num, game._den)
    # Unreduced literals with leading zeros read to the same representation.
    unreduced = {
        prof: [f"{u.numerator * factor:03d}/{u.denominator * factor:03d}" for u in payoffs]
        for prof, payoffs in cells.items()
    }
    doc = dict(json.loads(text), payoffs=nest(unreduced, game.shape))
    assert dump_game(parse_game(json.dumps(doc))) == text


@settings(max_examples=150, deadline=None)
@given(built_games())
def test_dump_game_matches_the_fraction_encoder(built):
    game, cells = built
    encoded = {prof: [json_number(u) for u in payoffs] for prof, payoffs in cells.items()}
    doc = {
        "players": list(game.players),
        "strategies": [list(s) for s in game.strategies],
        "payoffs": nest(encoded, game.shape),
    }
    assert dump_game(game) == json.dumps(doc, indent=2) + "\n"


def fraction_travelers(low, high, r):
    """The claim game through the `Fraction` constructor, cell by cell."""
    claims = range(low, high + 1)
    payoffs = [
        [
            (F(a), F(b)) if a == b else (a + r, a - r) if a < b else (b - r, b + r)
            for b in claims
        ]
        for a in claims
    ]
    labels = [str(c) for c in claims]
    return NormalFormGame(("traveler1", "traveler2"), (labels, labels), payoffs)


def digest(game):
    return hashlib.sha256(dump_game(game).encode()).hexdigest()[:16]


class TestRepresentation:
    def test_travelers_equal_the_fraction_built_game(self):
        for r in (F(2), F(5, 2), F(7, 3), F(60), F(201, 100)):
            direct = gen_travelers(2, 30, r)
            built = fraction_travelers(2, 30, r)
            assert direct == built
            assert hash(direct) == hash(built)
            for prof in direct.profiles():
                assert direct.payoff(prof) == built.payoff(prof)

    def test_travelers_at_other_claim_ranges(self):
        # The rows are built from slices by position, so ranges not starting
        # at 2 and of other lengths must match cell by cell too.
        for low, high in ((2, 3), (5, 9), (17, 40)):
            for r in (F(2), F(7, 3), F(201, 100)):
                direct = gen_travelers(low, high, r)
                built = fraction_travelers(low, high, r)
                assert (direct._num, direct._den) == (built._num, built._den)
                assert direct == built and hash(direct) == hash(built)

    def test_denominators_are_the_lcm(self):
        assert gen_travelers(2, 10, F(5, 2))._den == (2, 2)
        assert gen_travelers(2, 10, 3)._den == (1, 1)
        g = NormalFormGame(("a", "b"), (("x", "y"), ("z",)), [[(F(1, 2), 4)], [(F(1, 3), "6/3")]])
        assert g._den == (6, 1)
        assert g._num == ((3, 2), (4, 2))

    def test_equal_payoffs_give_equal_games(self):
        one = NormalFormGame(("a",), (("x", "y"),), [("4/2",), ("1/2",)])
        other = NormalFormGame(("a",), (("x", "y"),), [(2,), (F(2, 4),)])
        assert one == other and hash(one) == hash(other)
        assert affine_transform(one, 0, 2, 0) != one
        assert affine_transform(affine_transform(one, 0, 3, F(1, 3)), 0, F(1, 3), F(-1, 9)) == one

    def test_dumps_are_unchanged(self):
        # Digests of the same games written by the Fraction-cell representation.
        assert digest(affine_transform(gen_named("motivating"), 1, F(2, 3), F(-1, 2))) == "22db1edf1f9db1b5"
        assert digest(fictitious_extension(gen_travelers(2, 4, F(5, 2)), F(7, 3))) == "4237d8671887c6be"
        assert digest(gen_travelers(2, 100, F(7, 3))) == "dd99a9473a586295"
        composed = fictitious_extension(
            affine_transform(gen_travelers(2, 100, F(7, 3)), 0, F(5, 4), F(1, 6)), F(-1, 5)
        )
        assert digest(composed) == "122cbf79fbc400bf"
        huge = affine_transform(gen_named("figure1"), 0, 3, F(-10**12, 7))
        assert digest(huge) == "5475035c58080a9e"

    def test_round_trip_and_nested_payoffs(self):
        for game in (
            gen_travelers(2, 12, F(7, 3)),
            fictitious_extension(gen_travelers(2, 5, F(5, 2)), F(-1, 3)),
            affine_transform(gen_named("figure1"), 1, F(3, 7), F(1, 2)),
        ):
            text = dump_game(game)
            loaded = parse_game(text)
            assert loaded == game and hash(loaded) == hash(game)
            assert dump_game(loaded) == text
            nested = json.loads(text)["payoffs"]
            for prof in game.profiles():
                node = nested
                for s in prof:
                    node = node[s]
                assert node == [json_number(u) for u in game.payoff(prof)]
            assert NormalFormGame(game.players, game.strategies, nested) == game
