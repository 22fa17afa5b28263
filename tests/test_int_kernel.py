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
from itertools import chain, permutations, product
from operator import mul

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
from optimin import noncoop
from optimin.fileio import dump_game, parse_game
from optimin.rational import json_number
from optimin.zerosum import MaximinSolution, guarantee, maximin_lp
from conftest import brute_pareto, brute_value_pure, random_constant_sum_game

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


def labelled(cells, shape):
    """The game of a {profile: payoffs} table, its players p0, p1, ... and
    their strategies s0, s1, ...."""
    strategies = [[f"s{k}" for k in range(m)] for m in shape]
    return NormalFormGame([f"p{i}" for i in range(len(shape))], strategies, nest(cells, shape))


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


@pytest.mark.parametrize(
    "seed, shape", [(801, (8, 8, 8)), (1001, (10, 10, 10)), (401, (4, 1, 5, 4)), (402, (4, 3, 4, 3))]
)
def test_value_table_on_tied_games_at_larger_sizes(seed, shape):
    # Payoffs from {0, 1, 2}, so most lines hold ties and the better replies
    # of a cell stop at the start of its tie group in the line's order.
    rng = random.Random(seed)
    cells = {prof: [rng.randint(0, 2) for _ in shape] for prof in product(*map(range, shape))}
    players = [f"p{i}" for i in range(len(shape))]
    strategies = [[f"s{k}" for k in range(m)] for m in shape]
    check_value_table(NormalFormGame(players, strategies, nest(cells, shape)))


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


def best_response_cells(game):
    """The profiles from which no player has a strictly better reply, by scan."""
    return [
        prof
        for prof in game.profiles()
        if not any(
            game.payoff(prof[:i] + (s,) + prof[i + 1 :])[i] > game.payoff(prof)[i]
            for i in range(game.num_players)
            for s in range(game.shape[i])
        )
    ]


@settings(max_examples=150, deadline=None)
@given(games())
def test_nash_pure_matches_best_responses(game):
    assert nash_pure(game) == best_response_cells(game)


@st.composite
def tied_games(draw):
    """Games of 1-4 players and up to 3 strategies each, with int payoffs in
    0..2 so that most lines hold ties, drawn from one `Random`."""
    shape = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)))
    rng = draw(st.randoms(use_true_random=False))
    cells = {prof: [rng.randint(0, 2) for _ in shape] for prof in product(*map(range, shape))}
    players = [f"p{i}" for i in range(len(shape))]
    strategies = [[f"s{k}" for k in range(m)] for m in shape]
    return NormalFormGame(players, strategies, nest(cells, shape))


LINE_ORDER_READERS = {"nash_pure": nash_pure, "value_table": value_table, "optimin_pure": optimin_pure}


@settings(max_examples=150, deadline=None)
@given(tied_games(), st.permutations(sorted(LINE_ORDER_READERS)))
def test_line_order_memo_changes_no_result(game, order):
    # One game object answers every reader twice, in the drawn order, with
    # its line orders kept from the earlier calls; a fresh copy has none.
    for built in (game, parse_game(dump_game(game))):
        identity = (hash(built), repr(built))
        for name in order * 2:
            fresh = parse_game(dump_game(game))
            assert LINE_ORDER_READERS[name](built) == LINE_ORDER_READERS[name](fresh)
        assert any(built._orders)  # nash_pure read at least the first player's lines
        assert built == fresh and (hash(built), repr(built)) == identity == (hash(fresh), repr(fresh))


@st.composite
def symmetric_games(draw):
    """A symmetric two-player game, u2(a, b) = u1(b, a), of 1x1 up to 8x8,
    with u1 as a {cell: payoff} table: ints from a tied pool, or `Fraction`s
    over a drawn denominator pool, drawn from one `Random`."""
    n = draw(st.integers(1, 8))
    numerators = draw(st.sampled_from([range(3), range(-4, 5)]))
    pool = draw(st.none() | DENOMINATOR_POOLS)
    rng = draw(st.randoms(use_true_random=False))
    u1 = {
        cell: rng.choice(numerators) if pool is None else F(rng.choice(numerators), rng.choice(pool))
        for cell in product(range(n), repeat=2)
    }
    return n, u1


def symmetric_game(n, u1, changed=None):
    """The game with first-player payoffs `u1` and u2(a, b) = u1(b, a),
    except that u2 is one more at the cell `changed`."""
    cells = {(a, b): [u1[a, b], u1[b, a] + ((a, b) == changed)] for a, b in u1}
    strategies = [[f"s{k}" for k in range(n)]] * 2
    return NormalFormGame(["p0", "p1"], strategies, nest(cells, (n, n)))


def check_against_the_oracles(game):
    brute = {prof: brute_value_pure(game, prof) for prof in game.profiles()}
    assert list(value_table(game).items()) == list(brute.items())
    front = set(brute_pareto(list(brute.values())))
    assert [(e.profile, e.value) for e in optimin_pure(game)] == [
        (prof, vec) for prof, vec in brute.items() if vec in front
    ]
    assert nash_pure(game) == best_response_cells(game)
    for prof, vec in brute.items():
        own_best = all(
            vec[i] == max(brute[prof[:i] + (s,) + prof[i + 1 :]][i] for s in range(game.shape[i]))
            for i in range(game.num_players)
        )
        assert is_maximin_equilibrium(game, prof) == (own_best or vec in front)


@settings(max_examples=150, deadline=None)
@given(symmetric_games(), st.data())
def test_symmetric_games_and_their_perturbed_copies_match_the_oracles(drawn, data):
    # The copies: u2 one more at a cell of row 0, which fails the first-row
    # compare; at a cell of a later row, which fails only the full compare;
    # and u2 halved, by doubling u1's ints and the denominator, so that u2's
    # ints stay the transpose of u1's old ones.  Each copy's flag is checked
    # against the definition.
    n, u1 = drawn
    game = symmetric_game(n, u1)
    column = st.integers(0, n - 1)
    copies = [game, symmetric_game(n, u1, (0, data.draw(column)))]
    if n > 1:
        copies.append(symmetric_game(n, u1, (data.draw(st.integers(1, n - 1)), data.draw(column))))
    halved = ([2 * u for u in game._num[0]], game._num[1])
    copies.append(NormalFormGame._from_scaled(game.players, game.strategies, halved, 2 * game._den))
    for built in copies:
        identity = (hash(built), repr(built))
        symmetric = all(built.payoff((a, b))[1] == built.payoff((b, a))[0] for a, b in u1)
        assert built._is_symmetric() is symmetric
        assert (hash(built), repr(built)) == identity
        assert built == parse_game(dump_game(built))  # a copy whose flag is not computed
        check_against_the_oracles(built)
    assert game._is_symmetric()


@st.composite
def symmetric_nplayer_games(draw):
    """A game of 3 or 4 players with one strategy count, unchanged under every
    permutation of the players, as a {profile: payoffs} table: u_i(a) =
    f(a_i, the sorted strategies of the others), with f's values ints from a
    tied pool or `Fraction`s over a drawn denominator pool, drawn from one
    `Random`."""
    n = draw(st.sampled_from((3, 4)))
    m = draw(st.sampled_from((2, 3, 4, 1) if n == 3 else (2, 3, 1)))  # evenly, one-cell games among them
    numerators = draw(st.sampled_from([range(3), range(-4, 5)]))
    pool = draw(st.none() | DENOMINATOR_POOLS)
    rng = draw(st.randoms(use_true_random=False))
    f = {}
    for a in product(range(m), repeat=n):
        for i in range(n):
            key = (a[i], tuple(sorted(a[:i] + a[i + 1 :])))
            if key not in f:
                f[key] = rng.choice(numerators) if pool is None else F(rng.choice(numerators), rng.choice(pool))
    return {
        a: [f[a[i], tuple(sorted(a[:i] + a[i + 1 :]))] for i in range(n)] for a in product(range(m), repeat=n)
    }


def symmetric_by_definition(game):
    """Whether u_σ(i)(σ·a) = u_i(a) for every permutation σ of the players,
    every profile a and every player i, read cell by cell; σ·a puts a_i at
    position σ(i)."""
    n = game.num_players
    if len(set(game.shape)) > 1:
        return False
    for sigma in permutations(range(n)):
        for a in game.profiles():
            moved = [None] * n
            for i, s in enumerate(a):
                moved[sigma[i]] = s
            here, there = game.payoff(a), game.payoff(tuple(moved))
            if any(there[sigma[i]] != here[i] for i in range(n)):
                return False
    return True


def one_more(cells, *places):
    """A copy of the table `cells` whose payoff of player i at profile a is
    one more for each (i, a) in `places`."""
    out = {a: list(payoffs) for a, payoffs in cells.items()}
    for i, a in places:
        out[a][i] += 1
    return out


@settings(max_examples=30, deadline=None)
@given(symmetric_nplayer_games(), st.data())
def test_symmetric_nplayer_games_and_their_perturbed_copies_match_the_oracles(cells, data):
    # The copies: one payoff one more; the third player one more at a cell
    # and its image under the swap of the first two players, which keeps
    # the swap and breaks the cycle; every player i one more at the i-th
    # image of a cell under the cycle i -> i + 1, which keeps the cycle and
    # breaks the swap unless the second and third strategies there are
    # equal; and one player's payoffs halved, by doubling the others' ints
    # and the denominator.  Each copy's flag is checked against the
    # definition.
    a = data.draw(st.sampled_from(sorted(cells)))
    b = data.draw(st.sampled_from([b for b in sorted(cells) if b[1] != b[2]] or [a]))
    n = len(a)
    shape = (max(profile[0] for profile in cells) + 1,) * n
    players, strategies = [f"p{i}" for i in range(n)], [[f"s{k}" for k in range(shape[0])]] * n
    game = NormalFormGame(players, strategies, nest(cells, shape))
    cycled = [b[n - i :] + b[: n - i] for i in range(n)]  # the i-th image has b_k at k + i
    tables = [
        one_more(cells, (data.draw(st.integers(0, n - 1)), a)),
        one_more(cells, *{(2, a), (2, (a[1], a[0]) + a[2:])}),
        one_more(cells, *enumerate(cycled)),
    ]
    copies = [game] + [rebuilt(game, table) for table in tables]
    halved = data.draw(st.integers(0, n - 1))
    num = [u if i == halved else [2 * v for v in u] for i, u in enumerate(game._num)]
    copies.append(NormalFormGame._from_scaled(game.players, game.strategies, num, 2 * game._den))
    for built in copies:
        identity = (hash(built), repr(built))
        assert built._is_symmetric() is symmetric_by_definition(built)
        assert (hash(built), repr(built)) == identity
        assert built == parse_game(dump_game(built))  # a copy whose flag is not computed
        check_against_the_oracles(built)
    assert game._is_symmetric()


def test_a_symmetric_front_cell_need_not_be_an_own_best_reply():
    # (0, 1) and (1, 0) are optimin, but at neither does each player's own
    # strategy maximize their value, so `is_maximin_equilibrium` must find
    # them on the front of the orbits.  About 2 % of the drawn symmetric
    # games have such a cell.
    rows = [[0, 3, 0], [2, 0, 0], [3, 3, 1]]
    game = symmetric_game(3, {(a, b): rows[a][b] for a in range(3) for b in range(3)})
    check_against_the_oracles(game)
    assert is_maximin_equilibrium(game, (0, 1)) and is_maximin_equilibrium(game, (1, 0))


@st.composite
def pruned_path_games(draw):
    """Games whose solution set skips the cells that the best value vector
    found so far dominates through their payoffs: tied games of 1, 3 or 4
    players; constant-sum games, where every cell has one payoff sum and so
    none is skipped; and tied games of 1, 3 or 4 players in which two cells
    hold every player's largest payoff.  Neither of those two has a
    profitable deviation, so the second's payoff sum ties the first's value
    sum and it must still be evaluated."""
    kind = draw(st.sampled_from(["tied", "constant-sum", "top tie"]))
    if kind == "constant-sum":
        return random_constant_sum_game(draw(st.randoms(use_true_random=False)), max_players=4)
    game = draw(tied_games().filter(lambda g: g.num_players != 2))
    cells = {prof: list(game.payoff(prof)) for prof in game.profiles()}
    if kind == "top tie" and len(cells) > 1:
        a, b = draw(st.lists(st.sampled_from(sorted(cells)), min_size=2, max_size=2, unique=True))
        cells[a] = cells[b] = [3] * game.num_players  # the tied pool is 0..2
    return rebuilt(game, cells)


@settings(max_examples=200, deadline=None)
@given(pruned_path_games())
def test_the_pruned_solution_set_matches_the_oracles(game):
    check_against_the_oracles(game)


# Multiples of 10**400, far past float range, whole and in thirds; few of
# them, so that lines hold ties.
HUGE_PAYOFFS = [F(k * 10**400, d) for k in (-2, -1, 0, 1, 3) for d in (1, 3)]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("offset", [0, -(10**401)], ids=["mixed-signs", "all-negative"])
@pytest.mark.parametrize("shape", [(5, 5), (4, 6), (3, 3, 3)], ids=["symmetric-5x5", "4x6", "3x3x3"])
def test_payoffs_past_float_range_match_the_oracles(shape, offset, seed):
    # The line minima start at inf and the pruned stream's top sum at -inf;
    # Python compares those with ints of any size exactly.  With the offset
    # every payoff sum lies below -1e308, so no finite float would do.
    rng = random.Random(seed)
    profiles = list(product(*map(range, shape)))
    if shape == (5, 5):
        game = symmetric_game(5, {prof: rng.choice(HUGE_PAYOFFS) + offset for prof in profiles})
    else:
        cells = {prof: [rng.choice(HUGE_PAYOFFS) + offset for _ in shape] for prof in profiles}
        game = labelled(cells, shape)
    assert game._is_symmetric() == (shape == (5, 5))
    assert max(map(abs, chain.from_iterable(game._num))) > 2**1024
    check_against_the_oracles(game)


@st.composite
def constant_sum_games(draw):
    """Constant-sum games of 3 or 4 players and up to 3 strategies each: the
    payoffs of all players but the last come from the tied pool 0..2, and the
    last player's payoffs bring every cell to one drawn sum."""
    n = draw(st.integers(min_value=3, max_value=4))
    shape = tuple(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    total = F(draw(st.integers(-3, 3)), draw(st.sampled_from([1, 2])))
    rng = draw(st.randoms(use_true_random=False))
    cells = {}
    for prof in product(*map(range, shape)):
        head = [rng.randint(0, 2) for _ in range(n - 1)]
        cells[prof] = [*head, total - sum(head)]
    return labelled(cells, shape)


# Every cell of the games below has one payoff sum, so the pruned solution
# set evaluates every cell; a skip test that fires on a tied sum drops
# Nash cells that these properties require.
@settings(max_examples=100, deadline=None)
@given(constant_sum_games())
def test_nash_cells_of_a_constant_sum_game_are_optimin(game):
    assert is_constant_sum(game)
    solutions = {e.profile for e in optimin_pure(game)}
    assert set(nash_pure(game)) <= solutions


@settings(max_examples=100, deadline=None)
@given(games(), st.fractions(min_value=-6, max_value=6, max_denominator=4))
def test_nash_cells_are_optimin_in_the_fictitious_extension(game, constant):
    solutions = {e.profile for e in optimin_pure(fictitious_extension(game, constant))}
    assert {prof + (0,) for prof in nash_pure(game)} <= solutions


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


def check_canonical(game, cells):
    """`game` is the game read from its `Fraction` table `cells`, survives a
    dump and parse, and its `_den` is the lcm of every payoff's
    denominator, over all players."""
    assert game == NormalFormGame(game.players, game.strategies, nest(cells, game.shape))
    assert parse_game(dump_game(game)) == game
    assert game._den == math.lcm(*(u.denominator for payoffs in cells.values() for u in payoffs))


@settings(max_examples=100, deadline=None)
@given(built_games(), st.fractions(min_value=F(1, 7), max_value=5, max_denominator=13),
       st.fractions(min_value=-3, max_value=3, max_denominator=11))
def test_game_helpers_match_fraction_arithmetic(built, alpha, beta):
    # The players' payoffs are drawn from different denominator pools, so
    # the builders must bring the other players' ints to the new denominator.
    game, cells = built
    check_canonical(game, cells)
    scaled = affine_transform(game, 1, alpha, beta)
    scaled_cells = {prof: [u[0], alpha * u[1] + beta, *u[2:]] for prof, u in cells.items()}
    assert [scaled.payoff(prof) for prof in game.profiles()] == [
        tuple(scaled_cells[prof]) for prof in game.profiles()
    ]
    check_canonical(scaled, scaled_cells)
    extended = fictitious_extension(game, beta)
    extended_cells = {prof + (0,): [*u, beta - sum(u)] for prof, u in cells.items()}
    assert [extended.payoff(prof + (0,))[-1] for prof in game.profiles()] == [
        beta - sum(cells[prof]) for prof in game.profiles()
    ]
    check_canonical(extended, extended_cells)
    assert tuple(is_constant_sum(game)) == constant_sum_check(cells)


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
            LinearProgram(
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


def deviation_minimum(side, other):
    """(num, den, choice): the value of `side`'s player against `other`'s agreed
    weights is num / den in `side`'s units, minimized over every vertex of the
    opponent's closed deviation set by a full scan.  `choice` is None when no
    deviation is profitable, else the lowest-index optimal pure reply t with
    gain >= 0, else the first optimal edge (s, t) with gain[s] < 0 < gain[t]."""
    (mine, theirs, _, _), (_, _, agreed, qscale) = side, other
    expected = sum(a * u for a, u in zip(agreed, theirs))
    gain = [u * qscale - expected for u in theirs]
    if max(gain) <= 0:
        return sum(a * u for a, u in zip(agreed, mine)), qscale, None
    num, choice = min((mine[t], t) for t, g in enumerate(gain) if g >= 0)
    den = 1
    gainers = [(t, g, mine[t]) for t, g in enumerate(gain) if g > 0]
    for s, (loss, ms) in enumerate(zip(gain, mine)):
        if loss < 0:
            for t, g, mt in gainers:
                if (ms * g - mt * loss) * den < num * (g - loss):
                    num, den, choice = ms * g - mt * loss, g - loss, (s, t)
    return num, den, choice


def hull_core(side, other):
    """`noncoop`'s value of `side` against `other` as a `Fraction`, and its witness
    choice in `deviation_minimum`'s form: `_hull_at` of `side`'s `_chain` at the
    opponent's scale and of the two agreed payoffs, and `_witness` at that value,
    its mixture mapped back to a pure reply's index or an edge's (loser, gainer)
    by the opponent's gain."""
    (mine, theirs, _, _), (_, _, agreed, qscale) = side, other
    expected, own = sum(map(mul, agreed, theirs)), sum(map(mul, agreed, mine))
    num, den = noncoop._hull_at(noncoop._chain(mine, theirs, qscale), expected, own, qscale)
    dev = noncoop._witness(mine, theirs, expected, qscale, num, den)
    if dev is None:
        return F(num, den), None
    support = [t for t, w in enumerate(dev) if w]
    if len(support) == 1:
        assert dev[support[0]] == 1
        return F(num, den), support[0]
    return F(num, den), tuple(sorted(support, key=lambda t: theirs[t] * qscale > expected))


@st.composite
def int_sides(draw):
    """A side (mine, theirs, weights, scale) and the opponent's agreed weights over
    their own scale: 1-7 replies, payoffs in 0..2 (repeated x values, collinear
    points, tied optima) or over a wide range."""
    m = draw(st.integers(min_value=1, max_value=7))
    top = draw(st.sampled_from([2, 2, 40, 10**25]))
    payoffs = st.integers(min_value=0 if top == 2 else -top, max_value=top)
    mine = draw(st.lists(payoffs, min_size=m, max_size=m))
    theirs = draw(st.lists(payoffs, min_size=m, max_size=m))
    agreed = draw(st.lists(st.integers(min_value=0, max_value=6), min_size=m, max_size=m))
    if not any(agreed):
        agreed[draw(st.integers(min_value=0, max_value=m - 1))] = draw(st.integers(1, 6))
    scale = draw(st.integers(min_value=1, max_value=12))
    return (mine, theirs, None, scale), (None, None, tuple(agreed), sum(agreed))


@settings(max_examples=600, deadline=None)
@given(int_sides())
def test_hull_value_and_witness_match_the_vertex_scan(sides):
    side, other = sides
    num, den, choice = deviation_minimum(side, other)
    assert hull_core(side, other) == (F(num, den), choice)


def test_witness_refuses_a_value_no_vertex_attains():
    side, other = ([0, 2], [0, 2], None, 1), (None, None, (1, 1), 2)
    assert hull_core(side, other) == (F(1), (0, 1))
    with pytest.raises(AssertionError, match="no deviation vertex is worth 3/1"):
        noncoop._witness([0, 2], [0, 2], 2, 2, 3, 1)


def test_grid_values_match_the_vertex_scan_on_tied_games():
    """Every grid profile's values and witness choices, with each grid point's
    chain built once at scale k, on seeded games of up to 4x4 with payoffs in
    -3..3, where x values repeat and optima tie."""
    rng = random.Random(20)
    for _ in range(100):
        shape = (rng.randint(1, 4), rng.randint(1, 4))
        cells = {prof: [rng.randint(-3, 3), rng.randint(-3, 3)] for prof in product(*map(range, shape))}
        game = NormalFormGame(["a", "b"], [[f"s{k}" for k in range(m)] for m in shape], nest(cells, shape))
        for k in (1, 2, 3, 4):
            grids = noncoop._grids_2p(game, k)
            sides = []
            for i in (0, 1):
                # Per grid point of player i: (mine, theirs, weights, k).
                mine, theirs = noncoop.reply_payoffs(game, i, grids[i], i, 1 - i)
                sides.append([(m, t, w, k) for m, t, w in zip(zip(*mine), zip(*theirs), zip(*grids[i]))])
            for s0, s1 in product(*sides):
                for side, other in ((s0, s1), (s1, s0)):
                    num, den, choice = deviation_minimum(side, other)
                    assert hull_core(side, other) == (F(num, den), choice)


@st.composite
def tied_grid_games(draw):
    """A 2x2 to 3x3 game with payoffs in {-1, 0, 1} over a per-player
    denominator of 1 to 3, the second player's payoffs drawn or, for a
    constant-sum game, the constant less the first's; and a resolution k."""
    shape = tuple(draw(st.integers(min_value=2, max_value=3)) for _ in range(2))
    dens = [draw(st.integers(min_value=1, max_value=3)) for _ in range(2)]
    tied = st.integers(min_value=-1, max_value=1)
    constant = draw(st.none() | tied)
    cells = {}
    for prof in product(*map(range, shape)):
        u1 = F(draw(tied), dens[0])
        u2 = F(draw(tied), dens[1]) if constant is None else constant - u1
        cells[prof] = [u1, u2]
    game = NormalFormGame(["a", "b"], [[f"s{k}" for k in range(m)] for m in shape], nest(cells, shape))
    return game, draw(st.integers(min_value=1, max_value=4))


def full_grid_optimin(game, k):
    """`value_mixed_2p` of every grid profile, kept in grid order when the
    quadratic scan finds no value vector that dominates it."""
    evaluated = [value_mixed_2p(game, profile) for profile in noncoop.grid_profiles_2p(game, k)]
    front = set(brute_pareto([entry.value for entry in evaluated]))
    return tuple(entry for entry in evaluated if entry.value in front)


@settings(max_examples=150, deadline=None)
@given(tied_grid_games())
def test_pruned_grid_matches_every_profile_evaluated(case):
    # Tied payoffs and constant-sum games make equal payoff sums and equal
    # vectors common, the edge of the skip test.
    game, k = case
    assert optimin_grid_2p(game, k).entries == full_grid_optimin(game, k)


def test_the_grid_skips_profiles_its_payoffs_settle(monkeypatch):
    hull_at = noncoop._hull_at
    calls = []

    def counted(*args):
        calls.append(args)
        return hull_at(*args)

    monkeypatch.setattr(noncoop, "_hull_at", counted)
    rng = random.Random(4301)
    cells = {prof: [F(rng.randint(-20, 20), 6), F(rng.randint(-20, 20), 4)] for prof in product(range(3), repeat=2)}
    game = NormalFormGame(["a", "b"], [["T", "M", "B"], ["L", "C", "R"]], nest(cells, (3, 3)))
    result = optimin_grid_2p(game, 4)
    # Two calls, one per player, for each of 156 of the 225 grid profiles.
    assert len(noncoop.grid_profiles_2p(game, 4)) == 225
    assert len(calls) == 2 * 156
    monkeypatch.setattr(noncoop, "_hull_at", hull_at)
    assert result.entries == full_grid_optimin(game, 4)


@st.composite
def column_grid_games(draw):
    """A 1x1 to 4x4 game with tied int payoffs in -2..2, or `Fraction`s
    whose denominators 1 to 6 differ from cell to cell; and a resolution k."""
    shape = tuple(draw(st.integers(min_value=1, max_value=4)) for _ in range(2))
    tied = st.integers(min_value=-2, max_value=2)
    payoff = tied if draw(st.booleans()) else st.builds(F, tied, st.integers(min_value=1, max_value=6))
    cells = {prof: [draw(payoff), draw(payoff)] for prof in product(*map(range, shape))}
    game = NormalFormGame(["a", "b"], [[f"s{k}" for k in range(m)] for m in shape], nest(cells, shape))
    return game, cells, draw(st.integers(min_value=1, max_value=6))


@settings(max_examples=150, deadline=None)
@given(column_grid_games())
def test_grid_payoffs_by_columns_match_each_point(case):
    # Each grid point's reply payoffs, read off whole weight columns, are
    # sum_s w_s * u(s, t), and each profile's agreed payoffs are q·mine.
    game, cells, k = case
    grids = noncoop._grids_2p(game, k)
    for i, columns in enumerate(grids):
        j = 1 - i
        points, opponents = list(zip(*columns)), list(zip(*grids[j]))
        replies = noncoop.reply_payoffs(game, i, columns, 0, 1)
        for payer, payoffs in enumerate(replies):
            assert len(payoffs) == game.shape[j] and all(len(c) == len(points) for c in payoffs)
            payoff = {
                (s, t): cells[(s, t) if i == 0 else (t, s)][payer]
                for s in range(game.shape[i])
                for t in range(game.shape[j])
            }
            expected = [
                [sum(w * payoff[s, t] for s, w in enumerate(point)) for t in range(game.shape[j])] for point in points
            ]
            den = game._den
            assert [[F(c[a], den) for c in payoffs] for a in range(len(points))] == expected
            agreed = noncoop._agreed_payoffs(payoffs, grids[j])
            assert agreed == [sum(map(mul, q, mine)) for mine in zip(*payoffs) for q in opponents]
            assert [F(u, den) for u in agreed] == [sum(map(mul, q, mine)) for mine in expected for q in opponents]


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
            LinearProgram(
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
        assert gen_travelers(2, 10, F(5, 2))._den == 2
        assert gen_travelers(2, 10, 3)._den == 1
        g = NormalFormGame(("a", "b"), (("x", "y"), ("z",)), [[(F(1, 2), 4)], [(F(1, 3), "6/3")]])
        assert g._den == 6
        assert g._num == ((3, 2), (24, 12))

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
