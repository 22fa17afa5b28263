"""Zero-sum games against an antagonist: exact maximin mixtures via LP.

In zero-sum games the worst-case evaluation collapses to the classical
guarantee of each strategy, so the solution concept coincides with maximin
play on both sides.  The coin-guessing game ships as a named instance,
built from ints over 4 like every generated game.

This module adds only the zero-sum pieces to the normal-form layer: a player
is refused by `NormalFormGame.validate_player`, and a mixture's guarantee is
the least of its `noncoop.reply_payoffs`, the per-reply sums the mixed
deviation values are built from.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import DomainError, UnsupportedFeatureError
from .games import MixedProfile, NormalFormGame
from .lp import LinearProgram, solve_lp
from .noncoop import reply_payoffs
from .rational import Record


class StatisticalGame(Record):
    """A two-player game whose payoffs are exactly opposite cell by cell."""

    __slots__ = ("game",)

    def __init__(self, game: NormalFormGame) -> None:
        if game.num_players != 2:
            raise DomainError("a statistical game has exactly 2 players")
        for prof, a, b in zip(game.profiles(), *game._num):
            if a + b:
                u = game.payoff(prof)
                labels = game.profile_labels(prof)
                raise DomainError(f"not zero-sum at cell {labels}: {u[0]} + {u[1]} != 0")
        self.game = game

    def _key(self) -> tuple:
        return (self.game,)

    def __repr__(self) -> str:
        return f"StatisticalGame(game={self.game!r})"


class MaximinSolution(NamedTuple):
    player: int
    mixture: tuple[Fraction, ...]
    value: Fraction  # guaranteed expected payoff for this player


def maximin_lp(sg: StatisticalGame, player: int) -> MaximinSolution:
    """Exact optimal mixture maximizing the player's guaranteed payoff.

    Standard guarantee-maximization LP: maximize v subject to the mixture
    earning at least v against every opposing pure strategy.  Every row is
    handed over times the game's payoff denominator d, as the payoffs'
    ints: ``sum_s u[s, t]·x_s - d·v >= 0`` and ``d·sum_s x_s = d``.
    """
    game = sg.game
    game.validate_player(player)
    other = 1 - player
    k = game.shape[player]
    m = game.shape[other]
    u, d = game._num[player], game._den
    mine, theirs = game._strides[player], game._strides[other]
    constraints = [
        ([u[s * mine + t * theirs] for s in range(k)] + [-d], ">=", 0) for t in range(m)
    ]
    constraints.append(([d] * k + [0], "=", d))
    bounds = [(0, None)] * k + [(None, None)]
    sol = solve_lp(LinearProgram([0] * k + [1], True, constraints, bounds))
    if not sol.is_optimal:
        raise AssertionError(f"guarantee LP unexpectedly {sol.status}")
    return MaximinSolution(player, tuple(sol.point[:k]), sol.objective_value)


def guarantee(sg: StatisticalGame, player: int, mixture: Sequence[Fraction]) -> Fraction:
    """Worst expected payoff of a fixed mixture over opposing pure strategies.

    The mixture must be a distribution of `Fraction`s over the player's
    strategies, as `NormalFormGame.validate_mixed` requires of each entry.
    """
    sg.game.validate_player(player)
    return _guarantee(sg.game, player, *sg.game._check_distribution(player, mixture))


def _guarantee(game: NormalFormGame, player: int, weights: list[int], scale: int) -> Fraction:
    """`guarantee` of the mixture weights/scale, as `_check_distribution` reads it:
    the least of its `reply_payoffs`."""
    (payoffs,) = reply_payoffs(game, player, [[w] for w in weights], player)
    return Fraction(min(v for (v,) in payoffs), scale * game._den)


def optimin_equals_maximin_check(sg: StatisticalGame, profile: MixedProfile) -> bool:
    """True iff both components guarantee exactly the game value."""
    read = sg.game.validate_mixed(profile)
    value = maximin_lp(sg, 0).value
    return (
        _guarantee(sg.game, 0, *read[0]) == value
        and _guarantee(sg.game, 1, *read[1]) == -value
    )


def game_value(sg: StatisticalGame) -> Fraction:
    """The zero-sum value from player 0's perspective."""
    return maximin_lp(sg, 0).value


def bulmer_game(tosses: int = 1) -> StatisticalGame:
    """The single-toss coin-identification game.

    A coin comes up heads with probability 1/4 or 1/2; the guesser sees one
    toss and then names the bias.  Rows are the guesser's decision rules and
    entries are the exact probability of being correct:

        rule "never"     guess 1/2 regardless    -> 0    vs 1/4,  1   vs 1/2
        rule "always"    guess 1/4 regardless    -> 1    vs 1/4,  0   vs 1/2
        rule "if-heads"  guess 1/4 on heads      -> 1/4  vs 1/4,  1/2 vs 1/2
        rule "if-tails"  guess 1/4 on tails      -> 3/4  vs 1/4,  1/2 vs 1/2

    Each entry is P(outcome | bias) summed over outcomes where the rule names
    the true bias.  The antagonist's payoff is the negation, making the
    interaction zero-sum.
    """
    if type(tosses) is not int or tosses != 1:  # a bool or a float is no toss count
        raise UnsupportedFeatureError(
            f"only the single-toss game is generated, got tosses={tosses}"
        )
    rows = ("never", "always", "if-heads", "if-tails")
    cols = ("p=1/4", "p=1/2")
    correct = (0, 4, 4, 0, 1, 2, 3, 2)  # in quarters, row by row as in the table above
    num = (correct, tuple(-c for c in correct))
    return StatisticalGame(NormalFormGame._from_scaled(("statistician", "nature"), (rows, cols), num, 4))
