"""Zero-sum games against an antagonist: exact maximin mixtures via LP.

In zero-sum games the worst-case evaluation collapses to the classical
guarantee of each strategy, so the solution concept coincides with maximin
play on both sides.  The coin-guessing game ships as a named instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DomainError, UnsupportedFeatureError
from .games import MixedProfile, NormalFormGame
from .lp import LinearProgram, solve_lp
from .rational import over_common_denominator


@dataclass(frozen=True)
class StatisticalGame:
    """A two-player game whose payoffs are exactly opposite cell by cell."""

    game: NormalFormGame

    def __post_init__(self) -> None:
        if self.game.num_players != 2:
            raise DomainError("a statistical game has exactly 2 players")
        (num0, num1), (den0, den1) = self.game._num, self.game._den
        for prof, a, b in zip(self.game.profiles(), num0, num1):
            if a * den1 + b * den0 != 0:
                u = self.game.payoff(prof)
                labels = self.game.profile_labels(prof)
                raise DomainError(f"not zero-sum at cell {labels}: {u[0]} + {u[1]} != 0")


@dataclass(frozen=True)
class MaximinSolution:
    player: int
    mixture: tuple[Fraction, ...]
    value: Fraction  # guaranteed expected payoff for this player


def _opponent(player) -> int:
    """The other player of a statistical game; refuses anything but the ints 0 and 1."""
    if type(player) is not int or player not in (0, 1):
        raise DomainError(f"player must be 0 or 1, got {player!r}")
    return 1 - player


def maximin_lp(sg: StatisticalGame, player: int) -> MaximinSolution:
    """Exact optimal mixture maximizing the player's guaranteed payoff.

    Standard guarantee-maximization LP: maximize v subject to the mixture
    earning at least v against every opposing pure strategy.  Every row is
    handed over times the player's payoff denominator d, as the payoffs'
    ints: ``sum_s u[s, t]·x_s - d·v >= 0`` and ``d·sum_s x_s = d``.
    """
    game = sg.game
    other = _opponent(player)
    k = game.shape[player]
    m = game.shape[other]
    u, d = game._num[player], game._den[player]
    mine, theirs = game._strides[player], game._strides[other]
    constraints = [
        ([u[s * mine + t * theirs] for s in range(k)] + [-d], ">=", 0) for t in range(m)
    ]
    constraints.append(([d] * k + [0], "=", d))
    bounds = [(0, None)] * k + [(None, None)]
    sol = solve_lp(LinearProgram.build([0] * k + [1], True, constraints, bounds))
    if not sol.is_optimal:
        raise AssertionError(f"guarantee LP unexpectedly {sol.status}")
    return MaximinSolution(player, tuple(sol.point[:k]), sol.objective_value)


def guarantee(sg: StatisticalGame, player: int, mixture: Sequence[Fraction]) -> Fraction:
    """Worst expected payoff of a fixed mixture over opposing pure strategies.

    The mixture must be a distribution of `Fraction`s over the player's
    strategies, as `NormalFormGame.validate_mixed` requires of each entry.
    """
    game = sg.game
    other = _opponent(player)
    game._check_distribution(player, mixture)
    u = game._num[player]
    mine, theirs = game._strides[player], game._strides[other]
    weights, scale = over_common_denominator(mixture)
    worst = min(
        sum(w * u[s * mine + t * theirs] for s, w in enumerate(weights))
        for t in range(game.shape[other])
    )
    return Fraction(worst, scale * game._den[player])


def optimin_equals_maximin_check(sg: StatisticalGame, profile: MixedProfile) -> bool:
    """True iff both components guarantee exactly the game value."""
    sg.game.validate_mixed(profile)
    value = maximin_lp(sg, 0).value
    return (
        guarantee(sg, 0, profile[0]) == value
        and guarantee(sg, 1, profile[1]) == -value
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
    if tosses != 1:
        raise UnsupportedFeatureError(
            f"only the single-toss game is generated, got tosses={tosses}"
        )
    rows = ("never", "always", "if-heads", "if-tails")
    cols = ("p=1/4", "p=1/2")
    correct = {
        "never": (Fraction(0), Fraction(1)),
        "always": (Fraction(1), Fraction(0)),
        "if-heads": (Fraction(1, 4), Fraction(1, 2)),
        "if-tails": (Fraction(3, 4), Fraction(1, 2)),
    }
    payoffs = [
        [(p, -p) for p in correct[rule]]
        for rule in rows
    ]
    game = NormalFormGame(("statistician", "nature"), (rows, cols), payoffs)
    return StatisticalGame(game)
