"""Finite normal-form games with exact rational payoffs.

A game is an immutable dense payoff tensor over labelled strategies.  All
operations here are pure functions.  Payoffs are exact and held in one form:
each player's payoffs are ints over one common denominator.  The constructor
and the file parser read a nested payoff tensor in one pass straight to those
ints (`scaled_payoffs`, one `rational.over_common_denominator` per player),
and walk it again only to name a fault.  Readers work
on the ints and build a `Fraction` only for a value they return, so at the API
every payoff is a `Fraction`.  Results reproduce bit-exactly and comparisons
never depend on floating tolerances.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import mul
from typing import Iterator, NamedTuple, Sequence

from .errors import (
    InvalidDistributionError,
    InvalidProfileError,
    InvalidScaleError,
    OptiminError,
)
from .rational import literal_ratio, over_common_denominator, to_fraction

PureProfile = tuple[int, ...]
MixedProfile = tuple[tuple[Fraction, ...], ...]
ValueVector = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


class NormalFormGame:
    """An n-player game: player labels, per-player strategy labels, payoff tensor.

    ``payoffs`` is a nested sequence indexed by strategy indices in player
    order; the innermost sequence holds one payoff per player.  The instance
    is immutable after construction.

    Payoffs are stored flat in row-major order, one exact integer
    representation per player: player i's payoffs are the ints ``_num[i]``
    over the common denominator ``_den[i]``, the lcm of that player's reduced
    payoff denominators, so equal games have equal representations.  These
    ints are the game's only payoff state; no `Fraction` view is kept.
    """

    __slots__ = ("players", "strategies", "shape", "_strides", "_num", "_den")

    def __init__(self, players: Sequence[str], strategies: Sequence[Sequence[str]], payoffs) -> None:
        self._set_labels(players, strategies)
        n = len(self.players)
        scaled = scaled_payoffs(payoffs, self.shape, n)
        if scaled is None:
            path, fault = tensor_fault(payoffs, self.shape, n, "payoffs per cell")
            raise fault if isinstance(fault, OptiminError) else ValueError(f"payoffs{path}: {fault}")
        self._num, self._den = scaled

    @classmethod
    def _from_scaled(cls, players, strategies, num, den) -> NormalFormGame:
        """Build from per-player int payoffs ``num[i]`` over positive ``den[i]``.

        Each player's numerators and denominator are divided by their common
        gcd, which leaves the lcm of the reduced denominators, the same
        representation ``__init__`` builds.
        """
        game = cls.__new__(cls)
        game._set_labels(players, strategies)
        scaled = []
        dens = []
        for column, d in zip(num, den):
            g = math.gcd(d, *column)
            scaled.append(tuple(column) if g == 1 else tuple(u // g for u in column))
            dens.append(d // g)
        game._num = tuple(scaled)
        game._den = tuple(dens)
        return game

    def _set_labels(self, players: Sequence[str], strategies: Sequence[Sequence[str]]) -> None:
        """Validate and set the labels, shape and strides."""
        self.players = tuple(str(p) for p in players)
        if not self.players:
            raise ValueError("a game needs at least one player")
        if len(set(self.players)) != len(self.players):
            raise ValueError("player labels must be unique")
        self.strategies = tuple(tuple(str(s) for s in strats) for strats in strategies)
        if len(self.strategies) != len(self.players):
            raise ValueError(
                f"{len(self.players)} players but {len(self.strategies)} strategy lists"
            )
        for i, strats in enumerate(self.strategies):
            if not strats:
                raise ValueError(f"player {self.players[i]!r} has an empty strategy list")
            if len(set(strats)) != len(strats):
                raise ValueError(f"duplicate strategy label for player {self.players[i]!r}")
        self.shape = tuple(len(s) for s in self.strategies)
        strides = []
        acc = 1
        for size in reversed(self.shape):
            strides.append(acc)
            acc *= size
        self._strides = tuple(reversed(strides))

    def _index(self, profile: PureProfile) -> int:
        return sum(i * s for i, s in zip(profile, self._strides))

    # -- basic queries ----------------------------------------------------

    @property
    def num_players(self) -> int:
        return len(self.players)

    def profiles(self) -> Iterator[PureProfile]:
        """All pure profiles in lexicographic index order."""
        return itertools.product(*(range(k) for k in self.shape))

    def validate_profile(self, profile: PureProfile) -> None:
        if len(profile) != len(self.shape):
            raise InvalidProfileError(
                f"profile has {len(profile)} entries for a {len(self.shape)}-player game"
            )
        for i, s in enumerate(profile):
            if not isinstance(s, int) or not 0 <= s < self.shape[i]:
                raise InvalidProfileError(
                    f"strategy index {s!r} out of range for player {self.players[i]!r}"
                )

    def payoff(self, profile: PureProfile) -> ValueVector:
        """The tensor cell for a pure profile."""
        self.validate_profile(profile)
        c = self._index(profile)
        return tuple(Fraction(u[c], d) for u, d in zip(self._num, self._den))

    def validate_mixed(self, profile: MixedProfile) -> None:
        if len(profile) != len(self.shape):
            raise InvalidDistributionError(
                f"mixed profile has {len(profile)} entries for a "
                f"{len(self.shape)}-player game"
            )
        for i, dist in enumerate(profile):
            self._check_distribution(i, dist)

    def _check_distribution(self, i: int, dist: Sequence[Fraction]) -> None:
        """Refuse `dist` unless it is a distribution of `Fraction`s over
        player i's strategies."""
        if len(dist) != self.shape[i]:
            raise InvalidDistributionError(
                f"player {self.players[i]!r}: distribution over {len(dist)} "
                f"strategies, game has {self.shape[i]}"
            )
        total = ZERO
        for q in dist:
            if not isinstance(q, Fraction):
                raise InvalidDistributionError(
                    f"player {self.players[i]!r}: probabilities must be Fractions"
                )
            if q < 0:
                raise InvalidDistributionError(
                    f"player {self.players[i]!r}: negative probability {q}"
                )
            total += q
        if total != ONE:
            raise InvalidDistributionError(
                f"player {self.players[i]!r}: probabilities sum to {total}, not 1"
            )

    def expected_payoff(self, profile: MixedProfile) -> ValueVector:
        """Multilinear expectation of the payoff tensor, exact.

        Agrees with `payoff` on degenerate profiles.  Only support cells are
        visited, so degenerate lookups stay cheap.
        """
        self.validate_mixed(profile)
        # Each distribution as int weights over its own denominator, so the
        # sums are int sums over the product of those denominators.
        scale = 1
        supports = []
        for dist, stride in zip(profile, self._strides):
            weights, d = over_common_denominator(dist)
            scale *= d
            supports.append([(s * stride, w) for s, w in enumerate(weights) if w])
        totals = [0] * len(self.players)
        for combo in itertools.product(*supports):
            c = sum(offset for offset, _ in combo)
            weight = math.prod(w for _, w in combo)
            for i, u in enumerate(self._num):
                totals[i] += weight * u[c]
        return tuple(Fraction(t, scale * d) for t, d in zip(totals, self._den))

    # -- label helpers -----------------------------------------------------

    def profile_labels(self, profile: PureProfile) -> tuple[str, ...]:
        self.validate_profile(profile)
        return tuple(self.strategies[i][s] for i, s in enumerate(profile))

    def profile_from_labels(self, labels: Sequence[str]) -> PureProfile:
        if len(labels) != len(self.shape):
            raise InvalidProfileError(
                f"expected {len(self.shape)} strategy labels, got {len(labels)}"
            )
        out = []
        for i, label in enumerate(labels):
            try:
                out.append(self.strategies[i].index(label))
            except ValueError:
                raise InvalidProfileError(
                    f"player {self.players[i]!r} has no strategy {label!r}"
                ) from None
        return tuple(out)

    def degenerate(self, profile: PureProfile) -> MixedProfile:
        """The mixed profile putting probability 1 on a pure profile."""
        self.validate_profile(profile)
        return tuple(
            tuple(ONE if s == profile[i] else ZERO for s in range(self.shape[i]))
            for i in range(len(self.shape))
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, NormalFormGame):
            return NotImplemented
        return (
            self.players == other.players
            and self.strategies == other.strategies
            and self._den == other._den
            and self._num == other._num
        )

    def __hash__(self) -> int:
        return hash((self.players, self.strategies, self._den, self._num))

    def __repr__(self) -> str:
        dims = "x".join(str(k) for k in self.shape)
        return f"NormalFormGame({dims}, players={list(self.players)})"


def scaled_payoffs(payoffs, shape: tuple[int, ...], n: int):
    """A nested payoff tensor of `shape` whose cells hold `n` literals each, as
    `NormalFormGame`'s ``(_num, _den)``, or None if it is malformed.

    Each level is checked for type and length, then each player's literals
    are read by `over_common_denominator`.
    """
    level = [payoffs]
    for size in shape + (n,):
        if not all(isinstance(node, (list, tuple)) and len(node) == size for node in level):
            return None
        level = list(itertools.chain.from_iterable(level))
    try:
        columns = [over_common_denominator(level[i::n]) for i in range(n)]
    except OptiminError:
        return None
    return tuple(tuple(num) for num, _ in columns), tuple(d for _, d in columns)


def tensor_fault(payoffs, shape: tuple[int, ...], n: int, cell: str) -> tuple[str, str | OptiminError]:
    """The index path ("[0][2]") of the first fault, in depth-first order, of a
    tensor `scaled_payoffs` refused, with what it lacks: "expected <length>
    entries" (or <cell>, for a cell) for a node of the wrong type or length, or
    the error of a literal that does not read."""
    sizes = shape + (n,)
    stack = [("", payoffs, 0)]
    while stack:
        path, node, depth = stack.pop()
        if depth == len(sizes):
            try:
                literal_ratio(node)
            except OptiminError as exc:
                return path, exc
        elif not isinstance(node, (list, tuple)) or len(node) != sizes[depth]:
            return path, f"expected {sizes[depth]} {cell if depth == len(shape) else 'entries'}"
        else:
            stack.extend(reversed([(f"{path}[{k}]", child, depth + 1) for k, child in enumerate(node)]))


class ConstantSumCheck(NamedTuple):
    is_constant_sum: bool
    constant: Fraction | None


def is_constant_sum(game: NormalFormGame) -> ConstantSumCheck:
    """Whether every cell's payoffs sum to one and the same constant."""
    common = math.lcm(*game._den)
    factors = [common // d for d in game._den]
    sums = iter(sum(map(mul, cell, factors)) for cell in zip(*game._num))
    constant = next(sums)
    if any(total != constant for total in sums):
        return ConstantSumCheck(False, None)
    return ConstantSumCheck(True, Fraction(constant, common))


def affine_transform(game: NormalFormGame, player: int, alpha, beta) -> NormalFormGame:
    """Rescale one player's payoffs to alpha*u + beta, alpha > 0."""
    alpha = to_fraction(alpha)
    beta = to_fraction(beta)
    if alpha <= 0:
        raise InvalidScaleError(f"scale factor must be positive, got {alpha}")
    if not 0 <= player < game.num_players:
        raise InvalidProfileError(f"no player with index {player}")
    # alpha*u/d + beta over the common denominator d*alpha.den*beta.den.
    d = game._den[player]
    a = alpha.numerator * beta.denominator
    b = beta.numerator * alpha.denominator * d
    num = list(game._num)
    den = list(game._den)
    num[player] = [a * u + b for u in num[player]]
    den[player] = d * alpha.denominator * beta.denominator
    return NormalFormGame._from_scaled(game.players, game.strategies, num, den)


def fictitious_extension(game: NormalFormGame, constant) -> NormalFormGame:
    """Append a one-strategy player absorbing the residual up to `constant`.

    The new player's payoff in each cell is constant minus the cell sum, so
    the extended game is constant-sum at exactly `constant`.
    """
    constant = to_fraction(constant)
    label = "fictitious"
    while label in game.players:
        label += "'"
    common = math.lcm(constant.denominator, *game._den)
    factors = [common // d for d in game._den]
    target = constant.numerator * (common // constant.denominator)
    residual = [target - sum(map(mul, cell, factors)) for cell in zip(*game._num)]
    return NormalFormGame._from_scaled(
        game.players + (label,),
        game.strategies + (("only",),),
        game._num + (residual,),
        game._den + (common,),
    )
