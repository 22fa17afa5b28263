"""Finite normal-form games with exact rational payoffs.

A game is a dense payoff tensor over labelled strategies that never changes
once built.  All operations here are pure functions.  Payoffs are exact and
held in one form: each player's payoffs are ints over one common denominator.
The constructor and the file parser read a nested payoff tensor in one pass
straight to those ints (`scaled_payoffs`, one `rational.over_common_denominator`
per player), and walk it again only to name a fault.  Readers work on the ints
and build a `Fraction` only for a value they return, so at the API every payoff
is a `Fraction`.  Results reproduce bit-exactly and comparisons
never depend on floating tolerances.

Each check hands back what it read, so no caller reads a profile twice:
`validate_profile` returns the cell's row-major index, and `validate_mixed`
each distribution as int weights over their sum.  `simplex_columns`, every
way to share k units, enumerates the mixed grid's points and the TU lattice.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import mul, sub
from typing import Iterable, Iterator, NamedTuple, Sequence

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
    order; the innermost sequence holds one payoff per player.  The game
    never changes after construction; its derived state, the memo
    `_line_order` fills and the flag `_is_symmetric` computes (or
    `gen_travelers` sets), is not part of `==`, `hash` or `repr`.

    Payoffs are stored flat in row-major order, one exact integer
    representation per player: player i's payoffs are the ints ``_num[i]``
    over the common denominator ``_den[i]``, the lcm of that player's reduced
    payoff denominators, so equal games have equal representations.  These
    ints are the game's only payoff state; no `Fraction` view is kept.

    A payoff line is the cells along one player's axis with every other
    strategy held fixed.  `_orders` holds, per player, the `_line_order` of
    each line a reader has asked for, keyed by the line's first cell, so a
    line is sorted at most once per game.  In a game that every
    permutation of the players leaves unchanged (`_is_symmetric`), a
    player's line holds the same payoffs as the last player's line with the
    two players' strategies swapped, so all players share one memo: every
    line is kept under the last player.
    """

    __slots__ = ("players", "strategies", "shape", "_strides", "_num", "_den", "_orders", "_symmetric")

    def __init__(self, players: Sequence[str], strategies: Sequence[Sequence[str]], payoffs) -> None:
        self._set_labels(players, strategies)
        n = len(self.players)
        scaled = scaled_payoffs(payoffs, self.shape, n)
        if scaled is None:
            path, fault = tensor_fault(payoffs, self.shape, n, "payoffs per cell")
            raise fault if isinstance(fault, OptiminError) else ValueError(f"payoffs{path}: {fault}")
        self._num, self._den = scaled
        self._orders = tuple({} for _ in self.players)
        self._symmetric = None

    @classmethod
    def _from_scaled(cls, players, strategies, num, den) -> NormalFormGame:
        """Build from per-player int payoffs ``num[i]`` over positive ``den[i]``.

        Each player's numerators and denominator are divided by their common
        gcd, which leaves the lcm of the reduced denominators, the same
        representation ``__init__`` builds.  The gcd reads the column in
        chunks and stops at the first chunk after which it is 1, which in
        most games is the first: the rest of the column cannot change it.
        """
        game = cls.__new__(cls)
        game._set_labels(players, strategies)
        scaled = []
        dens = []
        for column, d in zip(num, den):
            column = tuple(column)
            g = d
            for k in range(0, len(column), 64):
                g = math.gcd(g, *column[k : k + 64])
                if g == 1:
                    break
            scaled.append(column if g == 1 else tuple(u // g for u in column))
            dens.append(d // g)
        game._num = tuple(scaled)
        game._den = tuple(dens)
        game._orders = tuple({} for _ in game.players)
        game._symmetric = None
        return game

    def _set_labels(self, players: Sequence[str], strategies: Sequence[Sequence[str]]) -> None:
        """Check and set the labels, shape and strides.  The one check of a
        game's labels: each refusal names its field, ``players`` or
        ``strategies[i]``, and for a repeat the label."""
        self.players = _labels(players, "players")
        if len(strategies) != len(self.players):
            raise ValueError(f"strategies: expected {len(self.players)} strategy lists")
        self.strategies = tuple(_labels(s, f"strategies[{i}]") for i, s in enumerate(strategies))
        self.shape = tuple(len(s) for s in self.strategies)
        strides = []
        acc = 1
        for size in reversed(self.shape):
            strides.append(acc)
            acc *= size
        self._strides = tuple(reversed(strides))

    def _line_order(self, player: int, start: int) -> list[int]:
        """`player`'s strategies on their payoff line that starts at cell
        `start`, best payoff first and ties in ascending order (a stable
        reverse sort).  Sorted on the first call and kept in `_orders`; the
        list is shared, so callers only read it.  Its readers are the
        two-player and the n-player value tables (`noncoop._values_2p` and
        `noncoop._values_nd`, which sort every line) and `noncoop.nash_pure`
        (the first player's lines and the other players' lines through its
        candidates).  In a symmetric game the line of any other player i is
        the last player's line through `start` with the strategies of i and
        the last player swapped, and the key is resolved to that line before
        the lookup: the last player's stride is 1, so that line starts at
        cell ``start + start % m * (stride_i - 1)``.  With two players this
        is the second player's row b for the first player's column b."""
        # The cached flag is read first: a call per read would cost more than
        # the lookup.  The last player's own line maps to itself.
        if self._symmetric or self._symmetric is None and self._is_symmetric():
            player, start = -1, start + start % self.shape[0] * (self._strides[player] - 1)
        orders = self._orders[player]
        order = orders.get(start)
        if order is None:
            stride = self._strides[player]
            line = self._num[player][start : start + self.shape[player] * stride : stride]
            order = orders[start] = sorted(range(len(line)), key=line.__getitem__, reverse=True)
        return order

    def _is_symmetric(self) -> bool:
        """Whether the game is unchanged under every permutation σ of its
        players, u_σ(i)(σ·a) = u_i(a), with one strategy count and one
        denominator for all players, so the canonical ints obey it too.

        Two permutations generate all others: the cycle i -> i + 1 and the
        swap of the first two players.  Under the cycle, player i + 1's
        payoffs where the first player plays a, a contiguous block, are
        player i's where the last player plays a, in order (the last
        player's condition follows from the others'); under the swap, each
        block of cells with the first two strategies fixed is compared with
        its mirror block.  With two players the swap is the cycle, so the
        check is the transpose test `u2[a*m:(a+1)*m] == u1[a::m]` row by row,
        and most other games are refused on their first compare.  Computed
        on the first call and kept in `_symmetric`, which `gen_travelers`
        sets itself: it builds player 2's payoffs as the transpose."""
        if self._symmetric is None:
            num, n, m = self._num, len(self.shape), self.shape[0]
            big = self._strides[0]  # cells per strategy of the first player
            small, swap = big // m, (1, 0, *range(2, n))  # cells per strategy pair of the first two
            self._symmetric = (
                self.shape == (m,) * n
                and self._den == self._den[:1] * n
                and all(v[a * big : (a + 1) * big] == u[a::m] for u, v in zip(num, num[1:]) for a in range(m))
                and (n < 3 or all(
                    num[swap[i]][b * big + a * small : b * big + (a + 1) * small]
                    == num[i][a * big + b * small : a * big + (b + 1) * small]
                    for i in range(n) for a in range(m) for b in range(m)
                ))
            )
        return self._symmetric

    # -- basic queries ----------------------------------------------------

    @property
    def num_players(self) -> int:
        return len(self.players)

    def profiles(self) -> Iterator[PureProfile]:
        """All pure profiles in lexicographic index order."""
        return itertools.product(*(range(k) for k in self.shape))

    def validate_profile(self, profile: PureProfile) -> int:
        """Refuse `profile` unless it names one strategy index per player;
        return its cell's row-major index."""
        if len(profile) != len(self.shape):
            raise InvalidProfileError(
                f"profile has {len(profile)} entries for a {len(self.shape)}-player game"
            )
        idx = 0
        for i, (s, stride) in enumerate(zip(profile, self._strides)):
            if type(s) is not int or not 0 <= s < self.shape[i]:  # a bool is no index
                raise InvalidProfileError(
                    f"strategy index {s!r} out of range for player {self.players[i]!r}"
                )
            idx += s * stride
        return idx

    def validate_player(self, player: int) -> None:
        """Refuse `player` unless it is an int index of a player."""
        if type(player) is not int or not 0 <= player < len(self.shape):
            raise InvalidProfileError(f"no player with index {player!r}")

    def payoff(self, profile: PureProfile) -> ValueVector:
        """The tensor cell for a pure profile."""
        c = self.validate_profile(profile)
        return tuple(Fraction(u[c], d) for u, d in zip(self._num, self._den))

    def validate_mixed(self, profile: MixedProfile) -> list[tuple[list[int], int]]:
        """Refuse `profile` unless it holds one distribution per player; return
        each as `_check_distribution` reads it."""
        if len(profile) != len(self.shape):
            raise InvalidDistributionError(
                f"mixed profile has {len(profile)} entries for a "
                f"{len(self.shape)}-player game"
            )
        return [self._check_distribution(i, dist) for i, dist in enumerate(profile)]

    def _check_distribution(self, i: int, dist: Sequence[Fraction]) -> tuple[list[int], int]:
        """Refuse `dist` unless it is a distribution of `Fraction`s over
        player i's strategies; return it as int weights over their sum."""
        if len(dist) != self.shape[i]:
            raise InvalidDistributionError(
                f"player {self.players[i]!r}: distribution over {len(dist)} "
                f"strategies, game has {self.shape[i]}"
            )
        for q in dist:
            if not isinstance(q, Fraction):
                raise InvalidDistributionError(
                    f"player {self.players[i]!r}: probabilities must be Fractions"
                )
            if q < 0:
                raise InvalidDistributionError(
                    f"player {self.players[i]!r}: negative probability {q}"
                )
        weights, scale = over_common_denominator(dist)
        total = sum(weights)
        if total != scale:
            raise InvalidDistributionError(
                f"player {self.players[i]!r}: probabilities sum to {Fraction(total, scale)}, not 1"
            )
        return weights, scale

    def expected_payoff(self, profile: MixedProfile) -> ValueVector:
        """Multilinear expectation of the payoff tensor, exact.

        Agrees with `payoff` on degenerate profiles.  Only support cells are
        visited, so degenerate lookups stay cheap.
        """
        # Each distribution as int weights over its own denominator, so the
        # sums are int sums over the product of those denominators.
        scale = 1
        supports = []
        for (weights, d), stride in zip(self.validate_mixed(profile), self._strides):
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


def _labels(labels: Sequence[str], field: str) -> tuple[str, ...]:
    """`labels` as strings; refuse an empty list or a repeated label, naming `field`."""
    out = tuple(map(str, labels))
    if not out:
        raise ValueError(f"{field}: expected at least one label")
    if len(set(out)) != len(out):
        raise ValueError(f"{field}: repeated label {first_repeat(out)!r}")
    return out


def first_repeat(items: Iterable):
    """The first of `items` equal to an earlier one; one must be."""
    seen = set()
    return next(x for x in items if x in seen or seen.add(x))


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


def simplex_columns(size: int, total: int) -> list[list[int]]:
    """Every way to share `total` units among `size` holders, in lexicographic
    order, as one column of shares per holder.  Each way is a nondecreasing
    run of size - 1 partial sums; a holder's share is the difference between
    consecutive ones, with 0 before the first and `total` after the last."""
    count = math.comb(total + size - 1, size - 1)
    runs = zip(*itertools.combinations_with_replacement(range(total + 1), size - 1))
    sums = [[0] * count, *runs, [total] * count]
    return [list(map(sub, high, low)) for low, high in zip(sums, sums[1:])]


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
    game.validate_player(player)
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
