"""Worst-case evaluation of tacit agreements in noncooperative games.

The pipeline: for an agreement (a strategy profile), each player's value is
the minimum payoff over the agreement itself and all profitable unilateral
deviations by the others; agreements whose value vectors are Pareto optimal
form the solution set.  Pure mode restricts deviations to pure strategies;
mixed mode (two players only) admits mixed deviations and takes their worst
case in closed form.

Every solver reads each player's payoffs as ints over one denominator.  The
pure solution set filters the int value vectors by cell position and builds
profiles and witnesses only for the cells that survive.  The mixed grid
search Pareto-filters exact int keys (values scaled to the lcm of their
denominators over the grid) and builds `Fraction` values and witnesses only
for the survivors; a mixed witness is the opponent's lowest-index optimal
pure reply, else the first optimal mixture of two replies in (s, t) order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Iterable, Iterator, Sequence

from .errors import ParameterError, ResourceLimitError, UnsupportedArityError
from .games import MixedProfile, NormalFormGame, PureProfile, ValueVector
from .pareto import pareto_filter, pareto_positions
from .rational import over_common_denominator


# optimin_grid_2p refuses grids above this many profiles; large strategy
# spaces (e.g. 99-strategy games) stay in pure mode.
GRID_PROFILE_LIMIT = 50_000


@dataclass(frozen=True)
class BetterResponseSet:
    """Strategies strictly improving `player`'s payoff at `profile`."""

    player: int
    profile: PureProfile
    responses: tuple[int, ...]

    def __contains__(self, strategy: int) -> bool:
        return strategy in self.responses

    def __bool__(self) -> bool:
        return bool(self.responses)


@dataclass(frozen=True)
class DeviationSpace:
    """Per-opponent option sets whose product the value of `player` is minimized over.

    Each factor is the opponent's better responses plus their agreed strategy,
    so the agreement itself always belongs to the product.
    """

    player: int
    profile: PureProfile
    options: tuple[tuple[int, ...], ...]  # per player; own entry is (p_i,)

    def profiles(self) -> Iterator[PureProfile]:
        """Full profiles in lexicographic order (own strategy held fixed)."""
        return itertools.product(*self.options)


@dataclass(frozen=True)
class EvaluatedProfile:
    """An agreement, its value vector, and one minimizing deviation per player."""

    profile: tuple
    value: ValueVector
    witnesses: tuple


def _steps(game: NormalFormGame, idx: int, profile: PureProfile) -> list[list[int]]:
    """Per player, the cell index steps from `idx` (the cell of `profile`) to
    their agreed strategy and to each strictly better reply, ascending."""
    steps = []
    for u, p, stride, m in zip(game._num, profile, game._strides, game.shape):
        base = u[idx]
        start = idx - p * stride
        line = u[start : start + m * stride : stride]
        steps.append([(s - p) * stride for s, v in enumerate(line) if v > base or s == p])
    return steps


def better_responses(game: NormalFormGame, profile: PureProfile, player: int) -> BetterResponseSet:
    game.validate_profile(profile)
    profile = tuple(profile)
    step = _steps(game, game._index(profile), profile)[player]
    stride = game._strides[player]
    return BetterResponseSet(player, profile, tuple(profile[player] + d // stride for d in step if d))


def deviation_space(game: NormalFormGame, profile: PureProfile, player: int) -> DeviationSpace:
    game.validate_profile(profile)
    profile = tuple(profile)
    steps = _steps(game, game._index(profile), profile)
    options = tuple(
        (p,) if j == player else tuple(p + d // stride for d in step)
        for j, (p, stride, step) in enumerate(zip(profile, game._strides, steps))
    )
    return DeviationSpace(player, profile, options)


def _deviation_cells(game: NormalFormGame, idx: int, profile: PureProfile) -> Iterator[list[int]]:
    """Per player i in turn, the cells of i's deviation product at cell `idx`
    in lexicographic profile order: i keeps `profile[i]`, and each opponent
    stays or plays a strictly better reply."""
    steps = _steps(game, idx, profile)
    for i in range(len(steps)):
        cells = [idx]
        for j, step in enumerate(steps):
            if j != i and len(step) > 1:  # a lone step is 0: the opponent stays
                cells = [c + d for c in cells for d in step]
        yield cells


def _rescale(game: NormalFormGame, values) -> ValueVector:
    return tuple(Fraction(v, d) for v, d in zip(values, game._den))


def value_pure(game: NormalFormGame, profile: PureProfile) -> EvaluatedProfile:
    """Worst-case payoff per player over pure profitable deviations.

    Witnesses are the lexicographically smallest minimizers, so output is
    reproducible no matter how cells are scheduled.
    """
    game.validate_profile(profile)
    profile = tuple(profile)
    values = []
    witnesses = []
    for u, cells in zip(game._num, _deviation_cells(game, game._index(profile), profile)):
        witness = min(cells, key=u.__getitem__)  # the first, so the lexicographically smallest
        values.append(u[witness])
        witnesses.append(_profile_at(game, witness))
    return EvaluatedProfile(profile, _rescale(game, values), tuple(witnesses))


def value_table(game: NormalFormGame) -> dict[PureProfile, ValueVector]:
    """The value vector of every cell, keyed in lexicographic profile order."""
    return {prof: _rescale(game, vec) for prof, vec in zip(game.profiles(), _scaled_values(game))}


def _scaled_values(game: NormalFormGame) -> list[tuple[int, ...]]:
    """`value_table`'s vectors over `_num` in row-major cell order, each
    player's values times their `_den`; no profile is built."""
    if game.num_players == 2:
        return _values_2p(game)
    table = []
    for idx, prof in enumerate(game.profiles()):
        per_player = zip(game._num, _deviation_cells(game, idx, prof))
        table.append(tuple([min(map(u.__getitem__, cells)) for u, cells in per_player]))
    return table


def _values_2p(game: NormalFormGame) -> list[tuple[int, int]]:
    # Per row (column), the deviation minimum over the opponent's strictly
    # better cells is a suffix minimum after sorting by the opponent's payoff,
    # which avoids the quadratic per-line scan on big matrices.
    nr, nc = game.shape
    u1, u2 = game._num
    v1 = [_line_minima(u1[a * nc : (a + 1) * nc], u2[a * nc : (a + 1) * nc]) for a in range(nr)]
    v2 = [_line_minima(u2[b::nc], u1[b::nc]) for b in range(nc)]
    # v1 is row by row and v2 column by column; both flatten to row-major.
    return list(zip(itertools.chain.from_iterable(v1), itertools.chain.from_iterable(zip(*v2))))


def _line_minima(mine: Sequence[int], theirs: Sequence[int]) -> list[int]:
    """For each index k: min of mine over {k} and all j with theirs[j] > theirs[k]."""
    out = list(mine)
    lower = None  # min of `mine` over the strictly-greater suffix
    running = None  # min of `mine` over everything visited so far
    prev = None
    for k in sorted(range(len(mine)), key=theirs.__getitem__, reverse=True):
        if theirs[k] != prev:
            lower, prev = running, theirs[k]
        m = mine[k]
        if lower is not None and lower < m:
            out[k] = lower
        if running is None or m < running:
            running = m
    return out


def optimin_pure(game: NormalFormGame) -> list[EvaluatedProfile]:
    """Pareto-optimal agreements of the pure value table (never empty).

    The filter runs on the scaled values: multiplying each player's values
    by their positive `_den` changes no domination.  Only the surviving
    cells are decoded to profiles and evaluated with witnesses.
    """
    return [value_pure(game, _profile_at(game, idx)) for idx in pareto_positions(_scaled_values(game))]


def _profile_at(game: NormalFormGame, idx: int) -> PureProfile:
    """The profile of cell `idx`, decoded by strides."""
    return tuple(idx // stride % m for stride, m in zip(game._strides, game.shape))


@dataclass(frozen=True)
class PlayerMaximin:
    player: int
    strategies: tuple[int, ...]
    security: Fraction
    guarantees: tuple[Fraction, ...]  # per own strategy


def maximin_profile(game: NormalFormGame) -> list[PlayerMaximin]:
    """Pure maximin strategies: worst case taken over all opponent cells."""
    results = []
    size = len(game._num[0])
    for i, (u, stride, d) in enumerate(zip(game._num, game._strides, game._den)):
        # With strategy s, player i's cells are the stride-long runs starting
        # at s * stride within each block of shape[i] * stride cells.
        block = stride * game.shape[i]
        guarantees = [
            min(min(u[start : start + stride]) for start in range(s * stride, size, block))
            for s in range(game.shape[i])
        ]
        security = max(guarantees)
        best = tuple(s for s, g in enumerate(guarantees) if g == security)
        results.append(
            PlayerMaximin(i, best, Fraction(security, d), tuple(Fraction(g, d) for g in guarantees))
        )
    return results


def nash_pure(game: NormalFormGame) -> list[PureProfile]:
    """Cells from which no player has a strictly better unilateral response."""
    size = len(game._num[0])
    cells: Iterable[int] = range(size)
    for u, stride, count in zip(game._num, game._strides, game.shape):
        # Line k along this player's axis starts at cell k // stride * block
        # + k % stride; top[k] is the player's best payoff on it.
        block = stride * count
        top = [
            max(u[start : start + block : stride])
            for first in range(0, size, block)
            for start in range(first, first + stride)
        ]
        cells = [c for c in cells if u[c] == top[c // block * stride + c % stride]]
    return [_profile_at(game, c) for c in cells]


def value_mixed_2p(game: NormalFormGame, profile: MixedProfile) -> EvaluatedProfile:
    """Worst-case payoffs under mixed deviations, two-player games only.

    Values come from the int core `_deviation_minimum`, which the grid search
    shares.  Each witness swaps in a minimizing deviation for the opponent:
    the lowest-index optimal pure reply, else the first optimal mixture of a
    losing s and a gaining t in lexicographic (s, t) order.
    """
    if game.num_players != 2:
        raise UnsupportedArityError(
            f"mixed values support exactly 2 players, game has {game.num_players}"
        )
    game.validate_mixed(profile)
    sides = [_side(game, i, *over_common_denominator(profile[i])) for i in (0, 1)]
    cores = [_deviation_minimum(*sides), _deviation_minimum(*sides[::-1])]
    return _entry(game, profile, sides, cores)


def _side(game: NormalFormGame, i: int, weights, scale: int) -> tuple[list, list, tuple, int]:
    """(mine, theirs, weights, scale) for player i playing the mixture weights/scale.

    mine[t] and theirs[t] are i's and j's payoffs, as ints over scale * _den,
    when j answers with pure strategy t.
    """
    j = 1 - i
    num_i, num_j = game._num[i], game._num[j]
    stride_j = game._strides[j]
    support = [(s * game._strides[i], w) for s, w in enumerate(weights) if w]
    replies = range(game.shape[j])
    mine = [sum(w * num_i[o + t * stride_j] for o, w in support) for t in replies]
    theirs = [sum(w * num_j[o + t * stride_j] for o, w in support) for t in replies]
    return mine, theirs, weights, scale


def _deviation_minimum(side, other) -> tuple[int, int, object]:
    """(num, den, choice): the value of `side`'s player against `other`'s is
    num / (den * scale * _den) in `side`'s units.  `choice` is the minimizer
    under `value_mixed_2p`'s tie-break: None when the opponent has no
    profitable deviation, a pure reply t, or an edge (s, t).
    """
    (mine, theirs, _, _), (_, _, agreed, qscale) = side, other
    # The opponent's gain from answering t instead of its agreed mixture, times qscale.
    expected = sum(map(mul, agreed, theirs))
    gain = [u * qscale - expected for u in theirs]
    if max(gain) <= 0:
        # A mixture's payoff is a convex combination of these pure payoffs,
        # so the opponent has no profitable deviation at all and the
        # agreement's own payoff stands.
        return sum(map(mul, agreed, mine)), qscale, None
    # The deviation set {q : gain·q > 0} is open, but it is nonempty here, so
    # every point of {q : gain·q >= 0} is a limit of points inside it (slide
    # toward any strictly better q), and the infimum of mine·q is its minimum
    # over that closure, which holds the agreed mixture too.  The closure is
    # the simplex cut by one halfspace, so the minimum sits at a vertex: a
    # pure reply with gain >= 0, or the point with gain·q = 0 on an edge from
    # s to t.
    num, choice = min((mine[t], t) for t, g in enumerate(gain) if g >= 0)
    den = 1
    gainers = [(t, g, mine[t]) for t, g in enumerate(gain) if g > 0]
    for s, (loss, ms) in enumerate(zip(gain, mine)):
        if loss < 0:
            for t, g, mt in gainers:
                if (ms * g - mt * loss) * den < num * (g - loss):
                    num, den, choice = ms * g - mt * loss, g - loss, (s, t)
    return num, den, choice


def _entry(game: NormalFormGame, profile, sides, cores) -> EvaluatedProfile:
    """`profile` evaluated from its `_side`s and their `_deviation_minimum`s."""
    values = []
    witnesses = []
    for i, (num, den, choice) in enumerate(cores):
        j = 1 - i
        mine, theirs, _, scale = sides[i]
        values.append(Fraction(num, den * scale * game._den[i]))
        if choice is None:
            witnesses.append(profile)
            continue
        dev = [Fraction(0)] * len(mine)
        if isinstance(choice, int):
            dev[choice] = Fraction(1)
        else:
            # The edge point weighs s by gain[t] / den and t by -gain[s] / den.
            s, t = choice
            _, _, agreed, qscale = sides[j]
            gain_t = theirs[t] * qscale - sum(map(mul, agreed, theirs))
            dev[s], dev[t] = Fraction(gain_t, den), Fraction(den - gain_t, den)
        witnesses.append((profile[0], tuple(dev)) if j == 1 else (tuple(dev), profile[1]))
    return EvaluatedProfile(tuple(profile), tuple(values), tuple(witnesses))


@dataclass(frozen=True)
class GridOptimin:
    """Pareto survivors of the mixed value over a finite probability grid.

    The label is a reminder that the grid may miss the exact mixed solution;
    results are approximate by construction.
    """

    resolution: int
    entries: tuple[EvaluatedProfile, ...]
    kind: str = field(default="grid-approximate")


def _simplex_grid(size: int, k: int) -> list[tuple[int, ...]]:
    """All distributions over `size` atoms as int weights summing to k, in
    lexicographic order: k stars split by size - 1 bars at positions `cuts`."""
    end = k + size - 1
    return [
        tuple(b - a - 1 for a, b in zip((-1,) + cuts, cuts + (end,)))
        for cuts in itertools.combinations(range(end), size - 1)
    ]


def grid_profiles_2p(game: NormalFormGame, k: int) -> list[MixedProfile]:
    g0, g1 = ([tuple(Fraction(w, k) for w in ws) for ws in g] for g in _grids_2p(game, k))
    return [(p, q) for p in g0 for q in g1]


def _grids_2p(game: NormalFormGame, k: int) -> tuple[list, list]:
    """Each player's int weights over k on the 1/k grid, once the grid's size is checked."""
    if game.num_players != 2:
        raise UnsupportedArityError("probability grids support exactly 2 players")
    if k < 1:
        raise ParameterError(f"grid resolution must be >= 1, got {k} (--mixed-grid)")
    sizes = [math.comb(game.shape[i] + k - 1, game.shape[i] - 1) for i in (0, 1)]
    if sizes[0] * sizes[1] > GRID_PROFILE_LIMIT:
        raise ResourceLimitError(
            f"grid of {sizes[0] * sizes[1]} profiles exceeds the {GRID_PROFILE_LIMIT}-profile "
            "bound (GRID_PROFILE_LIMIT); lower --mixed-grid or use --pure"
        )
    return _simplex_grid(game.shape[0], k), _simplex_grid(game.shape[1], k)


def optimin_grid_2p(game: NormalFormGame, k: int) -> GridOptimin:
    """The `value_mixed_2p` entries of the Pareto-optimal 1/k grid profiles, in grid order.

    Every grid point has scale k, so the filter reads player i's num / den from
    `_deviation_minimum` as the int key num * (L_i // den), L_i being the lcm
    of i's dens over the grid; only the survivors get `Fraction`s.
    """
    g0, g1 = _grids_2p(game, k)
    # Each grid point's payoff vectors serve every profile it is part of.
    sides0 = [_side(game, 0, w, k) for w in g0]
    sides1 = [_side(game, 1, w, k) for w in g1]
    cores = [
        (_deviation_minimum(s0, s1), _deviation_minimum(s1, s0)) for s0 in sides0 for s1 in sides1
    ]
    l0, l1 = (math.lcm(*{c[i][1] for c in cores}) for i in (0, 1))
    keys = [(n0 * (l0 // d0), n1 * (l1 // d1)) for (n0, d0, _), (n1, d1, _) in cores]
    kept = [divmod(n, len(g1)) for n in pareto_filter(range(len(cores)), key=keys.__getitem__)]
    # Each surviving grid point's mixture is built once and shared by its entries.
    p = {a: tuple(Fraction(w, k) for w in g0[a]) for a, _ in kept}
    q = {b: tuple(Fraction(w, k) for w in g1[b]) for _, b in kept}
    entries = tuple(
        _entry(game, (p[a], q[b]), (sides0[a], sides1[b]), cores[a * len(g1) + b]) for a, b in kept
    )
    return GridOptimin(resolution=k, entries=entries)


def is_maximin_equilibrium(game: NormalFormGame, profile: PureProfile) -> bool:
    """Agreement is optimin, or each strategy maximizes its own-deviation value."""
    game.validate_profile(profile)
    profile = tuple(profile)
    idx = game._index(profile)
    for i, (u, p, stride) in enumerate(zip(game._num, profile, game._strides)):
        own_values = []
        for s in range(game.shape[i]):
            per_player = _deviation_cells(game, idx + (s - p) * stride, profile[:i] + (s,) + profile[i + 1 :])
            own_values.append(min(map(u.__getitem__, list(per_player)[i])))
        if own_values[p] != max(own_values):
            break
    else:
        return True
    return idx in pareto_positions(_scaled_values(game))
