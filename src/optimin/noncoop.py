"""Worst-case evaluation of tacit agreements in noncooperative games.

The pipeline: for an agreement (a strategy profile), each player's value is
the minimum payoff over the agreement itself and all profitable unilateral
deviations by the others; agreements whose value vectors are Pareto optimal
form the solution set.  Pure mode restricts deviations to pure strategies;
mixed mode (two players only) admits mixed deviations and takes their worst
case in closed form.

Every solver reads each player's payoffs as ints over one denominator.  The
pure solution set filters the int value vectors by cell position and builds
profiles and witnesses only for the cells that survive.

A mixed value comes from one lower convex chain per grid point (`_chain`):
each opponent reply t is the point (their payoff, my payoff), and the value
is that chain evaluated at the opponent's agreed payoff E, so a profile costs
one dot product, one `bisect` and one int interpolation.  The grid search
Pareto-filters exact int keys (values scaled to the lcm of their denominators
over the grid) and builds `Fraction` values and witnesses only for the
survivors.  A witness is found by scanning the deviation vertices for the
known value (`_witness`): the opponent's lowest-index optimal pure reply,
else the first optimal mixture of two replies in (s, t) order.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Iterable, Iterator, Sequence

from .errors import GRID_PROFILE_LIMIT, VALUE_TABLE_MAX_PROFILES
from .errors import ParameterError, ResourceLimitError, UnsupportedArityError
from .games import MixedProfile, NormalFormGame, PureProfile, ValueVector
from .pareto import pareto_filter, pareto_positions
from .rational import over_common_denominator


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
    player's values times their `_den`; no profile is built.  With 3 or more
    players each cell scans, per player, the product of the opponents' option
    sets, so the worst-case count of those profiles is checked first."""
    if game.num_players == 2:
        return _values_2p(game)
    cells = len(game._num[0])
    profiles = cells * sum(cells // m for m in game.shape)
    if profiles > VALUE_TABLE_MAX_PROFILES:
        what = f"value table of {'x'.join(map(str, game.shape))} cells ({profiles} deviation profiles)"
        raise ResourceLimitError.past(
            what, VALUE_TABLE_MAX_PROFILES, "profile", "VALUE_TABLE_MAX_PROFILES"
        )
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

    Each value is the `_chain` of the player's `_side` evaluated at the
    opponent's agreed payoff (`_hull_value`), as in the grid search.  Each
    witness swaps in a minimizing deviation for the opponent, found by
    `_witness`: the lowest-index optimal pure reply, else the first optimal
    mixture of a losing s and a gaining t in lexicographic (s, t) order.
    """
    if game.num_players != 2:
        raise UnsupportedArityError(
            f"mixed values support exactly 2 players, game has {game.num_players}"
        )
    game.validate_mixed(profile)
    sides = [_side(game, i, *over_common_denominator(profile[i])) for i in (0, 1)]
    cores = [_hull_value(_chain(side, other[3]), side, other) for side, other in (sides, sides[::-1])]
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


def _chain(side, qscale: int) -> tuple[list[int], list[int]]:
    """(xs, ys): the lower convex chain of the points (theirs[t] * qscale, mine[t])
    from the lowest point (the rightmost among ties) to the rightmost point
    (the lowest among ties), with xs strictly increasing.

    Against an agreed opponent mixture of scale `qscale`, the minimum of
    mine·q' over the mixtures q' with theirs·q' * qscale >= E is this chain
    evaluated at E: the lower boundary of the points' hull, which is convex,
    cut to the part where it rises (Andrew's monotone chain, collinear points
    dropped).
    """
    mine, theirs, _, _ = side
    lowest = {}  # per x, only the lowest point can be on the chain
    for x, y in zip(theirs, mine):
        x *= qscale
        if lowest.get(x, y) >= y:
            lowest[x] = y
    hull: list[tuple[int, int]] = []
    for x, y in sorted(lowest.items()):
        while len(hull) > 1:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            if (x1 - x0) * (y - y0) > (y1 - y0) * (x - x0):  # a strict left turn
                break
            hull.pop()
        hull.append((x, y))
    # On a strictly convex chain the lowest y shows up at most twice, as a
    # flat edge; the rising part starts at its right end.
    low = min(y for _, y in hull)
    start = max(k for k, (_, y) in enumerate(hull) if y == low)
    return [x for x, _ in hull[start:]], [y for _, y in hull[start:]]


def _hull_value(chain, side, other) -> tuple[int, int]:
    """(num, den): the value of `side`'s player against `other`'s agreed
    weights is num / (den * scale * _den) in `side`'s units; `chain` is
    `side`'s `_chain` at `other`'s scale.

    The opponent's agreed payoff is E = agreed·theirs (over qscale).  When no
    pure reply beats it, no mixture does either, since a mixture's payoff is
    a convex combination of the pure ones, and the agreement's own payoff
    stands.  Otherwise the deviation set {q : gain·q > 0} is open but
    nonempty, so every point of {q : gain·q >= 0} is a limit of points inside
    it (slide toward any strictly better q), and the infimum of mine·q is its
    minimum over that closure, which holds the agreed mixture too: `chain`
    evaluated at E.
    """
    xs, ys = chain
    (mine, theirs, _, _), (_, _, agreed, qscale) = side, other
    expected = sum(map(mul, agreed, theirs))
    if expected >= xs[-1]:
        return sum(map(mul, agreed, mine)), qscale
    b = bisect_left(xs, expected)
    if not b:
        return ys[0], 1
    xa, xb = xs[b - 1], xs[b]
    return ys[b - 1] * (xb - expected) + ys[b] * (expected - xa), xb - xa


def _witness(side, other, num: int, den: int):
    """The deviation that attains the value num / den (in `side`'s units over
    its scale * _den): None when the opponent has no profitable deviation, else
    the lowest-index pure reply t with gain >= 0 worth exactly that, else the
    first edge (s, t) in lexicographic order, gain[s] < 0 < gain[t], whose
    point with gain·q = 0 is worth exactly that, as (s, t, gain[t], width)
    with width = gain[t] - gain[s].  The value's minimum sits at one of these
    vertices, since {q : gain·q >= 0} is the simplex cut by one halfspace.
    """
    (mine, theirs, _, _), (_, _, agreed, qscale) = side, other
    # The opponent's gain from answering t instead of its agreed mixture, times qscale.
    expected = sum(map(mul, agreed, theirs))
    gain = [u * qscale - expected for u in theirs]
    if max(gain) <= 0:
        return None
    for t, (g, mt) in enumerate(zip(gain, mine)):
        if g >= 0 and mt * den == num:
            return t
    for s, (loss, ms) in enumerate(zip(gain, mine)):
        if loss < 0:
            for t, (g, mt) in enumerate(zip(gain, mine)):
                if g > 0 and (ms * g - mt * loss) * den == num * (g - loss):
                    return s, t, g, g - loss
    raise AssertionError(f"hull bug: no deviation vertex is worth {num}/{den}")


def _entry(game: NormalFormGame, profile, sides, cores) -> EvaluatedProfile:
    """`profile` evaluated from its `_side`s and their `_hull_value`s, with one
    `_witness` per player."""
    values = []
    witnesses = []
    for i, (num, den) in enumerate(cores):
        j = 1 - i
        mine, _, _, scale = sides[i]
        values.append(Fraction(num, den * scale * game._den[i]))
        choice = _witness(sides[i], sides[j], num, den)
        if choice is None:
            witnesses.append(profile)
            continue
        dev = [Fraction(0)] * len(mine)
        if isinstance(choice, int):
            dev[choice] = Fraction(1)
        else:
            # The edge point weighs s by gain[t] / width and t by -gain[s] / width.
            s, t, gain_t, width = choice
            dev[s], dev[t] = Fraction(gain_t, width), Fraction(width - gain_t, width)
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
        what, hint = f"grid of {sizes[0] * sizes[1]} profiles", "lower --mixed-grid or use --pure"
        raise ResourceLimitError.past(what, GRID_PROFILE_LIMIT, "profile", "GRID_PROFILE_LIMIT", hint)
    return _simplex_grid(game.shape[0], k), _simplex_grid(game.shape[1], k)


def optimin_grid_2p(game: NormalFormGame, k: int) -> GridOptimin:
    """The `value_mixed_2p` entries of the Pareto-optimal 1/k grid profiles, in grid order.

    Every grid point has scale k, so each point's `_chain` is built once and
    serves every profile it is part of; `_hull_value` reads player i's value
    from it as num / den, and the filter takes the int key num * (L_i // den),
    L_i being the lcm of i's dens over the grid.  Only the survivors get
    `Fraction`s and `_witness` scans.
    """
    g0, g1 = _grids_2p(game, k)
    # Each grid point's payoff vectors and chain serve every profile it is part of.
    sides0 = [_side(game, 0, w, k) for w in g0]
    sides1 = [_side(game, 1, w, k) for w in g1]
    chains0 = [_chain(side, k) for side in sides0]
    chains1 = [_chain(side, k) for side in sides1]
    cores = [
        (_hull_value(c0, s0, s1), _hull_value(c1, s1, s0))
        for c0, s0 in zip(chains0, sides0)
        for c1, s1 in zip(chains1, sides1)
    ]
    l0, l1 = (math.lcm(*{c[i][1] for c in cores}) for i in (0, 1))
    keys = [(n0 * (l0 // d0), n1 * (l1 // d1)) for (n0, d0), (n1, d1) in cores]
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
