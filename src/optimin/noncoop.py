"""Worst-case evaluation of tacit agreements in noncooperative games.

The pipeline: for an agreement (a strategy profile), each player's value is
the minimum payoff over the agreement itself and all profitable unilateral
deviations by the others; agreements whose value vectors are Pareto optimal
form the solution set.  Pure mode restricts deviations to pure strategies;
mixed mode (two players only) admits mixed deviations and takes their worst
case in closed form.

Every solver reads the payoffs as ints over the game's one denominator, so
payoffs of different players add and compare as they are.  The
pure solution set filters the int value vectors by cell position and builds
profiles and witnesses only for the cells that survive.  Those vectors reach
the filter as a one-shot stream, so no table of per-cell tuples is held;
with two players the stream is a `zip`, which reuses its result tuple for
every vector the filter has seen before.  With any other number of players
a cell's value never exceeds its payoff, v(c) <= u(c), so the payoffs bound
the values for free: the stream (`_unsettled_values`) visits the cells by
descending payoff sum and evaluates only those that the best value vector
found so far does not already dominate through their payoffs, as sort-first
skyline filters drop points by a strong dominator before the exact scan
(Chomicki et al., "Skyline with presorting", ICDE 2003).

Both value tables and `nash_pure` read each payoff line's order from one
memo on the game (`NormalFormGame._line_order`), so a line is sorted at most
once per game.  The two-player table takes each deviation minimum as a suffix
minimum in the opponent's order of the line (`_line_minima`).  In a symmetric
game, one that every permutation of its players leaves unchanged
(`NormalFormGame._is_symmetric`), all players share the memo, so each line is
sorted once for all of them, whatever the arity.  With two players
(u2(a, b) = u1(b, a)) the table also reads the second player's values off the
first's, v2(a, b) = v1(b, a), so each row is scanned once for both players,
and the solution set (`_pareto_cells`) streams only the n(n+1)/2 cells
a <= b, one per orbit {(a, b), (b, a)}, and the kernel closes their vectors
under the swap; each survivor stands for both cells of its orbit, and
witnesses are still found cell by cell, since the lexicographic tie-break
does not commute with the swap.  The n-player evaluator (`_values_nd`)
sorts each player's lines once, into one (line, k) per player and cell: a
cell's strictly better replies are the run of its line before its tie group,
and each player's deviation cells are built from those runs by shifts.
`value_table` maps the evaluator over every cell, and the solution set
calls it on the cells it does not skip.
`_steps` reads the definition off directly: it takes a cell alone, reads
each player's agreed strategy off it by strides and re-slices every line
through it.  Its users are `better_responses`, `deviation_space`, and, through
`_deviation_cells`, the witnesses of `value_pure` (for the survivors alone
in `optimin_pure`) and `is_maximin_equilibrium`, which walks each player's
line through the agreement cell by cell.  `nash_pure` keeps the top of
each of the first player's lines when it ties the top of every other player's
line through it.  A `generators.sweep` point, which asks for a table and Nash
cells, thus sorts each line once, and its Nash pass costs O(lines).

A mixed value comes from one lower convex chain per grid point (`_chain`):
each opponent reply t is the point (their payoff, my payoff), and the value
is that chain evaluated at the opponent's agreed payoff E, so a profile costs
one `bisect` and one int interpolation.  One evaluator, `_evaluate_grid`,
serves both mixed solvers: it takes each player's weight columns (one column
per strategy, one mixture per row) over that player's own scale, and builds
every entry, its mixtures, values and witnesses, from them.
`optimin_grid_2p` hands it the rows of `games.simplex_columns`' shares of
k units, built once its profiles and the weights its points hold are
counted against their bounds, both at scale k.  `value_mixed_2p` hands it
one profile as one-point columns, each mixture over the scale that
`validate_mixed` reads it at; `zerosum`'s guarantees read one mixture's
`reply_payoffs` the same way.  Every grid point's reply payoffs, and every
profile's agreed payoffs, are sums of products of whole columns.  The
evaluator Pareto-filters exact int keys (values scaled to the lcm of their
denominators over the grid) and builds `Fraction` values and witnesses only
for the survivors.  A witness swaps in the deviation mixture that
`_witness` finds by scanning the deviation vertices for the known value:
the opponent's lowest-index optimal pure reply, else the first optimal
mixture of two replies in (s, t) order.  Its zeros and a pure reply's 1 are
the shared `games.ZERO` and `games.ONE`, so only an edge point builds
`Fraction`s, two of them.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import partial, reduce
from operator import add, ge, getitem, mul
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import GRID_PROFILE_LIMIT, GRID_WEIGHT_LIMIT, VALUE_TABLE_MAX_PROFILES
from .errors import ParameterError, ResourceLimitError, UnsupportedArityError
from .games import ONE, ZERO, MixedProfile, NormalFormGame, PureProfile, ValueVector, simplex_columns
from .pareto import pareto_filter, pareto_positions


class BetterResponseSet(NamedTuple):
    """Strategies strictly improving `player`'s payoff at `profile`."""

    player: int
    profile: PureProfile
    responses: tuple[int, ...]

    def __contains__(self, strategy: int) -> bool:
        return strategy in self.responses

    def __bool__(self) -> bool:
        return bool(self.responses)


class DeviationSpace(NamedTuple):
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


class EvaluatedProfile(NamedTuple):
    """An agreement, its value vector, and one minimizing deviation per player."""

    profile: tuple
    value: ValueVector
    witnesses: tuple


def _steps(game: NormalFormGame, idx: int) -> list[list[int]]:
    """Per player, the cell index steps from cell `idx` to their agreed
    strategy there and to each strictly better reply, ascending."""
    steps = []
    for u, stride, m in zip(game._num, game._strides, game.shape):
        base = u[idx]
        start = idx - idx // stride % m * stride  # the line's first cell
        steps.append([c - idx for c in range(start, start + m * stride, stride) if u[c] > base or c == idx])
    return steps


def better_responses(game: NormalFormGame, profile: PureProfile, player: int) -> BetterResponseSet:
    idx = game.validate_profile(profile)
    game.validate_player(player)
    profile = tuple(profile)
    step = _steps(game, idx)[player]
    stride = game._strides[player]
    return BetterResponseSet(player, profile, tuple(profile[player] + d // stride for d in step if d))


def deviation_space(game: NormalFormGame, profile: PureProfile, player: int) -> DeviationSpace:
    idx = game.validate_profile(profile)
    game.validate_player(player)
    profile = tuple(profile)
    options = tuple(
        (p,) if j == player else tuple(p + d // stride for d in step)
        for j, (p, stride, step) in enumerate(zip(profile, game._strides, _steps(game, idx)))
    )
    return DeviationSpace(player, profile, options)


def _deviation_cells(steps: list[list[int]], idx: int, i: int) -> list[int]:
    """The cells of player i's deviation product at cell `idx`, whose `_steps`
    are `steps`, in lexicographic profile order: i keeps their strategy, and
    each opponent stays or plays a strictly better reply."""
    cells = [idx]
    for j, step in enumerate(steps):
        if j != i and len(step) > 1:  # a lone step is 0: the opponent stays
            cells = [c + d for c in cells for d in step]
    return cells


def _rescale(game: NormalFormGame, values) -> ValueVector:
    return tuple(Fraction(v, game._den) for v in values)


def value_pure(game: NormalFormGame, profile: PureProfile) -> EvaluatedProfile:
    """Worst-case payoff per player over pure profitable deviations.

    Witnesses are the lexicographically smallest minimizers, so output is
    reproducible no matter how cells are scheduled.
    """
    idx = game.validate_profile(profile)
    steps = _steps(game, idx)
    # Each player's first minimizer, so the lexicographically smallest.
    cells = [min(_deviation_cells(steps, idx, i), key=u.__getitem__) for i, u in enumerate(game._num)]
    values = _rescale(game, map(getitem, game._num, cells))
    return EvaluatedProfile(tuple(profile), values, tuple(_profile_at(game, c) for c in cells))


def value_table(game: NormalFormGame) -> dict[PureProfile, ValueVector]:
    """The value vector of every cell, keyed in lexicographic profile order."""
    return {prof: _rescale(game, vec) for prof, vec in zip(game.profiles(), _scaled_values(game))}


def _scaled_values(game: NormalFormGame) -> Iterator[tuple[int, ...]]:
    """`value_table`'s vectors over `_num` in row-major cell order, the
    values times the game's `_den`; no profile is built.  The vectors
    come as a one-shot stream, so no table of them is held.  Both kernels,
    `_values_2p` and `_values_nd`, read each line's order from the game's
    `_line_order` memo; with any number of players but two the stream maps
    `_values_nd`'s evaluator over every cell, and its bound is checked when
    this is called, before any line is sorted."""
    if game.num_players == 2:
        return _values_2p(game)
    return map(_values_nd(game), range(len(game._num[0])))


def _values_nd(game: NormalFormGame) -> Callable[[int], tuple[int, ...]]:
    """The evaluator of a game of any arity but two: it maps a cell to its
    scaled value vector.  Each cell scans, per player, the product of the
    opponents' option sets, so the worst-case count of those profiles over
    all cells is checked first, before any line is sorted.  Then every line
    is sorted once, through `_line_order`, into a per-cell tuple of each
    player's (line, k); the evaluator reads only that tuple and the payoffs.
    """
    num, size = game._num, len(game._num[0])
    profiles = size * sum(size // m for m in game.shape)
    what = f"value table of {'x'.join(map(str, game.shape))} cells ({profiles} deviation profiles)"
    ResourceLimitError.check(profiles, VALUE_TABLE_MAX_PROFILES, what, "profile", "VALUE_TABLE_MAX_PROFILES")
    # Player j's strictly better replies at cell c are the run of c's line, in
    # j's `_line_order`, before c's tie group, which starts at position k.
    # Player i's deviation cells are the first such opponent's run plus c,
    # times each later one's shifts from c, plus 0; no payoff line is re-read
    # and no profile is decoded.  Each cell's runs and shifts serve all its
    # players and are dropped with its vector.
    at = []  # per player, per cell: (the cells of its line in that order, k)
    for j, (u, stride, m) in enumerate(zip(num, game._strides, game.shape)):
        at.append(rows := [None] * size)
        for start in (s for s in range(size) if not s // stride % m):
            line = [start + s * stride for s in game._line_order(j, start)]
            first = {}  # ties are adjacent, so a payoff's first position starts its group
            for pos, c in enumerate(line):
                rows[c] = line, first.setdefault(u[c], pos)
    lines_at = list(zip(*at))

    def value(c: int) -> tuple[int, ...]:
        runs = []  # per player j with k > 0: (j, the run plus c, its shifts from c plus 0)
        for j, (line, k) in enumerate(lines_at[c]):
            if k:
                run = line[:k]
                shifts = [y - c for y in run]
                shifts.append(0)
                run.append(c)
                runs.append((j, run, shifts))
        vec = []
        for i, u in enumerate(num):
            # The last shifts are read with the payoffs, so the full product
            # of cells is never built.
            cells = last = None
            for j, run, shifts in runs:
                if j == i:
                    continue
                if cells is None:
                    cells = run
                elif last is None:
                    last = shifts
                else:
                    cells, last = [x + d for x in cells for d in last], shifts
            if last is not None:
                vec.append(min([u[x + d] for x in cells for d in last]))
            elif cells is not None:
                vec.append(min(map(u.__getitem__, cells)))
            else:
                vec.append(u[c])
        return tuple(vec)

    return value


def _rows_2p(game: NormalFormGame) -> tuple[list[list[int]], list[list[int]]]:
    """(v1, v2): the first player's values row by row and the second's
    column by column, so v1[a][b] and v2[b][a] are the values at (a, b)."""
    # Per row (column), the deviation minimum over the opponent's strictly
    # better cells is a suffix minimum in the opponent's `_line_order` of that
    # line, which avoids the quadratic per-line scan on big matrices.
    nr, nc = game.shape
    u1, u2 = game._num
    v1 = [
        _line_minima(u1[a * nc : (a + 1) * nc], u2[a * nc : (a + 1) * nc], game._line_order(1, a * nc))
        for a in range(nr)
    ]
    if game._is_symmetric():
        # Column b of a symmetric game is row b with the players swapped, so
        # v2(a, b) = v1(b, a): player 1's values serve player 2 as they are.
        return v1, v1
    return v1, [_line_minima(u2[b::nc], u1[b::nc], game._line_order(0, b)) for b in range(nc)]


def _values_2p(game: NormalFormGame) -> Iterator[tuple[int, int]]:
    v1, v2 = _rows_2p(game)
    # v1 is row by row and v2 column by column; both flatten to row-major.
    return zip(itertools.chain.from_iterable(v1), itertools.chain.from_iterable(zip(*v2)))


def _orbit_values_2p(game: NormalFormGame) -> Iterator[tuple[int, int]]:
    """The scaled vectors of the cells (a, b) with a <= b of a symmetric
    two-player game, row by row: (v1(a, b), v1(b, a)), the orbit
    {(a, b), (b, a)} read at its first cell."""
    v1, _ = _rows_2p(game)
    # Row a of v1 holds v1(a, b) and column a holds v1(b, a); both from b = a on.
    return itertools.chain.from_iterable(
        zip(row[a:], column[a:]) for a, (row, column) in enumerate(zip(v1, zip(*v1)))
    )


def _line_minima(mine: Sequence[int], theirs: Sequence[int], order: Iterable[int]) -> list[int]:
    """For each index k: min of mine over {k} and all j with theirs[j] > theirs[k];
    `order` lists the indices by theirs, best first."""
    out = list(mine)
    # Both minima start at inf, the min over no indices, which no int beats.
    lower = math.inf  # min of `mine` over the strictly-greater suffix
    running = math.inf  # min of `mine` over everything visited so far
    prev = None
    for k in order:
        if theirs[k] != prev:
            lower, prev = running, theirs[k]
        m = mine[k]
        if lower < m:
            out[k] = lower
        if m < running:
            running = m
    return out


def optimin_pure(game: NormalFormGame) -> list[EvaluatedProfile]:
    """Pareto-optimal agreements of the pure value table (never empty).

    The filter runs on the scaled values: multiplying every value by the
    game's positive `_den` changes no domination.  Only the surviving
    cells are decoded to profiles and evaluated with witnesses.
    """
    return [value_pure(game, _profile_at(game, idx)) for idx in _pareto_cells(game)]


def _pareto_cells(game: NormalFormGame) -> list[int]:
    """The ascending cells whose scaled value vectors no cell's vector dominates.

    In a symmetric two-player game the vector at (b, a) is the one at (a, b)
    swapped, and domination commutes with the swap, so a cell survives
    exactly when its mirror cell does.  The kernel then reads only the
    n(n+1)/2 cells a <= b, closes their vectors under the swap, and each
    surviving cell stands for both cells of its orbit.  With any other number
    of players the kernel reads only the cells that `_unsettled_values`
    evaluates.
    """
    if game.num_players != 2:
        cells: list[int] = []
        return sorted(map(cells.__getitem__, pareto_positions(_unsettled_values(game, cells))))
    if not game._is_symmetric():
        return pareto_positions(_values_2p(game))
    n = game.shape[0]
    starts = [a * n - a * (a - 1) // 2 for a in range(n)]  # row a's first position in the stream
    cells = set()
    for k in pareto_positions(_orbit_values_2p(game), swap_closed=True):
        a = bisect_right(starts, k) - 1
        b = a + k - starts[a]
        cells.update((a * n + b, b * n + a))
    return sorted(cells)


def _unsettled_values(game: NormalFormGame, cells: list[int]) -> Iterator[tuple[int, ...]]:
    """The scaled value vectors of the cells that the payoffs do not settle,
    as a one-shot stream, each cell appended to `cells` as its vector comes.

    A cell's value never exceeds its payoff, v(c) <= u(c), since the
    agreement itself is among the profiles its values are minima over.  The
    cells are visited in descending order of their payoff sums, and `best`
    is the evaluated vector of largest sum.  A cell is skipped, unevaluated,
    when sum(best) > sum(u(c)) and best >= u(c) in every coordinate: then
    best >= v(c) with a larger sum, so best dominates v(c), and whatever
    v(c) would dominate, best does too.
    """
    value = _values_nd(game)
    num = game._num
    sums = list(map(sum, zip(*num)))
    # No vector yet: a top sum of -inf skips no cell, and the first vector
    # evaluated beats it.
    best, top = (), -math.inf
    for c in sorted(range(len(sums)), key=sums.__getitem__, reverse=True):
        # u(c) is read player by player, so no per-cell payoff tuple is held.
        if top > sums[c] and all(map(ge, best, map(getitem, num, itertools.repeat(c)))):
            continue
        cells.append(c)
        yield (v := value(c))
        if (total := sum(v)) > top:
            best, top = v, total


def _profile_at(game: NormalFormGame, idx: int) -> PureProfile:
    """The profile of cell `idx`, decoded by strides."""
    return tuple(idx // stride % m for stride, m in zip(game._strides, game.shape))


class PlayerMaximin(NamedTuple):
    player: int
    strategies: tuple[int, ...]
    security: Fraction
    guarantees: tuple[Fraction, ...]  # per own strategy


def maximin_profile(game: NormalFormGame) -> list[PlayerMaximin]:
    """Pure maximin strategies: worst case taken over all opponent cells."""
    results = []
    size = len(game._num[0])
    for i, (u, stride) in enumerate(zip(game._num, game._strides)):
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
            PlayerMaximin(i, best, Fraction(security, game._den), tuple(Fraction(g, game._den) for g in guarantees))
        )
    return results


def nash_pure(game: NormalFormGame) -> list[PureProfile]:
    """Cells from which no player has a strictly better unilateral response.

    The candidates are the top group of each of the first player's lines in
    its `_line_order`; a candidate stays while its payoff ties the top of
    each other player's line through it, so only the lines through the
    surviving cells are read.
    """
    u, stride = game._num[0], game._strides[0]
    cells = []
    for start in range(stride):  # the first player's lines start at cells 0 .. stride - 1
        order = game._line_order(0, start)
        top = u[start + order[0] * stride]
        for s in order:
            c = start + s * stride
            if u[c] != top:
                break
            cells.append(c)
    for i in range(1, game.num_players):
        u, stride, m = game._num[i], game._strides[i], game.shape[i]
        kept = []
        for c in cells:
            start = c - c // stride % m * stride
            if u[c] == u[start + game._line_order(i, start)[0] * stride]:
                kept.append(c)
        cells = kept
    return [_profile_at(game, c) for c in sorted(cells)]


def value_mixed_2p(game: NormalFormGame, profile: MixedProfile) -> EvaluatedProfile:
    """Worst-case payoffs under mixed deviations, two-player games only.

    The profile is a grid of one profile: each mixture, read by
    `validate_mixed` as int weights over its own scale, is one-point
    columns, and `_evaluate_grid` evaluates it as it evaluates the grid of
    `optimin_grid_2p`; a lone profile survives the filter.  Each witness
    swaps in a minimizing deviation for the opponent, found by `_witness`:
    the lowest-index optimal pure reply, else the first optimal mixture of a
    losing s and a gaining t in lexicographic (s, t) order.
    """
    if game.num_players != 2:
        raise UnsupportedArityError(
            f"mixed values support exactly 2 players, game has {game.num_players}"
        )
    grids, scales = zip(*[([[w] for w in weights], scale) for weights, scale in game.validate_mixed(profile)])
    (entry,) = _evaluate_grid(game, grids, scales)
    return entry


def reply_payoffs(
    game: NormalFormGame, i: int, columns: Sequence[Sequence[int]], *payers: int
) -> list[list[list[int]]]:
    """Per player in `payers` and per pure reply t of the opponent of player
    i in a two-player game, that player's payoffs when i plays each of many
    mixtures: `columns` holds one column of int weights per strategy of i,
    one mixture per row, and each result is a column with one entry per
    mixture, ints over the weights' scale times the game's ``_den``.  One
    mixture is one-point columns, ``[[w] for w in weights]``."""
    stride_i, stride_j = game._strides[i], game._strides[1 - i]
    end = len(columns) * stride_i
    replies = range(0, game.shape[1 - i] * stride_j, stride_j)
    return [
        [_dot_columns(map(itertools.repeat, u[t : t + end : stride_i]), columns) for t in replies]
        for u in map(game._num.__getitem__, payers)
    ]


def _dot_columns(lefts: Iterable[Iterable[int]], rights: Iterable[Iterable[int]]) -> list[int]:
    """The column sum_s lefts[s] * rights[s], entry by entry, over at least
    one pair; of each pair, one may be endless."""
    products = map(map, itertools.repeat(mul), lefts, rights)  # one lazy column per pair
    return list(reduce(partial(map, add), products))  # the sum starts at the first product


def _agreed_payoffs(replies: Sequence[Sequence[int]], columns: Sequence[Sequence[int]]) -> list[int]:
    """Per profile (a, b), row-major, the payoff q·mine that a player's reply
    payoffs at a, mine[t] = replies[t][a], give against the opponent's grid
    point q[t] = columns[t][b]: the sum over t of the two columns' products,
    with each reply column spread over the b and each weight column tiled
    over the a."""
    width, height = len(columns[0]), len(replies[0])
    spread = (
        itertools.chain.from_iterable(map(itertools.repeat, reply, itertools.repeat(width))) for reply in replies
    )
    return _dot_columns(spread, [column * height for column in columns])


def _chain(mine: Sequence[int], theirs: Sequence[int], qscale: int) -> tuple[list[int], list[int]]:
    """(xs, ys): the lower convex chain of the points (theirs[t] * qscale, mine[t])
    from the lowest point (the rightmost among ties) to the rightmost point
    (the lowest among ties), with xs strictly increasing.

    Against an agreed opponent mixture of scale `qscale`, the minimum of
    mine·q' over the mixtures q' with theirs·q' * qscale >= E is this chain
    evaluated at E: the lower boundary of the points' hull, which is convex,
    cut to the part where it rises (Andrew's monotone chain, collinear points
    dropped).
    """
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


def _hull_at(chain, expected: int, own: int, qscale: int) -> tuple[int, int]:
    """(num, den): the value of a player at a profile is num / den in the
    units of the y axis of their `chain`, the `_chain` of their mixture at
    the opponent's scale `qscale`.  `expected` is the opponent's agreed
    payoff, E = agreed·theirs, in the units of the chain's x axis, and `own`
    the player's, agreed·mine, over `qscale` times the units of its y axis.

    When no pure reply beats E, no mixture does either, since a mixture's
    payoff is a convex combination of the pure ones, and the agreement's own
    payoff stands.  Otherwise the deviation set {q : gain·q > 0} is open but
    nonempty, so every point of {q : gain·q >= 0} is a limit of points inside
    it (slide toward any strictly better q), and the infimum of mine·q is its
    minimum over that closure, which holds the agreed mixture too: `chain`
    evaluated at E.  So the value never exceeds `own`.
    """
    xs, ys = chain
    if expected >= xs[-1]:
        return own, qscale
    b = bisect_left(xs, expected)
    if not b:
        return ys[0], 1
    xa, xb = xs[b - 1], xs[b]
    return ys[b - 1] * (xb - expected) + ys[b] * (expected - xa), xb - xa


def _witness(mine: Sequence[int], theirs: Sequence[int], expected: int, qscale: int, num: int, den: int):
    """The deviation mixture that attains the value num / den (in the units
    of `mine`), as a tuple of `Fraction`s: None when the opponent has no
    profitable deviation, else the lowest-index pure reply t with gain >= 0
    worth exactly that, else the point with gain·q = 0 of the first edge
    (s, t) in lexicographic order, gain[s] < 0 < gain[t], worth exactly that.
    `expected` is the opponent's agreed payoff over `qscale` times the units
    of `theirs`, as `_hull_at` reads it.  The value's minimum sits at one of
    these vertices, since {q : gain·q >= 0} is the simplex cut by one
    halfspace.  Zeros and a pure reply's 1 are the shared `ZERO` and `ONE`.
    """
    # The opponent's gain from answering t instead of its agreed mixture, times qscale.
    gain = [u * qscale - expected for u in theirs]
    if max(gain) <= 0:
        return None
    dev = [ZERO] * len(mine)
    for t, (g, mt) in enumerate(zip(gain, mine)):
        if g >= 0 and mt * den == num:
            dev[t] = ONE
            return tuple(dev)
    for s, (loss, ms) in enumerate(zip(gain, mine)):
        if loss < 0:
            for t, (g, mt) in enumerate(zip(gain, mine)):
                if g > 0 and (ms * g - mt * loss) * den == num * (g - loss):
                    # The edge point weighs s by gain[t] / width and t by -gain[s] / width.
                    dev[s], dev[t] = Fraction(g, g - loss), Fraction(-loss, g - loss)
                    return tuple(dev)
    raise AssertionError(f"hull bug: no deviation vertex is worth {num}/{den}")


class GridOptimin(NamedTuple):
    """Pareto survivors of the mixed value over a finite probability grid.

    The label is a reminder that the grid may miss the exact mixed solution;
    results are approximate by construction.
    """

    resolution: int
    entries: tuple[EvaluatedProfile, ...]
    kind: str = "grid-approximate"


def grid_profiles_2p(game: NormalFormGame, k: int) -> list[MixedProfile]:
    g0, g1 = ([tuple(Fraction(w, k) for w in ws) for ws in zip(*g)] for g in _grids_2p(game, k))
    return [(p, q) for p in g0 for q in g1]


def _grids_2p(game: NormalFormGame, k: int) -> tuple[list, list]:
    """Each player's int weights over k on the 1/k grid, as `simplex_columns`'
    columns, one per strategy, with one grid point per row, once the grid's
    profiles, and then the weights its points hold, are counted."""
    if game.num_players != 2:
        raise UnsupportedArityError("probability grids support exactly 2 players")
    if type(k) is not int or k < 1:  # a bool is no resolution
        raise ParameterError(f"grid resolution must be >= 1, got {k} (--mixed-grid)")
    sizes = [math.comb(m + k - 1, m - 1) for m in game.shape]
    hint = "lower --mixed-grid or use --pure"
    profiles = sizes[0] * sizes[1]
    what = f"grid of {profiles} profiles"
    ResourceLimitError.check(profiles, GRID_PROFILE_LIMIT, what, "profile", "GRID_PROFILE_LIMIT", hint)
    weights = sum(map(mul, sizes, game.shape))
    what = f"grid of {weights} weights"
    ResourceLimitError.check(weights, GRID_WEIGHT_LIMIT, what, "weight", "GRID_WEIGHT_LIMIT", hint)
    return tuple(simplex_columns(m, k) for m in game.shape)


def optimin_grid_2p(game: NormalFormGame, k: int) -> GridOptimin:
    """The `value_mixed_2p` entries of the Pareto-optimal 1/k grid profiles,
    in grid order: `_evaluate_grid` of the grid's weight columns, both
    players at scale k."""
    return GridOptimin(resolution=k, entries=_evaluate_grid(game, _grids_2p(game, k), (k, k)))


def _evaluate_grid(game: NormalFormGame, grids, scales) -> tuple[EvaluatedProfile, ...]:
    """The entries of the Pareto-optimal profiles of a two-player grid, in
    grid order (row-major, the first player's points outermost).  `grids`
    holds each player's int weight columns, one per strategy with one grid
    point per row, over that player's scale in `scales` = (s0, s1).

    Each point's `_chain`, at the opponent's scale, is built once and serves
    every profile it is part of.  The grid points' reply payoffs are
    `reply_payoffs` of the weight columns, and the profiles' two agreed
    payoffs, ints over s0 · s1 · `_den`, are one `_agreed_payoffs` column
    each over every profile.  `_hull_at` reads player i's value from i's
    chain and those payoffs as num / den over s_i · `_den`, which is
    num · s_j / den in the payoffs' units, j being the opponent.

    The payoffs bound the values: v <= u, since the agreed mixture lies in
    the closure of the deviations that `_hull_at` minimizes over.  So the
    profiles are visited by descending payoff sum, and `best` is the
    evaluated vector of largest sum; a profile is skipped, unevaluated, when
    sum(best) > sum(u) and best >= u in both coordinates, as
    `_unsettled_values` skips a cell: then best dominates its value.  The
    first profile visited is always evaluated, so a grid of one profile
    keeps it.  Both payoffs are over s0 · s1 · `_den`, so their sum is the
    plain sum, which on the benchmark's 80 mixed3 games at k = 4 leaves
    5 650 of 18 000 profiles to evaluate.  The evaluated
    profiles, in grid order, go through the filter with the int keys
    num * (L_i // den), L_i being the lcm of i's dens over them.  Only the
    survivors get `Fraction`s: each `EvaluatedProfile` is built here, from its
    (num, den) pair per player and one `_witness` mixture per player, player
    0's witness being (p, dev0) and player 1's (dev1, q), or (p, q) where
    the opponent has no profitable deviation.
    """
    s0, s1 = scales
    # Per player, per reply of the opponent, the column of both players'
    # payoffs over the player's grid points.
    replies = [reply_payoffs(game, i, columns, i, 1 - i) for i, columns in enumerate(grids)]
    # Per player, per grid point: (mine, theirs), its reply payoffs.
    points0, points1 = (list(zip(zip(*mine), zip(*theirs))) for mine, theirs in replies)
    chains0 = [_chain(mine, theirs, s1) for mine, theirs in points0]
    chains1 = [_chain(mine, theirs, s0) for mine, theirs in points1]
    # Per profile, row-major: each player's agreed payoff, and their sum.
    own0, own1 = (_agreed_payoffs(payoffs, grids[1]) for payoffs in replies[0])
    width = len(points1)
    sums = list(map(add, own0, own1))
    cores = {}  # per evaluated profile, each player's (num, den)
    # best is (best0 / den0, best1 / den1) in the payoffs' units, and its
    # sum is top / scale; top = -1 over scale = 0 is no sum, below every sum.
    best0 = den0 = best1 = den1 = scale = 0
    top = -1
    for c in sorted(range(len(sums)), key=sums.__getitem__, reverse=True):
        u0, u1 = own0[c], own1[c]
        if top > sums[c] * scale and best0 >= u0 * den0 and best1 >= u1 * den1:
            continue
        a, b = divmod(c, width)
        cores[c] = core = _hull_at(chains0[a], u1, u0, s1), _hull_at(chains1[b], u0, u1, s0)
        (m0, d0), (m1, d1) = core
        m0 *= s1
        m1 *= s0
        if (total := m0 * d1 + m1 * d0) * scale > top * d0 * d1:
            best0, den0, best1, den1, top, scale = m0, d0, m1, d1, total, d0 * d1
    evaluated = sorted(cores)
    l0, l1 = (math.lcm(*{cores[c][i][1] for c in evaluated}) for i in (0, 1))
    keys = {c: (n0 * (l0 // d0), n1 * (l1 // d1)) for c, ((n0, d0), (n1, d1)) in cores.items()}
    entries = []
    for c in pareto_filter(evaluated, key=keys.__getitem__):
        a, b = divmod(c, width)
        p, q = tuple(Fraction(w[a], s0) for w in grids[0]), tuple(Fraction(w[b], s1) for w in grids[1])
        (n0, d0), (n1, d1) = cores[c]
        values = Fraction(n0, d0 * s0 * game._den), Fraction(n1, d1 * s1 * game._den)
        dev0, dev1 = _witness(*points0[a], own1[c], s1, n0, d0), _witness(*points1[b], own0[c], s0, n1, d1)
        entries.append(EvaluatedProfile((p, q), values, ((p, dev0 or q), (dev1 or p, q))))
    return tuple(entries)


def is_maximin_equilibrium(game: NormalFormGame, profile: PureProfile) -> bool:
    """Agreement is optimin, or each strategy maximizes its own-deviation value."""
    idx = game.validate_profile(profile)
    for i, (u, stride, m) in enumerate(zip(game._num, game._strides, game.shape)):
        p = idx // stride % m
        # Player i's line through the agreement: one cell per own strategy.
        line = range(idx - p * stride, idx + (m - p) * stride, stride)
        own = [min(map(u.__getitem__, _deviation_cells(_steps(game, c), c, i))) for c in line]
        if own[p] != max(own):
            break
    else:
        return True
    return idx in _pareto_cells(game)
