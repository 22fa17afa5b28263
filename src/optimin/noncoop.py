"""Worst-case evaluation of tacit agreements in noncooperative games.

The pipeline: for an agreement (a strategy profile), each player's value is
the minimum payoff over the agreement itself and all profitable unilateral
deviations by the others; agreements whose value vectors are Pareto optimal
form the solution set.  Pure mode restricts deviations to pure strategies;
mixed mode (two players only) admits mixed deviations through an exact LP.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator

from .errors import ResourceLimitError, UnsupportedArityError
from .games import MixedProfile, NormalFormGame, PureProfile, ValueVector
from .lp import LinearProgram, solve_lp
from .pareto import pareto_filter

ZERO = Fraction(0)

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


def better_responses(game: NormalFormGame, profile: PureProfile, player: int) -> BetterResponseSet:
    game.validate_profile(profile)
    base = game.payoff_unchecked(profile)[player]
    out = []
    for s in range(game.shape[player]):
        if s == profile[player]:
            continue
        alt = profile[:player] + (s,) + profile[player + 1 :]
        if game.payoff_unchecked(alt)[player] > base:
            out.append(s)
    return BetterResponseSet(player, tuple(profile), tuple(out))


def deviation_space(game: NormalFormGame, profile: PureProfile, player: int) -> DeviationSpace:
    game.validate_profile(profile)
    options = []
    for j in range(game.num_players):
        if j == player:
            options.append((profile[j],))
        else:
            opts = set(better_responses(game, profile, j).responses)
            opts.add(profile[j])
            options.append(tuple(sorted(opts)))
    return DeviationSpace(player, tuple(profile), tuple(options))


def value_pure(game: NormalFormGame, profile: PureProfile) -> EvaluatedProfile:
    """Worst-case payoff per player over pure profitable deviations.

    Witnesses are the lexicographically smallest minimizers, so output is
    reproducible no matter how cells are scheduled.
    """
    game.validate_profile(profile)
    values = []
    witnesses = []
    for i in range(game.num_players):
        space = deviation_space(game, profile, i)
        best = None
        wit = None
        for full in space.profiles():
            u = game.payoff_unchecked(full)[i]
            if best is None or u < best:
                best, wit = u, full
        values.append(best)
        witnesses.append(wit)
    return EvaluatedProfile(tuple(profile), tuple(values), tuple(witnesses))


def value_table(game: NormalFormGame, threads: int = 1) -> dict[PureProfile, ValueVector]:
    """The value vector of every cell, keyed in lexicographic profile order."""
    if game.num_players == 2:
        return _value_table_2p(game, threads)
    table: dict[PureProfile, ValueVector] = {}
    profiles = list(game.profiles())
    rows = _map_ordered(lambda p: value_pure(game, p).value, profiles, threads)
    for prof, vec in zip(profiles, rows):
        table[prof] = vec
    return table


def _value_table_2p(game: NormalFormGame, threads: int = 1) -> dict[PureProfile, ValueVector]:
    # Per row (column), the deviation minimum over the opponent's strictly
    # better cells is a suffix minimum after sorting by the opponent's payoff,
    # which avoids the quadratic per-line scan on big matrices.
    nr, nc = game.shape
    cells = game._cells
    u1 = [[cells[a * nc + b][0] for b in range(nc)] for a in range(nr)]
    u2 = [[cells[a * nc + b][1] for b in range(nc)] for a in range(nr)]

    def row_values(a: int) -> list[Fraction]:
        mine, theirs = u1[a], u2[a]
        return _line_minima(mine, theirs)

    def col_values(b: int) -> list[Fraction]:
        mine = [u2[a][b] for a in range(nr)]
        theirs = [u1[a][b] for a in range(nr)]
        return _line_minima(mine, theirs)

    v1 = _map_ordered(row_values, range(nr), threads)
    v2 = _map_ordered(col_values, range(nc), threads)
    table: dict[PureProfile, ValueVector] = {}
    for a in range(nr):
        row = v1[a]
        for b in range(nc):
            table[(a, b)] = (row[b], v2[b][a])
    return table


def _line_minima(mine: list[Fraction], theirs: list[Fraction]) -> list[Fraction]:
    """For each index k: min of mine over {k} and all j with theirs[j] > theirs[k]."""
    order = sorted(range(len(mine)), key=theirs.__getitem__)
    out: list[Fraction] = [None] * len(mine)  # type: ignore[list-item]
    best = None  # min of `mine` over the strictly-greater suffix
    i = len(order) - 1
    while i >= 0:
        j = i
        while j > 0 and theirs[order[j - 1]] == theirs[order[i]]:
            j -= 1
        group = order[j : i + 1]
        for k in group:
            out[k] = mine[k] if best is None or mine[k] < best else best
        gmin = min(mine[k] for k in group)
        if best is None or gmin < best:
            best = gmin
        i = j - 1
    return out


def optimin_pure(game: NormalFormGame, threads: int = 1) -> list[EvaluatedProfile]:
    """Pareto-optimal agreements of the pure value table (never empty)."""
    table = value_table(game, threads)
    kept = pareto_filter(list(table.items()), key=lambda kv: kv[1])
    return [value_pure(game, prof) for prof, _ in kept]


@dataclass(frozen=True)
class PlayerMaximin:
    player: int
    strategies: tuple[int, ...]
    security: Fraction
    guarantees: tuple[Fraction, ...]  # per own strategy


def maximin_profile(game: NormalFormGame) -> list[PlayerMaximin]:
    """Pure maximin strategies: worst case taken over all opponent cells."""
    results = []
    for i in range(game.num_players):
        others = [range(k) for j, k in enumerate(game.shape) if j != i]
        guarantees = []
        for s in range(game.shape[i]):
            worst = None
            for combo in itertools.product(*others):
                full = combo[:i] + (s,) + combo[i:]
                u = game.payoff_unchecked(full)[i]
                if worst is None or u < worst:
                    worst = u
            guarantees.append(worst)
        security = max(guarantees)
        best = tuple(s for s, g in enumerate(guarantees) if g == security)
        results.append(PlayerMaximin(i, best, security, tuple(guarantees)))
    return results


def nash_pure(game: NormalFormGame) -> list[PureProfile]:
    """Cells from which no player has a strictly better unilateral response."""
    n = game.num_players
    best: list[dict] = [dict() for _ in range(n)]
    for prof in game.profiles():
        cell = game.payoff_unchecked(prof)
        for i in range(n):
            line = prof[:i] + prof[i + 1 :]
            cur = best[i].get(line)
            if cur is None or cell[i] > cur:
                best[i][line] = cell[i]
    out = []
    for prof in game.profiles():
        cell = game.payoff_unchecked(prof)
        if all(cell[i] == best[i][prof[:i] + prof[i + 1 :]] for i in range(n)):
            out.append(prof)
    return out


def value_mixed_2p(game: NormalFormGame, profile: MixedProfile) -> EvaluatedProfile:
    """Worst-case payoffs under mixed deviations, two-player games only."""
    if game.num_players != 2:
        raise UnsupportedArityError(
            f"mixed values support exactly 2 players, game has {game.num_players}"
        )
    game.validate_mixed(profile)
    expected = game.expected_payoff(profile)
    values = []
    witnesses = []
    for i in (0, 1):
        j = 1 - i
        # Expected payoffs when j answers with each pure strategy.
        mine = []
        theirs = []
        for t in range(game.shape[j]):
            ui = uj = ZERO
            for s, q in enumerate(profile[i]):
                if q == 0:
                    continue
                cell = game.payoff_unchecked((s, t) if i == 0 else (t, s))
                ui += q * cell[i]
                uj += q * cell[j]
            mine.append(ui)
            theirs.append(uj)
        if max(theirs) <= expected[j]:
            # A mixture's payoff is a convex combination of these pure
            # payoffs, so the opponent has no profitable deviation at all and
            # the agreement's own payoff stands.
            values.append(expected[i])
            witnesses.append(profile)
            continue
        # The deviation set {q : u_j(q) > u_j(profile)} is open, but it is
        # nonempty here, so every point of {q : u_j(q) >= u_j(profile)} is a
        # limit of points inside it (slide toward any strictly better q).
        # The infimum of the continuous objective over the open set therefore
        # equals its minimum over that closure, which is the LP below.  The
        # agreed strategy itself sits in the closure, so the optimum already
        # accounts for the "no deviation" branch of the worst case.
        m = game.shape[j]
        lp = LinearProgram.build(
            objective=mine,
            maximize=False,
            constraints=[
                (theirs, ">=", expected[j]),
                ([1] * m, "=", 1),
            ],
            bounds=[(0, None)] * m,
        )
        sol = solve_lp(lp)
        if not sol.is_optimal:  # simplex over a nonempty compact set
            raise AssertionError(f"deviation LP unexpectedly {sol.status}")
        values.append(sol.objective_value)
        dev = tuple(sol.point)
        witness = (profile[0], dev) if j == 1 else (dev, profile[1])
        witnesses.append(witness)
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


def _simplex_grid(size: int, k: int) -> list[tuple[Fraction, ...]]:
    """All distributions over `size` atoms with weights in multiples of 1/k."""
    out = []

    def rec(slot: int, left: int, acc: tuple[int, ...]) -> None:
        if slot == size - 1:
            out.append(acc + (left,))
            return
        for take in range(left + 1):
            rec(slot + 1, left - take, acc + (take,))

    rec(0, k, ())
    return [tuple(Fraction(w, k) for w in ws) for ws in out]


def grid_profiles_2p(game: NormalFormGame, k: int) -> list[MixedProfile]:
    if game.num_players != 2:
        raise UnsupportedArityError("probability grids support exactly 2 players")
    if k < 1:
        raise ValueError("grid resolution must be >= 1")
    sizes = [math.comb(game.shape[i] + k - 1, game.shape[i] - 1) for i in (0, 1)]
    if sizes[0] * sizes[1] > GRID_PROFILE_LIMIT:
        raise ResourceLimitError(
            f"grid of {sizes[0] * sizes[1]} profiles exceeds the "
            f"{GRID_PROFILE_LIMIT}-profile bound; use pure mode"
        )
    g0 = _simplex_grid(game.shape[0], k)
    g1 = _simplex_grid(game.shape[1], k)
    return [(p, q) for p in g0 for q in g1]


def optimin_grid_2p(game: NormalFormGame, k: int, threads: int = 1) -> GridOptimin:
    """Evaluate the mixed value on the 1/k grid and Pareto-filter it."""
    profiles = grid_profiles_2p(game, k)
    evaluated = _map_ordered(lambda p: value_mixed_2p(game, p), profiles, threads)
    kept = pareto_filter(evaluated, key=lambda e: e.value)
    return GridOptimin(resolution=k, entries=tuple(kept))


def is_maximin_equilibrium(game: NormalFormGame, profile: PureProfile) -> bool:
    """Agreement is optimin, or each strategy maximizes its own-deviation value."""
    game.validate_profile(profile)
    consistent = True
    for i in range(game.num_players):
        own_values = []
        for s in range(game.shape[i]):
            alt = profile[:i] + (s,) + profile[i + 1 :]
            own_values.append(value_pure(game, alt).value[i])
        if own_values[profile[i]] != max(own_values):
            consistent = False
            break
    if consistent:
        return True
    table = value_table(game)
    kept = pareto_filter(list(table.items()), key=lambda kv: kv[1])
    return any(prof == tuple(profile) for prof, _ in kept)


def _map_ordered(fn: Callable, items, threads: int) -> list:
    """Apply fn preserving input order; thread count never changes results."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))
