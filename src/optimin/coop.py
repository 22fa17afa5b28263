"""Transferable-utility cooperative games.

Coalitions are bitmasks over players 0..n-1.  The worst-case value of an
allocation charges the complement of any profitably deviating coalition an
equal share of the shortfall it is left with; allocations whose value vectors
are Pareto optimal form the solution set, searched on an integer lattice of
imputations.  Core membership, the Shapley value, and the nucleolus are exact.

Worths are read straight to ints over one common denominator
(`rational.over_common_denominator`, with no `Fraction` for an int or
``"a/b"`` literal), and the worst-case values, deviation tests, lattice
search and Shapley value run on ints.  An allocation is read once, by
`_scaled`, which checks its length and brings it to the worths' denominator;
the lattice search reads its step, floors and worths to ints and builds the
lattice as one column of units per player.  One kernel, `_worst_cases`,
evaluates a whole lattice, or one allocation, column by column: it walks
the coalitions without the last player depth first, one column of
coalition sums each, lets each stand for its complement too, and builds no
per-point table.  A `Fraction` is built only for an allocation or value
that is returned; the `coop optimin` report is formatted from
`optimin_coop_ints`' ints and builds none.  A player count is checked
before any 2^n is built.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from itertools import repeat
from operator import add, mul, sub
from typing import Callable, NamedTuple, Sequence

from .errors import CORE_MAX_PLAYERS, IMPUTATION_GRID_MAX_POINTS, NUCLEOLUS_MAX_PLAYERS, SHAPLEY_MAX_PLAYERS
from .errors import DomainError, ResourceLimitError
from .games import ValueVector, simplex_columns
from .lp import LinearProgram, fraction_free_pivot, solve_lp
from .pareto import pareto_positions
from .rational import Record, json_ratio, literal_ratio, over_common_denominator

ZERO = Fraction(0)

Allocation = tuple[Fraction, ...]


def check_players(n: int, worths: int) -> None:
    """Refuse, before 2^n is built, a player count whose 2^n - 1 coalitions
    outnumber what any mapping holds (``sys.maxsize`` entries); `worths` is
    the number of worths given."""
    if n > sys.maxsize.bit_length():
        raise ValueError(
            f"a {n}-player game needs 2^{n} - 1 worths, more than any mapping holds; got {worths}"
        )


class TUGame(Record):
    """Characteristic function on all nonempty coalitions of n players.

    `worth[mask]` is the coalition's transferable worth; the empty coalition
    is implicitly 0.  Construction verifies completeness; `cohesive` flags
    (but nothing rejects) games whose grand coalition fails to cover some
    partition.

    The worths are stored as the ints ``_num[mask]`` over the common
    denominator ``_den``, the lcm of their reduced denominators, so equal
    games have equal representations; ``_num[0]`` is the empty coalition's 0.
    These ints are the game's only worth state, and with ``n`` its `_key`;
    as ``_num`` is a list, a game is unhashable.  Readers scale an allocation
    to the same denominator; `coop_value` further multiplies every value by
    ``L = lcm(1..n)``, so that a shortfall shared equally among the |R|
    members of any remaining coalition R is the int multiple ``L/|R|``.
    """

    __slots__ = ("n", "_num", "_den")

    def __init__(self, n: int, worth: dict[int, object]) -> None:
        if isinstance(n, bool) or not isinstance(n, int):
            raise ValueError(f"a TU game's player count must be an int, got {n!r}")
        if n < 1:
            raise ValueError("a TU game needs at least one player")
        check_players(n, len(worth))
        self.n = n
        full = (1 << n) - 1
        for mask in worth:
            if isinstance(mask, bool) or not isinstance(mask, int) or not 1 <= mask <= full:
                raise ValueError(f"coalition mask {mask!r} out of range")
        # The masks are distinct and in range, so the count decides
        # completeness, and some mask up to len(worth) + 1 is missing.
        if len(worth) < full:
            first = next(m for m in range(1, len(worth) + 2) if m not in worth)
            raise ValueError(
                f"worth missing for {full - len(worth)} coalitions, e.g. mask {first}"
            )
        self._num, self._den = over_common_denominator([0] + [worth[m] for m in range(1, full + 1)])

    @property
    def cohesive(self) -> bool:
        """Whether no partition of the grand coalition beats its worth; an
        O(3^n) check run on each read, never at construction."""
        return self._check_cohesive()

    def _check_cohesive(self) -> bool:
        # Best partition value at each coalition via subset DP; cohesive iff
        # no partition of the grand coalition beats its worth.
        full = (1 << self.n) - 1
        best = list(self._num)
        for mask in range(1, full + 1):
            sub = (mask - 1) & mask
            while sub:
                if best[sub] + best[mask ^ sub] > best[mask]:
                    best[mask] = best[sub] + best[mask ^ sub]
                sub = (sub - 1) & mask
        return best[full] == self._num[full]

    def worth(self, mask: int) -> Fraction:
        if type(mask) is not int or not 0 <= mask < (1 << self.n):  # a bool is no mask
            raise ValueError(f"coalition mask {mask!r} out of range")
        return Fraction(self._num[mask], self._den)

    @property
    def grand_coalition(self) -> int:
        return (1 << self.n) - 1

    def singletons(self) -> list[Fraction]:
        return [Fraction(self._num[1 << i], self._den) for i in range(self.n)]

    def proper_coalitions(self) -> list[int]:
        return list(range(1, self.grand_coalition))

    def _key(self) -> tuple:
        return self.n, self._den, self._num

    def __repr__(self) -> str:
        return f"TUGame(n={self.n}, u(N)={self.worth(self.grand_coalition)})"


def coalition_sum(x: Sequence[Fraction], mask: int) -> Fraction:
    return sum((v for i, v in enumerate(x) if mask >> i & 1), ZERO)


def _scaled(game: TUGame, x: Sequence) -> tuple[list[int], Sequence[int], int]:
    """The allocation, one entry per player, and the worths as ints over one
    common denominator d; the one reader of an allocation."""
    alloc, d = over_common_denominator(x)
    if len(alloc) != game.n:
        raise DomainError(f"allocation has {len(alloc)} entries for {game.n} players")
    common = math.lcm(d, game._den)
    k = common // game._den
    worth = game._num if k == 1 else [w * k for w in game._num]
    return [v * (common // d) for v in alloc], worth, common


def _coalition_sums(alloc: Sequence[int]) -> list[int]:
    """Every coalition's total, indexed by mask, in O(2^n) additions.

    Each player doubles the table: the masks holding player i are the masks
    below 1 << i with i added.
    """
    sums = [0]
    for xi in alloc:
        sums += [s + xi for s in sums]
    return sums


# `_worst_cases` folds a player's pending loss columns into one once this
# many wait, so the columns alive at once stay O(n), not O(2^n).
_PENDING = 16


def _worst_cases(worth: Sequence[int], columns: Sequence[list[int]], total: int, lcm: int) -> list[list[int]]:
    """`coop_value` in ints for many allocations at once: per player, the
    column of their values times `lcm` = lcm(1..n).

    `columns` holds one column per player, and every allocation, a row
    across them, is ints over the worths' denominator summing to `total`.
    A coalition S with x(S) < u(S) leaves its complement R the shortfall
    x(R) - u(R) = total - x(S) - u(R), and each member of R loses an equal
    share, which times `lcm` is the int shortfall · (lcm / |R|).  A
    player's value is their allocation less the largest such loss over the
    coalitions without them, or none if no loss is positive.  The loss is
    positive exactly when x(S) < min(u(S), total - u(R)) and depends on
    x(S) alone, so S is skipped when no allocation is below that cap, and
    otherwise each x(S) reads its loss from a dict over the distinct ones.

    Only the coalitions without the last player are walked, depth first,
    each one's sum column its parent's plus one player's column, so at most
    n sum columns are alive; each such S also stands for its complement,
    whose sums are total - x(S).  A player's loss columns are folded with
    one `map(max, ...)` once `_PENDING` wait, and the least entry of the
    fold is a loss they bear at every allocation: a later column whose
    largest entry is no more is not kept for them.
    """
    # Every player starts with a column of zero losses.
    n, full, zeros = len(columns), (1 << len(columns)) - 1, [0] * len(columns[0])
    pending, floor = [[zeros] for _ in range(n)], [0] * n

    def walk(mask: int, sums: Sequence[int], start: int) -> None:
        for k in range(start, n - 1):
            grown = mask | 1 << k
            column = list(map(add, sums, columns[k])) if mask else columns[k]
            distinct = set(column)
            ends = min(distinct), max(distinct)
            # x(coalition) = off + sign · x(grown), least at one end.
            for coalition, off, sign in ((grown, 0, 1), (full ^ grown, total, -1)):
                rest = full ^ coalition
                base, share = total - worth[rest], lcm // rest.bit_count()
                cap, low = min(worth[coalition], base), min(off + sign * s for s in ends)
                top = (base - low) * share if low < cap else 0
                members = [i for i in range(n) if rest >> i & 1 and top > floor[i]]
                if members:
                    table = {s: (base - off - sign * s) * share if off + sign * s < cap else 0 for s in distinct}
                    loss = list(map(table.__getitem__, column))
                    for i in members:
                        losses = pending[i]
                        losses.append(loss)
                        if len(losses) == _PENDING:
                            losses[:] = [list(map(max, *losses))]
                            floor[i] = min(losses[0])
            walk(grown, column, k + 1)

    walk(0, (), 0)
    # `walk` refers to itself; without this its closure would keep `pending`,
    # `columns` and `worth` alive until the next cyclic garbage collection.
    del walk
    folded = (map(max, *losses) if losses[1:] else losses[0] for losses in pending)
    return [list(map(sub, map(mul, column, repeat(lcm)), loss)) for column, loss in zip(columns, folded)]


def _scaled_feasible(game: TUGame, x: Sequence) -> tuple[list[int], Sequence[int], int]:
    """`_scaled` of a feasible allocation; else DomainError."""
    alloc, worth, d = _scaled(game, x)
    if sum(alloc) > worth[game.grand_coalition]:
        shown = ", ".join(str(json_ratio(v, d)) for v in alloc)
        raise DomainError(f"allocation ({shown}) exceeds the grand coalition worth")
    return alloc, worth, d


def is_feasible(game: TUGame, x: Sequence[Fraction]) -> bool:
    alloc, worth, _ = _scaled(game, x)
    return sum(alloc) <= worth[game.grand_coalition]


def is_imputation(game: TUGame, x: Sequence[Fraction]) -> bool:
    alloc, worth, _ = _scaled(game, x)
    return sum(alloc) == worth[game.grand_coalition] and all(alloc[i] >= worth[1 << i] for i in range(game.n))


class DeviationSet(NamedTuple):
    """Coalitions excluding `player` that profit by breaking away from `allocation`."""

    player: int
    allocation: Allocation
    coalitions: tuple[int, ...]

    def __bool__(self) -> bool:
        return bool(self.coalitions)


def dominating_coalitions(game: TUGame, x: Sequence, excluding: int) -> DeviationSet:
    """All S not containing `excluding` with x(S) < u(S).

    A coalition can hand every member strictly more than x exactly when its
    worth exceeds what x gives it in total, so the strict-sum test is the
    whole domination condition.
    """
    alloc, worth, d = _scaled_feasible(game, x)
    if type(excluding) is not int or not 0 <= excluding < game.n:  # a bool is no player
        raise DomainError(f"no player {excluding} in a {game.n}-player game")
    sums, bit = _coalition_sums(alloc), 1 << excluding
    found = tuple(m for m in range(1, game.grand_coalition) if not m & bit and sums[m] < worth[m])
    return DeviationSet(excluding, tuple(Fraction(v, d) for v in alloc), found)


def coop_value(game: TUGame, x: Sequence) -> ValueVector:
    """Worst-case payoffs: deviators leave, the rest split the shortfall equally.

    Under this model the paper's result (ii), that optimin is the core when
    the core is nonempty, holds on convex games up to the lattice: every
    survivor of `optimin_coop` outside the core has a value that some core
    point off the lattice dominates.  It fails for two 4-player games with a
    nonempty core (tests/test_coop.py, `MARKETS_WITH_NON_CORE_OPTIMIN`): the
    values of their non-core points (1, 0, 1, 0) and (1, 2, 3, 0) survive,
    and no core point's value, nor any value on the step-1/4 lattice,
    dominates them.
    """
    alloc, worth, d = _scaled_feasible(game, x)
    lcm = math.lcm(*range(1, game.n + 1))
    values = _worst_cases(worth, [[v] for v in alloc], sum(alloc), lcm)
    return tuple(Fraction(v, lcm * d) for (v,) in values)


def imputation_grid(game: TUGame, step, floors: Sequence | None = None) -> list[Allocation]:
    """Efficient allocations on the `step` lattice at or above the floors.

    Default floors are the individual worths (the imputation set); passing
    lower floors widens the search domain below individual rationality.
    """
    p, q = literal_ratio(step)
    return [tuple(Fraction(u * p, q) for u in point) for point in zip(*_lattice(game, p, q, floors))]


def _lattice(game: TUGame, p: int, q: int, floors: Sequence | None) -> list[Sequence[int]]:
    """`imputation_grid`'s points as int multiples of the step p/q (q > 0),
    one column per player, in the same order; the floors are read to ints
    over one denominator."""
    if p <= 0:
        raise DomainError(f"grid step must be positive, got {json_ratio(p, q)}")
    num, den, n = game._num, game._den, game.n
    if floors is None:
        lows, low_den = [num[1 << i] for i in range(n)], den
    else:
        lows, low_den = over_common_denominator(floors)
        if len(lows) != n:
            raise DomainError(f"need one floor per player, got {len(lows)}")
    if sum(lows) * den > num[game.grand_coalition] * low_den:
        if floors is None:
            raise DomainError("imputation set is empty: individual worths exceed the grand coalition")
        total, grand = json_ratio(sum(lows), low_den), json_ratio(num[game.grand_coalition], den)
        raise DomainError(f"floors sum to {total}, past the grand coalition's worth {grand} (--floor)")
    # u(N) / step = u(N)·q / (den·p) units, which must be a whole number.
    total_units, rest = divmod(num[game.grand_coalition] * q, den * p)
    # Minimal multiples of the step at or above each floor: ceil(low·q / (low_den·p)).
    min_units = [-(-low * q // (low_den * p)) for low in lows]
    # The lattice holds every way to share the free units among n players.
    free = total_units - sum(min_units)
    if rest or free < 0:
        return [()] * n
    count = math.comb(free + n - 1, n - 1)
    # A count past 10^100, whose text could pass the interpreter's int-to-text
    # limit (640 digits at the least), is named by its power of ten.
    shown = count if count < 10**100 else f"about 10^{math.log10(count):.0f}"
    what, hint = f"imputation grid of {shown} points", "raise --step"
    ResourceLimitError.check(count, IMPUTATION_GRID_MAX_POINTS, what, "point", "IMPUTATION_GRID_MAX_POINTS", hint)
    shares = simplex_columns(n, free)
    return [list(map(add, share, repeat(low, count))) for share, low in zip(shares, min_units)]


class CoopOptimin(NamedTuple):
    """Grid search result; `kind` flags that the lattice is an approximation."""

    step: Fraction
    entries: tuple[tuple[Allocation, ValueVector], ...]
    kind: str = "grid-approximate"

    @property
    def allocations(self) -> tuple[Allocation, ...]:
        return tuple(x for x, _ in self.entries)


def optimin_coop(game: TUGame, step, floors: Sequence | None = None) -> CoopOptimin:
    """Pareto-filter the worst-case values over the imputation lattice:
    `optimin_coop_ints` with each kept point and value as a `Fraction`."""
    p, q = literal_ratio(step)
    kept, scale = optimin_coop_ints(game, p, q, floors)
    return CoopOptimin(
        Fraction(p, q),
        tuple(
            (tuple(Fraction(k * p, q) for k in units), tuple(Fraction(v, scale) for v in values))
            for units, values in kept
        ),
    )


def optimin_coop_ints(
    game: TUGame, p: int, q: int, floors: Sequence | None = None
) -> tuple[list[tuple[tuple[int, ...], tuple[int, ...]]], int]:
    """`optimin_coop` in ints, for the step p/q (q > 0): the kept lattice
    points in lattice order, each as its units u (the allocation u·p/q) and
    its values as ints over the returned scale.

    A point's units u are the allocation u·p·den over the denominator q·den,
    and the worths are num·q over it.  Every value vector then shares the one
    positive scale lcm(1..n)·q·den, so the filter compares ints and keeps the
    same entries it would keep as `Fraction`s.  The value columns stream
    into `pareto_positions` a point at a time, and a (units, values) entry
    is built for the survivors only.
    """
    columns = _lattice(game, p, q, floors)
    lcm = math.lcm(*range(1, game.n + 1))
    scale = lcm * q * game._den
    if not columns[0]:
        return [], scale
    worth = [w * q for w in game._num]
    allocs = [list(map(mul, column, repeat(p * game._den))) for column in columns]
    values = _worst_cases(worth, allocs, worth[game.grand_coalition], lcm)
    kept = pareto_positions(zip(*values))
    units, vectors = ([list(map(c.__getitem__, kept)) for c in cols] for cols in (columns, values))
    return list(zip(zip(*units), zip(*vectors))), scale


def matches_characterization(
    game: TUGame, step, predicate: Callable[[Allocation], bool]
) -> bool:
    """Exact check that the grid solution set is the lattice cut of a closed form.

    True iff every grid survivor satisfies `predicate` and every lattice
    imputation satisfying it survives (membership is exact, not approximate).
    """
    result = optimin_coop(game, step)
    survivors = set(result.allocations)
    expected = {x for x in imputation_grid(game, step) if predicate(x)}
    return survivors == expected


class CoreResult(NamedTuple):
    empty: bool
    witness: Allocation | None

    def __bool__(self) -> bool:
        return not self.empty


def core(game: TUGame) -> CoreResult:
    """LP feasibility of efficiency plus every coalition constraint."""
    n = game.n
    ResourceLimitError.check(n, CORE_MAX_PLAYERS, f"core of {n} players", "player", "CORE_MAX_PLAYERS")
    # Every row times the worths' denominator: den·x(S) >= u(S)·den, in the game's ints.
    constraints = [([game._den] * n, "=", game._num[game.grand_coalition])]
    for mask in game.proper_coalitions():
        coeffs = [game._den if mask >> i & 1 else 0 for i in range(n)]
        constraints.append((coeffs, ">=", game._num[mask]))
    sol = solve_lp(LinearProgram([0] * n, False, constraints))
    if sol.status == "infeasible":
        return CoreResult(True, None)
    if not sol.is_optimal:
        raise AssertionError(f"core LP unexpectedly {sol.status}")
    return CoreResult(False, tuple(sol.point))


def shapley(game: TUGame) -> Allocation:
    """Average marginal contribution over all player orderings, exact.

    Computed with the usual coalition weights |S|!(n-|S|-1)!/n!, which is the
    same average without walking all n! orders.
    """
    n = game.n
    ResourceLimitError.check(n, SHAPLEY_MAX_PLAYERS, f"shapley of {n} players", "player", "SHAPLEY_MAX_PLAYERS")
    fact = [math.factorial(k) for k in range(n + 1)]
    worth = game._num
    out = [0] * n  # each value as an int over n! · _den
    for mask in range(game.grand_coalition):
        weight = fact[mask.bit_count()] * fact[n - 1 - mask.bit_count()]
        for i in range(n):
            if not mask >> i & 1:
                out[i] += weight * (worth[mask | 1 << i] - worth[mask])
    return tuple(Fraction(v, fact[n] * game._den) for v in out)


def nucleolus(game: TUGame) -> Allocation:
    """Lexicographically minimize sorted coalition excesses over imputations.

    The sequential-LP scheme, one LP per round.  A round's primal minimizes
    the maximum excess eps over the coalitions not yet pinned, subject to
    efficiency, the pinned coalitions' excesses and individual rationality;
    each round solves its dual instead, which has one row per player and
    one more, so a pivot updates n + 1 rows rather than 2^n.  Player i's
    row fixes the multiplier μ_i >= 0 of their individual rationality,
    μ_i = -(y_N + sum_{pinned S ∋ i} y_S + sum_{free S ∋ i} λ_S), so μ_i is
    substituted out: the row becomes a ``<=`` row whose slack is μ_i, and
    each column's objective coefficient loses u({i}) for every player i in
    its coalition:

        max  (u(N) - u_1(N))·y_N + sum_pinned (u(S) - u_1(S) - level_S)·y_S
             + sum_free (u(S) - u_1(S))·λ_S
        s.t. y_N + sum_{pinned S ∋ i} y_S + sum_{free S ∋ i} λ_S <= 0
                 for every player i,
             sum_free λ_S = 1,
             y free, λ >= 0,

    where u_1(S) = sum_{i ∈ S} u({i}).  So the simplex starts the n player
    rows on their slacks, and only the row sum λ = 1 needs phase 1.

    By strong duality its value is the round's eps, and by complementary
    slackness every free coalition with λ_S > 0 is tight at every primal
    optimum; those coalitions, a balanced collection in Kohlberg's criterion
    (Kohlberg, SIAM J. Appl. Math. 1971), are pinned at level eps, and since
    the λ sum to 1 each round pins at least one (Benedek, Fliege & Nguyen,
    Math. Programming 2021).  The rounds stop once the pinned equalities
    determine the allocation.  A coalition tight at every optimum may still
    have λ_S = 0; it is pinned in a later round at the same level, and the
    point is unique either way.

    The LP gets ints: its objective is the worths' ints ``_num`` less their
    members' singletons (a pinned coalition's also less ``_den`` times its
    level), all times the lcm of the levels' denominators, so eps is the LP
    value divided by ``_den`` and by that lcm.  The λ signs and eps are read
    from the solution's ints (`LPSolution.point_ints` and `value_int`), and
    the empty-imputation test and the pinned system are in ints too; a
    `Fraction` is built only for a level and the result.
    """
    n = game.n
    what = f"nucleolus of {n} players"
    ResourceLimitError.check(n, NUCLEOLUS_MAX_PLAYERS, what, "player", "NUCLEOLUS_MAX_PLAYERS")
    num, den, full = game._num, game._den, game.grand_coalition
    players = range(n)
    if sum(num[1 << i] for i in players) > num[full]:
        raise DomainError(
            "imputation set is empty: individual worths exceed the grand coalition; "
            "the nucleolus is undefined"
        )
    if n == 1:
        return (Fraction(num[full], den),)

    free = game.proper_coalitions()
    pinned: list[tuple[int, Fraction]] = []  # (mask, excess held at)
    singles = _coalition_sums([num[1 << i] for i in players])  # per mask, sum of u({i}) over i in it

    # Each round pins at least one coalition, and once every singleton is
    # pinned the system is determined, so the loop always returns.
    while True:
        # Columns: y_N, y_S per pinned S, λ_S per free S.
        # The objective is times den·scale; `scale` clears the levels' denominators.
        scale = math.lcm(*(level.denominator for _, level in pinned))
        masks = [full, *(mask for mask, _ in pinned), *free]
        objective = [(num[mask] - singles[mask]) * scale for mask in masks]
        for k, (_, level) in enumerate(pinned, 1):
            objective[k] -= level.numerator * den * scale // level.denominator
        constraints = [([mask >> i & 1 for mask in masks], "<=", 0) for i in players]
        lam = len(masks) - len(free)  # the first λ column
        constraints.append(([0] * lam + [1] * len(free), "=", 1))
        bounds = [(None, None)] * lam + [(0, None)] * len(free)
        sol = solve_lp(LinearProgram(objective, True, constraints, bounds))
        if not sol.is_optimal:
            raise AssertionError(f"nucleolus dual LP unexpectedly {sol.status}")
        # λ and the value are ints over sol.scale > 0, which keeps their signs.
        weights = sol.point_ints[lam : lam + len(free)]
        newly = {mask for mask, weight in zip(free, weights) if weight > 0}
        if not newly:
            raise AssertionError("no coalition has a positive dual weight; solver bug")
        eps = Fraction(sol.value_int, sol.scale * den * scale)
        pinned += [(mask, eps) for mask in free if mask in newly]
        free = [mask for mask in free if mask not in newly]

        point = _pinned_solution(game, pinned)
        if point is not None:
            return point


def _pinned_solution(game: TUGame, pinned) -> Allocation | None:
    """Solve the pinned equality system; None while it is underdetermined."""
    n, num, den = game.n, game._num, game._den
    # Fraction-free Gauss-Jordan on int rows: den·x(N) = u(N)·den, and
    # den·q·x(S) = u(S)·den·q - p·den for each S pinned at level p/q.
    rows = [[den] * n + [num[game.grand_coalition]]] + [
        [(mask >> i & 1) * den * level.denominator for i in range(n)]
        + [num[mask] * level.denominator - level.numerator * den]
        for mask, level in pinned
    ]
    d = 1
    r = 0
    for col in range(n):
        pivot = next((k for k in range(r, len(rows)) if rows[k][col] != 0), None)
        if pivot is None:
            return None
        rows[r], rows[pivot] = rows[pivot], rows[r]
        if rows[r][col] < 0:
            rows[r] = [-v for v in rows[r]]
        d = fraction_free_pivot(rows, r, col, d)
        r += 1
    return tuple(Fraction(rows[k][-1], d) for k in range(n))
