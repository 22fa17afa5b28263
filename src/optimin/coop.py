"""Transferable-utility cooperative games.

Coalitions are bitmasks over players 0..n-1.  The worst-case value of an
allocation charges the complement of any profitably deviating coalition an
equal share of the shortfall it is left with; allocations whose value vectors
are Pareto optimal form the solution set, searched on an integer lattice of
imputations.  Core membership, the Shapley value, and the nucleolus are exact.

Worths are read straight to ints over one common denominator
(`rational.over_common_denominator`, with no `Fraction` for an int or
``"a/b"`` literal), and the worst-case values, deviation tests, lattice
search and Shapley value run on ints: an allocation is brought to the
worths' denominator once, and a `Fraction` is built only for an allocation
or value that is returned.  A player count is checked before any 2^n is
built.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Sequence

from .errors import CORE_MAX_PLAYERS, IMPUTATION_GRID_MAX_POINTS, NUCLEOLUS_MAX_PLAYERS, SHAPLEY_MAX_PLAYERS
from .errors import DomainError, ResourceLimitError
from .games import ValueVector
from .lp import LinearProgram, fraction_free_pivot, solve_lp
from .pareto import pareto_filter
from .rational import format_exact, over_common_denominator, to_fraction

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


class TUGame:
    """Characteristic function on all nonempty coalitions of n players.

    `worth[mask]` is the coalition's transferable worth; the empty coalition
    is implicitly 0.  Construction verifies completeness; `cohesive` flags
    (but nothing rejects) games whose grand coalition fails to cover some
    partition.

    The worths are stored as the ints ``_num[mask]`` over the common
    denominator ``_den``, the lcm of their reduced denominators, so equal
    games have equal representations; ``_num[0]`` is the empty coalition's 0.
    These ints are the game's only worth state.  Readers scale an allocation
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
        if not 0 <= mask < (1 << self.n):
            raise ValueError(f"coalition mask {mask!r} out of range")
        return Fraction(self._num[mask], self._den)

    @property
    def grand_coalition(self) -> int:
        return (1 << self.n) - 1

    def singletons(self) -> list[Fraction]:
        return [Fraction(self._num[1 << i], self._den) for i in range(self.n)]

    def proper_coalitions(self) -> list[int]:
        return list(range(1, self.grand_coalition))

    def __eq__(self, other) -> bool:
        if not isinstance(other, TUGame):
            return NotImplemented
        return self.n == other.n and self._den == other._den and self._num == other._num

    def __repr__(self) -> str:
        return f"TUGame(n={self.n}, u(N)={self.worth(self.grand_coalition)})"


def coalition_sum(x: Sequence[Fraction], mask: int) -> Fraction:
    total = ZERO
    i = 0
    while mask:
        if mask & 1:
            total += x[i]
        mask >>= 1
        i += 1
    return total


def as_allocation(game: TUGame, x: Sequence) -> Allocation:
    vec = tuple(to_fraction(v) for v in x)
    if len(vec) != game.n:
        raise DomainError(f"allocation has {len(vec)} entries for {game.n} players")
    return vec


def _scaled(game: TUGame, x: Sequence) -> tuple[list[int], Sequence[int], int]:
    """The allocation and the worths as ints over one common denominator d."""
    alloc, d = over_common_denominator(x)
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


def _worst_case(worth: Sequence[int], alloc: Sequence[int], lcm: int) -> tuple[int, ...]:
    """`coop_value` in ints: the values times `lcm` = lcm(1..n).

    `alloc` and `worth` are ints over one denominator.  A coalition S with
    x(S) < u(S) leaves its complement R a shortfall x(R) - u(R), and each
    member of R loses an equal share, which times `lcm` is the int
    shortfall · (lcm / |R|).  A player's value is its allocation less the
    largest such loss over the coalitions without it, or none if no loss is
    positive.
    """
    sums = _coalition_sums(alloc)
    full = len(sums) - 1
    n = len(alloc)
    loss = [0] * n
    for mask in range(1, full):
        if sums[mask] < worth[mask]:
            rest = full ^ mask
            cut = (sums[rest] - worth[rest]) * (lcm // rest.bit_count())
            for i in range(n):
                if rest >> i & 1 and cut > loss[i]:
                    loss[i] = cut
    return tuple(xi * lcm - c for xi, c in zip(alloc, loss))


def _scaled_feasible(
    game: TUGame, x: Sequence
) -> tuple[Allocation, list[int], Sequence[int], int]:
    """`as_allocation` and `_scaled` of a feasible allocation; else DomainError."""
    x = as_allocation(game, x)
    alloc, worth, d = _scaled(game, x)
    if sum(alloc) > worth[game.grand_coalition]:
        raise DomainError(
            f"allocation ({', '.join(map(format_exact, x))}) exceeds the grand coalition worth"
        )
    return x, alloc, worth, d


def is_feasible(game: TUGame, x: Sequence[Fraction]) -> bool:
    alloc, worth, _ = _scaled(game, x)
    return sum(alloc) <= worth[game.grand_coalition]


def is_imputation(game: TUGame, x: Sequence[Fraction]) -> bool:
    alloc, worth, _ = _scaled(game, x)
    if sum(alloc) != worth[game.grand_coalition]:
        return False
    return all(alloc[i] >= worth[1 << i] for i in range(game.n))


@dataclass(frozen=True)
class DeviationSet:
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
    x, alloc, worth, _ = _scaled_feasible(game, x)
    if not 0 <= excluding < game.n:
        raise DomainError(f"no player {excluding} in a {game.n}-player game")
    sums = _coalition_sums(alloc)
    full = game.grand_coalition
    bit = 1 << excluding
    found = tuple(m for m in range(1, full) if not m & bit and sums[m] < worth[m])
    return DeviationSet(excluding, x, found)


def coop_value(game: TUGame, x: Sequence) -> ValueVector:
    """Worst-case payoffs: deviators leave, the rest split the shortfall equally."""
    _, alloc, worth, d = _scaled_feasible(game, x)
    lcm = math.lcm(*range(1, game.n + 1))
    return tuple(Fraction(v, lcm * d) for v in _worst_case(worth, alloc, lcm))


def imputation_grid(game: TUGame, step, floors: Sequence | None = None) -> list[Allocation]:
    """Efficient allocations on the `step` lattice at or above the floors.

    Default floors are the individual worths (the imputation set); passing
    lower floors widens the search domain below individual rationality.
    """
    step = to_fraction(step)
    p, q = step.numerator, step.denominator
    return [tuple(Fraction(u * p, q) for u in point) for point in _lattice(game, step, floors)]


def _lattice(game: TUGame, step: Fraction, floors: Sequence | None) -> list[tuple[int, ...]]:
    """`imputation_grid`'s points as int multiples of `step`, in the same order."""
    if step <= 0:
        raise DomainError(f"grid step must be positive, got {step}")
    total = game.worth(game.grand_coalition)
    if floors is None:
        lows = game.singletons()
    else:
        lows = [to_fraction(v) for v in floors]
        if len(lows) != game.n:
            raise DomainError(f"need one floor per player, got {len(lows)}")
    if sum(lows, ZERO) > total:
        raise DomainError(
            "imputation set is empty: individual worths exceed the grand coalition"
        )
    total_units = total / step
    if total_units.denominator != 1:
        return []
    # Minimal multiples of `step` at or above each individual worth.
    min_units = [-((-low) // step) for low in lows]
    # The lattice holds every way to share the free units among n players.
    free = total_units.numerator - sum(min_units)
    count = math.comb(free + game.n - 1, game.n - 1) if free >= 0 else 0
    if count > IMPUTATION_GRID_MAX_POINTS:
        what, hint = f"imputation grid of {count} points", "raise --step"
        raise ResourceLimitError.past(
            what, IMPUTATION_GRID_MAX_POINTS, "point", "IMPUTATION_GRID_MAX_POINTS", hint
        )
    return _shares(min_units, free) if free >= 0 else []


def _shares(lows: list[int], free: int) -> list[tuple[int, ...]]:
    """Every way to give player i lows[i] plus a share of `free`, lexicographically."""
    if len(lows) == 1:
        return [(lows[0] + free,)]
    return [
        (lows[0] + k,) + rest for k in range(free + 1) for rest in _shares(lows[1:], free - k)
    ]


@dataclass(frozen=True)
class CoopOptimin:
    """Grid search result; `kind` flags that the lattice is an approximation."""

    step: Fraction
    entries: tuple[tuple[Allocation, ValueVector], ...]
    kind: str = field(default="grid-approximate")

    @property
    def allocations(self) -> tuple[Allocation, ...]:
        return tuple(x for x, _ in self.entries)


def optimin_coop(game: TUGame, step, floors: Sequence | None = None) -> CoopOptimin:
    """Pareto-filter the worst-case values over the imputation lattice.

    With step p/q, a lattice point's units u are the allocation u·p·den over
    the denominator q·den, and the worths are num·q over it.  Every value
    vector then shares the one positive scale lcm(1..n)·q·den, so the filter
    compares ints and keeps the same entries it would keep as `Fraction`s.
    """
    step = to_fraction(step)
    points = _lattice(game, step, floors)
    if not points:
        return CoopOptimin(step, ())
    p, q = step.numerator, step.denominator
    unit = p * game._den
    worth = [w * q for w in game._num]
    lcm = math.lcm(*range(1, game.n + 1))
    entries = [(u, _worst_case(worth, [k * unit for k in u], lcm)) for u in points]
    kept = pareto_filter(entries, key=itemgetter(1))
    scale = lcm * q * game._den
    return CoopOptimin(
        step,
        tuple(
            (tuple(Fraction(k * p, q) for k in u), tuple(Fraction(v, scale) for v in values))
            for u, values in kept
        ),
    )


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


@dataclass(frozen=True)
class CoreResult:
    empty: bool
    witness: Allocation | None

    def __bool__(self) -> bool:
        return not self.empty


def core(game: TUGame) -> CoreResult:
    """LP feasibility of efficiency plus every coalition constraint."""
    n = game.n
    if n > CORE_MAX_PLAYERS:
        what = f"core of {n} players"
        raise ResourceLimitError.past(what, CORE_MAX_PLAYERS, "player", "CORE_MAX_PLAYERS")
    # Every row times the worths' denominator: den·x(S) >= u(S)·den, in the game's ints.
    constraints = [([game._den] * n, "=", game._num[game.grand_coalition])]
    for mask in game.proper_coalitions():
        coeffs = [game._den if mask >> i & 1 else 0 for i in range(n)]
        constraints.append((coeffs, ">=", game._num[mask]))
    sol = solve_lp(LinearProgram.build([0] * n, False, constraints))
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
    if n > SHAPLEY_MAX_PLAYERS:
        what = f"shapley of {n} players"
        raise ResourceLimitError.past(what, SHAPLEY_MAX_PLAYERS, "player", "SHAPLEY_MAX_PLAYERS")
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
    each round solves its dual instead, which has one equality row per
    player and one more, so a pivot updates n + 1 rows rather than 2^n:

        max  u(N)·y_N + sum_pinned (u(S) - level_S)·y_S + sum_free u(S)·λ_S
             + sum_i u({i})·μ_i
        s.t. y_N + sum_{pinned S ∋ i} y_S + sum_{free S ∋ i} λ_S + μ_i = 0
                 for every player i,
             sum_free λ_S = 1,
             y free, λ >= 0, μ >= 0.

    By strong duality its value is the round's eps, and by complementary
    slackness every free coalition with λ_S > 0 is tight at every primal
    optimum; those coalitions, a balanced collection in Kohlberg's criterion
    (Kohlberg, SIAM J. Appl. Math. 1971), are pinned at level eps, and since
    the λ sum to 1 each round pins at least one (Benedek, Fliege & Nguyen,
    Math. Programming 2021).  The rounds stop once the pinned equalities
    determine the allocation.  A coalition tight at every optimum may still
    have λ_S = 0; it is pinned in a later round at the same level, and the
    point is unique either way.

    The LP gets ints: its objective is the worths' ints ``_num`` (a pinned
    coalition's less ``_den`` times its level), all times the lcm of the
    levels' denominators, so eps is the LP value divided by ``_den`` and by
    that lcm.  The empty-imputation test and the pinned system are in ints
    too; a `Fraction` is built only for an LP point, a level and the result.
    """
    n = game.n
    if n > NUCLEOLUS_MAX_PLAYERS:
        what = f"nucleolus of {n} players"
        raise ResourceLimitError.past(what, NUCLEOLUS_MAX_PLAYERS, "player", "NUCLEOLUS_MAX_PLAYERS")
    num, den, full = game._num, game._den, game.grand_coalition
    players = range(n)
    if sum(num[1 << i] for i in players) > num[full]:
        raise DomainError("imputation set is empty; the nucleolus is undefined")
    if n == 1:
        return (Fraction(num[full], den),)

    free = game.proper_coalitions()
    pinned: list[tuple[int, Fraction]] = []  # (mask, excess held at)

    # Each round pins at least one coalition, and once every singleton is
    # pinned the system is determined, so the loop always returns.
    while True:
        # Columns: y_N, y_S per pinned S, λ_S per free S, μ_i per player.
        # The objective is times den·scale; `scale` clears the levels' denominators.
        scale = math.lcm(*(level.denominator for _, level in pinned))
        masks = [full, *(mask for mask, _ in pinned), *free]
        objective = [num[mask] * scale for mask in masks] + [num[1 << i] * scale for i in players]
        for k, (_, level) in enumerate(pinned, 1):
            objective[k] -= level.numerator * den * scale // level.denominator
        constraints = [
            ([mask >> i & 1 for mask in masks] + [0] * i + [1] + [0] * (n - 1 - i), "=", 0)
            for i in players
        ]
        lam = len(masks) - len(free)  # the first λ column
        constraints.append(([0] * lam + [1] * len(free) + [0] * n, "=", 1))
        bounds = [(None, None)] * lam + [(0, None)] * (len(free) + n)
        sol = solve_lp(LinearProgram.build(objective, True, constraints, bounds))
        if not sol.is_optimal:
            raise AssertionError(f"nucleolus dual LP unexpectedly {sol.status}")
        weights = sol.point[lam : lam + len(free)]
        newly = {mask for mask, weight in zip(free, weights) if weight > 0}
        if not newly:
            raise AssertionError("no coalition has a positive dual weight; solver bug")
        eps = sol.objective_value / (den * scale)
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
