"""Parametric game families and named instances used throughout the test-bed.

Families: the claim-a-number dilemma with a reward parameter, the sequential
stop-or-continue game in reduced normal form (increasing-sum and constant-sum
variants), the 2x2 dilemma, and voluntary-contribution games.  Named tags
reproduce specific matrices and characteristic functions exactly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .coop import TUGame
from .errors import ParameterError, ResourceLimitError
from .games import NormalFormGame
from .noncoop import nash_pure, optimin_pure
from .rational import to_fraction

# gen_travelers refuses claim games above this many cells (500 claims a
# side); its value table holds one entry per cell.
TRAVELERS_CELL_LIMIT = 250_000

# gen_public_goods refuses games above this many cells (2 levels for 16
# players); each cell holds one payoff per player.
PUBLIC_GOODS_CELL_LIMIT = 65_536

# gen_centipede refuses games of more nodes than this.  The game has about
# (nodes / 2)^2 cells of nodes-bit payoffs; at the bound, `gen` takes about a
# second and 90 MB.
CENTIPEDE_MAX_NODES = 500

NAMED_TAGS = (
    "figure1",
    "motivating",
    "battle_of_sexes",
    "prisoners_dilemma",
    "coop_empty_core",
    "coop_120",
)


def gen_travelers(low: int, high: int, r) -> NormalFormGame:
    """Both pick an integer claim in [low, high]; the lower claim n earns n + r,
    the higher earns n - r, ties earn the claim itself."""
    r = to_fraction(r)
    if not (isinstance(low, int) and isinstance(high, int) and 2 <= low < high):
        raise ParameterError(f"claims need integers 2 <= low < high, got {low}, {high}")
    if r <= 1:
        raise ParameterError(f"reward must exceed 1, got {r}")
    cells = (high - low + 1) ** 2
    if cells > TRAVELERS_CELL_LIMIT:
        raise ResourceLimitError(
            f"claim game of {cells} cells exceeds the {TRAVELERS_CELL_LIMIT}-cell "
            f"bound (TRAVELERS_CELL_LIMIT); lower --high"
        )
    claims = range(low, high + 1)
    labels = tuple(str(c) for c in claims)
    # With r = p/q every payoff is an int over q: a*q for a tie, the lower
    # claim times q, plus p for its owner and minus p for the other.  Row a
    # is column b's below the diagonal, the tie on it and a constant above.
    p, q = r.numerator, r.denominator
    below1 = [b * q - p for b in claims]
    below2 = [b * q + p for b in claims]
    u1, u2 = [], []
    for a in claims:
        u1 += below1[: a - low] + [a * q] + [a * q + p] * (high - a)
        u2 += below2[: a - low] + [a * q] + [a * q - p] * (high - a)
    return NormalFormGame._from_scaled(("traveler1", "traveler2"), (labels, labels), (u1, u2), (q, q))


def gen_centipede(nodes: int, variant: str = "increasing") -> NormalFormGame:
    """Reduced normal form of the alternating stop-or-continue game.

    Player 1 moves at odd nodes, player 2 at even ones; a strategy is the
    first own node at which to stop, or always continuing.  Increasing-sum:
    the pot starts at (4, 1) for the mover and doubles each node.  Constant-sum:
    the total stays fixed while the mover's edge halves each node, so stopping
    sooner is strictly better for the mover.
    """
    if not isinstance(nodes, int) or nodes < 1:
        raise ParameterError(f"node count must be a positive integer, got {nodes}")
    if variant not in ("increasing", "constant"):
        raise ParameterError(f"variant must be 'increasing' or 'constant', got {variant!r}")
    if nodes > CENTIPEDE_MAX_NODES:
        raise ResourceLimitError(
            f"centipede of {nodes} nodes exceeds the {CENTIPEDE_MAX_NODES}-node bound "
            "(CENTIPEDE_MAX_NODES); lower --nodes"
        )

    def stop_payoff(k: int) -> tuple[Fraction, Fraction]:
        mover_first = k % 2 == 1
        if variant == "increasing":
            hi, lo = Fraction(4 * 2 ** (k - 1)), Fraction(2 ** (k - 1))
        else:
            total = 2 ** (nodes + 2)
            edge = total // 2 ** (k + 1)
            hi, lo = Fraction(total // 2 + edge), Fraction(total // 2 - edge)
        return (hi, lo) if mover_first else (lo, hi)

    own1 = [k for k in range(1, nodes + 1) if k % 2 == 1]
    own2 = [k for k in range(1, nodes + 1) if k % 2 == 0]
    s1 = tuple(f"stop@{k}" for k in own1) + ("continue",)
    s2 = tuple(f"stop@{k}" for k in own2) + ("continue",)
    end = stop_payoff(nodes + 1)  # nobody stopped; next mover's split stands

    def outcome(k1: int | None, k2: int | None) -> tuple[Fraction, Fraction]:
        stops = [k for k in (k1, k2) if k is not None]
        return stop_payoff(min(stops)) if stops else end

    nodes1 = own1 + [None]
    nodes2 = own2 + [None]
    payoffs = [[outcome(k1, k2) for k2 in nodes2] for k1 in nodes1]
    return NormalFormGame(("player1", "player2"), (s1, s2), payoffs)


def gen_prisoners_dilemma(t, r, p, s) -> NormalFormGame:
    """Standard 2x2 dilemma with temptation > reward > punishment > sucker."""
    t, r, p, s = (to_fraction(v) for v in (t, r, p, s))
    if not t > r > p > s:
        raise ParameterError(f"need T > R > P > S, got {t} > {r} > {p} > {s}")
    strategies = ("Cooperate", "Defect")
    payoffs = [
        [(r, r), (s, t)],
        [(t, s), (p, p)],
    ]
    return NormalFormGame(("row", "column"), (strategies, strategies), payoffs)


def gen_public_goods(n: int, endowment, mpcr, levels: Sequence) -> NormalFormGame:
    """Each player contributes a level c from the menu; payoff is e - c + m * total."""
    e = to_fraction(endowment)
    m = to_fraction(mpcr)
    if n < 2:
        raise ParameterError(f"need at least 2 players, got {n}")
    if e <= 0:
        raise ParameterError(f"endowment must be positive, got {e}")
    if m <= 0:
        raise ParameterError(f"return rate must be positive, got {m}")
    if m >= 1:
        warnings.warn(
            f"return rate {m} >= 1 makes contribution dominant", stacklevel=2
        )
    menu = sorted({to_fraction(c) for c in levels})
    if len(menu) < 2:
        raise ParameterError("need at least 2 distinct contribution levels")
    if menu[0] < 0 or menu[-1] > e:
        raise ParameterError(f"levels must lie within [0, {e}]")
    cells = 1
    for _ in range(n):  # stops within 17 players: each multiplies by at least 2
        cells *= len(menu)
        if cells > PUBLIC_GOODS_CELL_LIMIT:
            raise ResourceLimitError(
                f"public goods game of {n} players with {len(menu)} levels each exceeds "
                f"the {PUBLIC_GOODS_CELL_LIMIT}-cell bound (PUBLIC_GOODS_CELL_LIMIT); "
                "lower --n or the number of --levels"
            )

    labels = tuple(str(c) if c.denominator != 1 else str(c.numerator) for c in menu)
    players = tuple(f"player{i + 1}" for i in range(n))

    def build(depth: int, chosen: tuple[Fraction, ...]):
        if depth == n:
            total = sum(chosen, Fraction(0))
            return [e - c + m * total for c in chosen]
        return [build(depth + 1, chosen + (c,)) for c in menu]

    return NormalFormGame(players, (labels,) * n, build(0, ()))


def gen_named(tag: str):
    """Exact named instances; returns a NormalFormGame or a TUGame."""
    if tag == "figure1":
        rows = ("Top", "Middle", "Bottom")
        cols = ("Left", "Center", "Right")
        payoffs = [
            [(100, 100), (100, 105), (0, 0)],
            [(105, 100), (95, 95), (0, 210)],
            [(0, 0), (210, 0), (5, 5)],
        ]
        return NormalFormGame(("row", "column"), (rows, cols), payoffs)
    if tag == "motivating":
        payoffs = [
            [(2, 2), (0, 1)],
            [(1, 2), (1, 1)],
        ]
        return NormalFormGame(("row", "column"), (("U", "D"), ("L", "R")), payoffs)
    if tag == "battle_of_sexes":
        strategies = ("Football", "Opera")
        payoffs = [
            [(2, 1), (0, 0)],
            [(0, 0), (1, 2)],
        ]
        return NormalFormGame(("row", "column"), (strategies, strategies), payoffs)
    if tag == "prisoners_dilemma":
        return gen_prisoners_dilemma(5, 3, 1, 0)
    if tag == "coop_empty_core":
        return _three_player_tu(grand=110)
    if tag == "coop_120":
        return _three_player_tu(grand=120)
    raise ParameterError(f"unknown game tag {tag!r}")


def _three_player_tu(grand: int) -> TUGame:
    worth = {
        0b001: 35,
        0b010: 30,
        0b100: 25,
        0b011: 90,
        0b101: 80,
        0b110: 70,
        0b111: grand,
    }
    return TUGame(3, worth)


@dataclass(frozen=True)
class SweepRow:
    parameter: Fraction
    optimin: tuple[tuple[str, ...], ...]  # label profiles
    nash: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class SweepResult:
    family: str
    parameter: str
    rows: tuple[SweepRow, ...]
    # First parameter value whose solution set shares nothing with the initial
    # one, i.e. where the prediction has fully switched away from the start.
    threshold: Fraction | None

    def row_for(self, value) -> SweepRow:
        value = to_fraction(value)
        for row in self.rows:
            if row.parameter == value:
                return row
        raise KeyError(f"no sweep row at {value}")


def sweep(family: str, parameter: str, values: Sequence, **fixed) -> SweepResult:
    """Run the solution set and the equilibrium set across a parameter range."""
    rows = []
    for raw in values:
        value = to_fraction(raw)
        game = _family_instance(family, parameter, value, fixed)
        opt = tuple(game.profile_labels(e.profile) for e in optimin_pure(game))
        nash = tuple(game.profile_labels(p) for p in nash_pure(game))
        rows.append(SweepRow(value, opt, nash))
    threshold = None
    if rows:
        first = set(rows[0].optimin)
        for row in rows[1:]:
            if not (set(row.optimin) & first):
                threshold = row.parameter
                break
    return SweepResult(family, parameter, tuple(rows), threshold)


def _family_instance(family: str, parameter: str, value: Fraction, fixed: dict):
    if family == "travelers":
        if parameter != "r":
            raise ParameterError(f"travelers sweeps over 'r', not {parameter!r}")
        return gen_travelers(fixed.get("low", 2), fixed.get("high", 100), value)
    if family == "centipede":
        if parameter != "nodes":
            raise ParameterError(f"centipede sweeps over 'nodes', not {parameter!r}")
        if value.denominator != 1:
            raise ParameterError("node counts must be integers")
        return gen_centipede(int(value), fixed.get("variant", "increasing"))
    if family == "public_goods":
        if parameter != "mpcr":
            raise ParameterError(f"public_goods sweeps over 'mpcr', not {parameter!r}")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return gen_public_goods(
                fixed.get("n", 2),
                fixed.get("endowment", 10),
                value,
                fixed.get("levels", (0, 10)),
            )
    raise ParameterError(f"unknown sweep family {family!r}")
