"""Parametric game families and named instances used throughout the test-bed.

Families: the claim-a-number dilemma with a reward parameter, the sequential
stop-or-continue game in reduced normal form (increasing-sum and constant-sum
variants), the 2x2 dilemma, and voluntary-contribution games.  Each builds
int payoffs through `NormalFormGame._from_scaled`, no `Fraction` per cell;
the claim game builds player 1's payoffs only and takes player 2's as their
transpose.  `FAMILIES` maps each family to its generator, whose signature
states its parameters and defaults.  Named tags reproduce specific matrices
and characteristic functions exactly.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Literal, NamedTuple, Sequence, get_args

from .coop import TUGame
from .errors import CENTIPEDE_MAX_NODES, PUBLIC_GOODS_CELL_LIMIT, TRAVELERS_CELL_LIMIT
from .errors import ParameterError, ResourceLimitError
from .games import NormalFormGame
from .noncoop import _pareto_cells, _profile_at, nash_pure
from .rational import json_ratio, literal_ratio, over_common_denominator, to_fraction
from .zerosum import bulmer_game

CentipedeVariant = Literal["increasing", "constant"]

# The parameterless instances `gen_named` builds: normal-form games, then TU games.
GAME_TAGS = ("figure1", "motivating", "battle_of_sexes", "prisoners_dilemma", "bulmer")
COOP_TAGS = ("coop_empty_core", "coop_120")
NAMED_TAGS = GAME_TAGS + COOP_TAGS


def gen_travelers(low: int = 2, high: int = 100, r=2) -> NormalFormGame:
    """Both pick an integer claim in [low, high]; the lower claim n earns n + r,
    the higher earns n - r, ties earn the claim itself."""
    p, q = literal_ratio(r)
    if not (isinstance(low, int) and isinstance(high, int) and 2 <= low < high):
        raise ParameterError(f"claims need integers 2 <= low < high, got {low}, {high}")
    if p <= q:
        raise ParameterError(f"reward must exceed 1, got {json_ratio(p, q)}")
    cells = (high - low + 1) ** 2
    what, hint = f"claim game of {cells} cells", "lower --high"
    ResourceLimitError.check(cells, TRAVELERS_CELL_LIMIT, what, "cell", "TRAVELERS_CELL_LIMIT", hint)
    claims = range(low, high + 1)
    labels = tuple(str(c) for c in claims)
    # With r = p/q every payoff is an int over q: a*q for a tie, the lower
    # claim times q, plus p for its owner and minus p for the other.  Row a
    # of player 1's is column b's below the diagonal, the tie on it and a
    # constant above.  Player 2's is its transpose, u2(a, b) = u1(b, a).
    below = [b * q - p for b in claims]
    u1 = []
    for i, a in enumerate(claims):
        u1 += below[:i]
        u1.append(a * q)
        u1 += itertools.repeat(a * q + p, high - a)
    u2 = tuple(itertools.chain.from_iterable(u1[a :: len(claims)] for a in range(len(claims))))
    game = NormalFormGame._from_scaled(("traveler1", "traveler2"), (labels, labels), (u1, u2), q)
    # `_from_scaled` divides every int by one gcd, so player 2's payoffs stay
    # the transpose of player 1's: the game is symmetric, and `_is_symmetric`
    # need not compare the transpose it was built as.
    game._symmetric = True
    return game


def gen_centipede(nodes: int = 4, variant: CentipedeVariant = "increasing") -> NormalFormGame:
    """Reduced normal form of the alternating stop-or-continue game.

    Player 1 moves at odd nodes, player 2 at even ones; a strategy is the
    first own node at which to stop, or always continuing.  Increasing-sum:
    the pot starts at (4, 1) for the mover and doubles each node.  Constant-sum:
    the total stays fixed while the mover's edge halves each node, so stopping
    sooner is strictly better for the mover.
    """
    if type(nodes) is not int or nodes < 1:  # a bool is no node count
        raise ParameterError(f"node count must be a positive integer, got {nodes}")
    if variant not in get_args(CentipedeVariant):
        raise ParameterError(f"variant must be 'increasing' or 'constant', got {variant!r}")
    what, hint = f"centipede of {nodes} nodes", "lower --nodes"
    ResourceLimitError.check(nodes, CENTIPEDE_MAX_NODES, what, "node", "CENTIPEDE_MAX_NODES", hint)
    # The payoffs when the game stops at node k = 1 .. nodes + 1; "continue"
    # is node nodes + 1, where the next mover's split stands.
    half = 2 ** (nodes + 1)
    stop = {}
    for k in range(1, nodes + 2):
        if variant == "increasing":
            hi, lo = 2 ** (k + 1), 2 ** (k - 1)
        else:
            hi, lo = half + 2 ** (nodes + 1 - k), half - 2 ** (nodes + 1 - k)
        stop[k] = (hi, lo) if k % 2 else (lo, hi)  # player 1 moves at odd nodes
    own1 = range(1, nodes + 1, 2)
    own2 = range(2, nodes + 1, 2)
    s1 = tuple(f"stop@{k}" for k in own1) + ("continue",)
    s2 = tuple(f"stop@{k}" for k in own2) + ("continue",)
    u1, u2 = zip(*[stop[min(k1, k2)] for k1 in (*own1, nodes + 1) for k2 in (*own2, nodes + 1)])
    return NormalFormGame._from_scaled(("player1", "player2"), (s1, s2), (u1, u2), 1)


def gen_prisoners_dilemma(t=5, r=3, p=1, s=0) -> NormalFormGame:
    """Standard 2x2 dilemma with temptation > reward > punishment > sucker."""
    (t, r, p, s), d = over_common_denominator((t, r, p, s))
    if not t > r > p > s:
        raise ParameterError(
            "need T > R > P > S, got " + " > ".join(str(json_ratio(v, d)) for v in (t, r, p, s))
        )
    strategies = ("Cooperate", "Defect")
    payoffs = ((r, s, t, p), (r, t, s, p))  # row's, then column's, cells in row-major order
    return NormalFormGame._from_scaled(("row", "column"), (strategies, strategies), payoffs, d)


def gen_public_goods(n: int = 2, endowment=10, mpcr="1/2", levels: Sequence = (0, 10)) -> NormalFormGame:
    """Each player contributes a level c from the menu; payoff is e - c + m * total."""
    # e and the levels are ints over den and the return rate is p/q, so
    # every payoff is an int over den * q.
    (e, *menu), den = over_common_denominator([endowment, *levels])
    p, q = literal_ratio(mpcr)
    if type(n) is not int or n < 2:  # a bool is no player count
        raise ParameterError(f"need at least 2 players, got {n} (--n)")
    if e <= 0:
        raise ParameterError(f"endowment must be positive, got {json_ratio(e, den)} (--endowment)")
    if p <= 0:
        raise ParameterError(f"return rate must be positive, got {json_ratio(p, q)}")
    menu = sorted(set(menu))
    if len(menu) < 2:
        raise ParameterError("need at least 2 distinct contribution levels (--levels)")
    if menu[0] < 0 or menu[-1] > e:
        raise ParameterError(f"levels must lie within [0, {json_ratio(e, den)}] (--levels)")
    what = f"public goods game of {n} players with {len(menu)} levels each"
    hint = "lower --n or the number of --levels"
    cells = 1
    for _ in range(n):  # stops within 17 players: each multiplies by at least 2
        cells *= len(menu)
        ResourceLimitError.check(cells, PUBLIC_GOODS_CELL_LIMIT, what, "cell", "PUBLIC_GOODS_CELL_LIMIT", hint)

    labels = tuple(str(json_ratio(c, den)) for c in menu)
    players = tuple(f"player{i + 1}" for i in range(n))
    profiles = list(itertools.product(menu, repeat=n))
    pooled = [p * sum(profile) for profile in profiles]
    num = [[(e - c) * q + pool for c, pool in zip(own, pooled)] for own in zip(*profiles)]
    return NormalFormGame._from_scaled(players, (labels,) * n, num, den * q)


class Family:
    """A family's generator, held by name and looked up on this module at each
    call so that a rebinding of the module attribute is seen, and the
    parameter `sweep` varies (None if it sweeps none).  The generator's
    signature states the parameters and their defaults; `parameters` maps
    each parameter's name to its CLI flag and its annotation (None if it has
    none), in signature order, read off the generator's code and its
    annotation strings."""

    __slots__ = ("generator", "swept", "parameters")

    def __init__(
        self, generator: str, swept: str | None = None, renamed: tuple[tuple[str, str], ...] = ()
    ) -> None:
        self.generator = generator
        self.swept = swept
        function = globals()[generator]
        code, hints, flags = function.__code__, function.__annotations__, dict(renamed)
        self.parameters = {
            name: (flags.get(name, name), eval(hints[name], globals()) if name in hints else None)
            for name in code.co_varnames[: code.co_argcount]
        }

    def build(self, **params):
        return globals()[self.generator](**params)


FAMILIES = {
    "travelers": Family("gen_travelers", "r"),
    "centipede": Family("gen_centipede", "nodes"),
    "public_goods": Family("gen_public_goods", "mpcr"),
    "prisoners_dilemma": Family(
        "gen_prisoners_dilemma", renamed=(("r", "reward"), ("p", "punishment"), ("s", "sucker"))
    ),
}


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
        return gen_prisoners_dilemma()
    if tag == "bulmer":
        return bulmer_game().game
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


class SweepRow(NamedTuple):
    parameter: Fraction
    optimin: tuple[tuple[str, ...], ...]  # label profiles
    nash: tuple[tuple[str, ...], ...]


class SweepResult(NamedTuple):
    family: str
    parameter: str
    rows: tuple[SweepRow, ...]
    # First parameter value whose solution set shares nothing with the initial
    # one, i.e. where the prediction has fully switched away from the start.
    threshold: Fraction | None

    def row_for(self, value) -> SweepRow:
        """The row at parameter `value`; a `ParameterError` if none was swept."""
        value = to_fraction(value)
        for row in self.rows:
            if row.parameter == value:
                return row
        raise ParameterError(f"no sweep row at {value}")


def sweep(family: str, parameter: str, values: Sequence, **fixed) -> SweepResult:
    """Run the solution set and the equilibrium set across a parameter range;
    `fixed` holds the family generator's other keywords, and one it does not
    take, or the swept one, is refused."""
    spec = FAMILIES.get(family)
    if spec is None or spec.swept is None:
        raise ParameterError(f"unknown sweep family {family!r}")
    if parameter != spec.swept:
        raise ParameterError(f"{family} sweeps over {spec.swept!r}, not {parameter!r}")
    for name in fixed:
        if name not in spec.parameters or name == parameter:
            raise ParameterError(f"{name!r} is not a fixed parameter of the {family} sweep")
    integral = spec.parameters[parameter][1] is int  # centipede's nodes
    rows = []
    for raw in values:
        value = to_fraction(raw)
        if integral and value.denominator != 1:
            raise ParameterError("node counts must be integers")
        game = spec.build(**fixed, **{parameter: value.numerator if integral else value})
        opt = tuple(game.profile_labels(_profile_at(game, idx)) for idx in _pareto_cells(game))
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
