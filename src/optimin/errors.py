"""Exception hierarchy shared by every solver module, and the enumeration
bounds those modules check.

Every bound on the size of an enumeration is stated here, once, with its
reason and its measured cost at the bound; each module imports the bounds it
checks from here, so ``from optimin.coop import CORE_MAX_PLAYERS`` and the
like keep working.  A module counts what it is asked for before it
enumerates anything and passes the count and its own binding of the bound
to `ResourceLimitError.check`.  That one call holds the policy: a request
of at most the bound, exactly the bound included, is accepted, and one unit
past it is refused in the one message form, which names what was asked
for, the bound, the constant and, where a command-line flag governs the
bound, that flag.
"""

import sys


class OptiminError(Exception):
    """Base class for all errors raised by this library."""


class InvalidProfileError(OptiminError):
    """A strategy profile does not fit the game it was used with."""


class InvalidDistributionError(OptiminError):
    """A mixed strategy is not a probability distribution."""


class InvalidScaleError(OptiminError):
    """A payoff rescaling factor must be strictly positive."""


class UnsupportedArityError(OptiminError):
    """The operation is only defined for a specific player count."""


class EmptyInputError(OptiminError):
    """An operation that needs at least one element received none."""


class DomainError(OptiminError):
    """Input violates a mathematical precondition (infeasible, wrong sign, ...)."""


class ConstraintError(OptiminError):
    """A constraint set required to be nonempty is empty."""


class ParameterError(OptiminError):
    """A generator parameter is outside its documented range."""


class UnsupportedFeatureError(OptiminError):
    """The requested variant is deliberately not implemented."""


class FormatError(OptiminError):
    """An input file is malformed; the message names the offending path."""


class ResourceLimitError(OptiminError):
    """The instance exceeds the documented enumeration bounds."""

    @classmethod
    def check(cls, requested: int, bound: int, what: str, unit: str, name: str, hint: str = "") -> None:
        """Return when `requested` is at most `bound`, so a request of exactly
        the bound is accepted; otherwise refuse `what` with "<what> exceeds
        the <bound>-<unit> bound (<name>)", then "; <hint>" when a flag
        governs the bound.  `name` is the constant that `bound` binds."""
        if requested > bound:
            message = f"{what} exceeds the {bound}-{unit} bound ({name})"
            raise cls(f"{message}; {hint}" if hint else message)

    @classmethod
    def text_limit(cls) -> "ResourceLimitError":
        """The refusal, in the same form, of a value to write whose decimal
        text would pass the interpreter's int-to-text limit: `str` refuses
        such an int with a `ValueError`, which its writer turns into this."""
        limit = sys.get_int_max_str_digits()
        return cls(f"a value's decimal text exceeds the {limit}-digit bound (sys.get_int_max_str_digits())")


# -- rational literals (`rational`) -----------------------------------------
# Most digits a rational literal may hold, numerator, denominator, decimals
# and exponent together, and the largest exponent magnitude of "1.5e3" style:
# "1e1000000" alone would build a 3.3-million-bit integer.
RATIONAL_MAX_DIGITS = 1000
RATIONAL_MAX_EXPONENT = 1000

# -- noncooperative games (`noncoop`) ---------------------------------------
# optimin_grid_2p refuses grids above this many profiles; large strategy
# spaces (e.g. 99-strategy games) stay in pure mode.  A 3x3 game at k = 19
# (44 100 profiles) takes about a quarter of a second.
GRID_PROFILE_LIMIT = 50_000
# It also refuses grids whose points hold more weights than this, the sum
# over players of grid points times strategies, counted after the profiles: a
# 1 x m game at k = 1 has only m profiles, but its m points hold m weights
# each, so memory grows as m^2.  A 1 x 999 game (998 002 weights) takes about
# 0.2 s and 8 MB over the interpreter's own.
GRID_WEIGHT_LIMIT = 1_000_000

# The pure value table of a game of any arity but two refuses games whose
# worst-case count of deviation profiles, cells · sum_i cells / m_i, passes
# this: each cell scans, per player, the product of the opponents' option
# sets.  On seeded 11^4 games (7.8e7 profiles) `optimin_pure` took 1.6-1.8 s
# with constant-sum payoffs, whose payoff sums are all equal so that no cell
# is skipped, and 0.25-1.4 s with random payoffs, where the payoff bound
# skips most cells; the tracemalloc peak is 9.3 MB, most of it the per-line
# table of the kernel.  A 6^6 game (2.2e9) would run for many minutes.
VALUE_TABLE_MAX_PROFILES = 100_000_000

# -- TU cooperative games (`coop`) ------------------------------------------
# The player count n of a TU game has no constant: `coop.check_players`
# refuses n past the bit length of `sys.maxsize`, before 2^n is built, since
# no mapping holds 2^n - 1 worths.
# `shapley` sums one term per (coalition, player), n · 2^(n-1) of them; at 12
# players it takes about 0.01 s, and the game holds 4 095 worths.
SHAPLEY_MAX_PLAYERS = 12
# `imputation_grid` refuses lattices of more points than this, counted
# before any is built; a coarser --step shrinks the lattice.  `optimin_coop`
# evaluates the lattice column by column and Pareto-filters it.  With 3
# players the filter's staircase decides alone: on seeded games of 4 950
# points (u(N) less the singletons' worths = 98, step 1) it takes about
# 0.015-0.03 s when all are kept (every other coalition additive) and
# 0.012-0.027 s for convex games (pair synergies).  With 4 or more players a
# vector the staircase covers is checked only against kept points of larger
# value sum: on seeded 4-player games of 4 960 points (29 free units) it
# takes 0.03-0.055 s all kept and 0.04-0.06 s convex, against 2.7-4.1 s and
# 0.2-0.5 s when each was checked against every kept point.  No bound covers
# the player count: each point's value reads 2^n coalitions, and on seeded
# games where most coalitions profit somewhere the call takes 0.4-0.8 s at
# 10 players (2 002 points), 0.65-0.9 s at 12 (1 365) and 0.8-1.0 s at 14
# (560).
IMPUTATION_GRID_MAX_POINTS = 5_000
# Each `nucleolus` round solves a dual with n + 1 rows; an 8-player
# nucleolus takes a fraction of a second.
NUCLEOLUS_MAX_PLAYERS = 8
# `core` solves one LP with a row per coalition, 2^n - 1 of them.  On seeded
# 9-player games it takes 0.8-11.6 s when the core is empty and 11-15 s when
# it is not, and every further player roughly quadruples that.
CORE_MAX_PLAYERS = 9

# -- matching (`matching`) --------------------------------------------------
# `profitable_group_deviations` lists every union of disjoint moves; at 6
# per side the all-single matching has 13 326 such groups, listed in 0.17 s.
DEVIATION_MAX_SIZE = 6
# `optimin_matchings` scores every matching and Pareto-filters the worst
# cases; 5 per side has 1 546 matchings, about 0.005 s.
OPTIMIN_MAX_SIZE = 5
# `all_matchings` builds every matching, without the `Matching` constructor's
# checks: 7 per side has 130 922 of them, about 0.45-0.7 s and a 90 MB peak
# RSS on seeded random preferences; 8 has 1 441 729 and 9 has 17 572 114,
# which exhausts memory.
MATCHINGS_MAX_SIZE = 7

# -- generators (`generators`) ----------------------------------------------
# gen_travelers refuses claim games above this many cells (500 claims a
# side); its value table holds one entry per cell.  At the bound one `sweep`
# point (the game, `optimin_pure` and `nash_pure`) takes about 0.10-0.15 s,
# of which building the game takes 12-16 ms, and peaks at 30 MB of RSS,
# 12 MB over the interpreter's; the sorted payoff lines the game keeps for
# its value table and `nash_pure` hold 5.5 MB of it, one line per row, since
# the game is symmetric and both players read it.  Its Pareto filter reads
# 125 250 cells, one per orbit {(a, b), (b, a)}.
TRAVELERS_CELL_LIMIT = 250_000
# gen_public_goods refuses games above this many cells (2 levels for 16
# players); each cell holds one payoff per player.  At the bound `gen` takes
# about 0.5-0.75 s and 48 MB to write the 51 MB file, cell by cell, and `nash`
# on that file about 0.7-1.1 s and 115 MB, most of it reading the file;
# `nash_pure` itself takes 0.12-0.16 s.
PUBLIC_GOODS_CELL_LIMIT = 65_536
# gen_centipede refuses games of more nodes than this.  The game has about
# (nodes / 2)^2 cells of nodes-bit payoffs; at the bound, `gen` takes about
# 0.2-0.3 s and 22 MB.
CENTIPEDE_MAX_NODES = 500

# -- decisions against Nature (`decisions`) ---------------------------------
# DecisionProblem refuses more than this many (act, state) cells, |A|·|S|.
# Each agreement's value is an int minimum over its row and column, taken once
# per distinct possible set, so a constant constraint costs O(|A|·|S|): at the
# bound a 64x64 problem takes about 0.01 s and a 4096x1 one about 0.1 s.
DECISION_MAX_CELLS = 4096

# -- the command line (`cli`) -----------------------------------------------
# `sweep` refuses ranges of more points than this; each point solves one game.
SWEEP_MAX_POINTS = 10_000
