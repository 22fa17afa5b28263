"""Exception hierarchy shared by every solver module, and the enumeration
bounds those modules check.

Every bound on the size of an enumeration is stated here, once, with its
reason and its measured cost at the bound; each module imports the bounds it
checks from here, so ``from optimin.coop import CORE_MAX_PLAYERS`` and the
like keep working.  A module checks its own binding before it enumerates
anything and refuses with `ResourceLimitError.past`, which builds the one
message form: what was asked for, the bound, the constant and, where a
command-line flag governs the bound, that flag.
"""


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
    def past(cls, what: str, bound: int, unit: str, name: str, hint: str = "") -> "ResourceLimitError":
        """The refusal of `what`: "<what> exceeds the <bound>-<unit> bound
        (<name>)", then "; <hint>" when a flag governs the bound."""
        message = f"{what} exceeds the {bound}-{unit} bound ({name})"
        return cls(f"{message}; {hint}" if hint else message)


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

# The n-player (n >= 3) pure value table refuses games whose worst-case count
# of deviation profiles, cells · sum_i cells / m_i, passes this: each cell
# scans, per player, the product of the opponents' option sets.  With random
# payoffs `optimin_pure` takes about 0.4 s on 8^4 (8.4e6 profiles) and 1.9 s
# on 11^4 (7.8e7); a 6^6 game (2.2e9) would run for many minutes.
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
# Pareto-filters the lattice, quadratically in the points kept: with 3
# players and 4 950 points it takes about 4.3 s when all are kept (every
# worth 0 but u(N)) and 2.0 s for a convex game (pairwise synergies).
IMPUTATION_GRID_MAX_POINTS = 5_000
# Each `nucleolus` round solves a dual with n + 1 rows; an 8-player
# nucleolus takes a fraction of a second.
NUCLEOLUS_MAX_PLAYERS = 8
# `core` solves one LP with a row per coalition, 2^n - 1 of them; at 9 players
# it takes a few seconds, and every further player roughly quadruples that.
CORE_MAX_PLAYERS = 9

# -- matching (`matching`) --------------------------------------------------
# `profitable_group_deviations` lists every union of disjoint moves; at 6
# per side the all-single matching has 13 326 such groups, listed in 0.17 s.
DEVIATION_MAX_SIZE = 6
# `optimin_matchings` scores every matching and Pareto-filters the worst
# cases; 5 per side has 1 546 matchings, about 0.01 s.
OPTIMIN_MAX_SIZE = 5
# `all_matchings` builds every matching: 7 per side has 130 922 of them, about
# 1.3 s and 144 MB; 8 has 1 441 729 and 9 has 17 572 114, which exhausts memory.
MATCHINGS_MAX_SIZE = 7

# -- generators (`generators`) ----------------------------------------------
# gen_travelers refuses claim games above this many cells (500 claims a
# side); its value table holds one entry per cell.  At the bound the game is
# built in about 0.06 s and `optimin_pure` takes about 0.3 s and 40 MB.
TRAVELERS_CELL_LIMIT = 250_000
# gen_public_goods refuses games above this many cells (2 levels for 16
# players); each cell holds one payoff per player.  At the bound `gen` takes
# about 3 s and 220 MB, nearly all of it writing the file.
PUBLIC_GOODS_CELL_LIMIT = 65_536
# gen_centipede refuses games of more nodes than this.  The game has about
# (nodes / 2)^2 cells of nodes-bit payoffs; at the bound, `gen` takes about
# half a second and 80 MB.
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
