"""Exact solvers for worst-case-optimal tacit agreements.

Agreements (strategy profiles, payoff allocations, matchings, or acts) are
evaluated by each participant's worst-case payoff under the others'
profitable deviations, then Pareto-filtered.  All arithmetic is exact
rational; nothing here rounds.
"""

from .coop import (
    CoopOptimin,
    CoreResult,
    DeviationSet,
    TUGame,
    coop_value,
    core,
    dominating_coalitions,
    imputation_grid,
    matches_characterization,
    nucleolus,
    optimin_coop,
    shapley,
)
from .decisions import (
    DecisionProblem,
    DecisionValue,
    OptimismConstraint,
    decision_value,
    gilboa_reduction_check,
    optimin_acts,
)
from .errors import (
    ConstraintError,
    DomainError,
    EmptyInputError,
    FormatError,
    InvalidDistributionError,
    InvalidProfileError,
    InvalidScaleError,
    OptiminError,
    ParameterError,
    ResourceLimitError,
    UnsupportedArityError,
    UnsupportedFeatureError,
)
from .games import (
    MixedProfile,
    NormalFormGame,
    PureProfile,
    ValueVector,
    affine_transform,
    fictitious_extension,
    is_constant_sum,
)
from .generators import (
    gen_centipede,
    gen_named,
    gen_prisoners_dilemma,
    gen_public_goods,
    gen_travelers,
    sweep,
)
from .lp import Constraint, LinearProgram, LPSolution, solve_lp
from .matching import (
    MarriageProblem,
    Matching,
    all_matchings,
    deferred_acceptance,
    is_stable,
    matching_value,
    optimin_matchings,
    profitable_group_deviations,
)
from .noncoop import (
    BetterResponseSet,
    DeviationSpace,
    EvaluatedProfile,
    GridOptimin,
    PlayerMaximin,
    better_responses,
    deviation_space,
    is_maximin_equilibrium,
    maximin_profile,
    nash_pure,
    optimin_grid_2p,
    optimin_pure,
    value_mixed_2p,
    value_pure,
    value_table,
)
from .pareto import pareto_filter
from .zerosum import (
    MaximinSolution,
    StatisticalGame,
    bulmer_game,
    game_value,
    guarantee,
    maximin_lp,
    optimin_equals_maximin_check,
)

__version__ = "0.1.0"
