"""Finite decision problems against Nature under an optimism constraint.

The decision maker evaluates each feasible (act, state) agreement by the
minimum utility over the states they still deem possible there; the constraint
may depend on the act, which lets confidence shrink or grow with the choice.
With an antagonistic Nature both sides are evaluated and Pareto-compared;
without a utility for Nature, ranking degenerates to the decision maker's
value alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import ConstraintError, DomainError, ResourceLimitError
from .pareto import pareto_filter
from .rational import to_fraction

ActProfile = tuple[str, str]  # (decision maker's act, Nature's state)

# DecisionProblem refuses more than this many (act, state) cells, |A|·|S|:
# optimin_acts scans O(|A|·|S|·(|A|+|S|)) labels.
DECISION_MAX_CELLS = 4096


def check_size(num_acts: int, num_states: int) -> None:
    """Refuse a problem of more than DECISION_MAX_CELLS (act, state) cells."""
    if num_acts * num_states > DECISION_MAX_CELLS:
        raise ResourceLimitError(
            f"decision problem of {num_acts} acts x {num_states} states "
            f"({num_acts * num_states} cells) exceeds the {DECISION_MAX_CELLS}-cell "
            "bound (DECISION_MAX_CELLS)"
        )


class DecisionProblem:
    """Acts, states, mutual feasibility maps, and exact utilities on feasible pairs."""

    __slots__ = ("acts", "states", "feasible_acts", "feasible_states", "utility", "antagonist")

    def __init__(
        self,
        acts: Sequence[str],
        states: Sequence[str],
        utility: Mapping,
        feasible_acts: Mapping[str, Sequence[str]] | None = None,
        feasible_states: Mapping[str, Sequence[str]] | None = None,
        antagonist: bool = False,
    ) -> None:
        check_size(len(acts), len(states))
        self.acts = tuple(str(a) for a in acts)
        self.states = tuple(str(s) for s in states)
        if not self.acts or not self.states:
            raise DomainError("a decision problem needs acts and states")
        if len(set(self.acts)) != len(self.acts) or len(set(self.states)) != len(self.states):
            raise DomainError("duplicate act or state labels")

        if feasible_acts is None:
            feasible_acts = {s: self.acts for s in self.states}
        if feasible_states is None:
            feasible_states = {a: self.states for a in self.acts}
        self.feasible_acts = {}
        for s in self.states:
            allowed = tuple(str(a) for a in feasible_acts.get(s, ()))
            if not allowed or not set(allowed) <= set(self.acts):
                raise DomainError(f"feasible acts for state {s!r} must be a nonempty subset")
            self.feasible_acts[s] = allowed
        self.feasible_states = {}
        for a in self.acts:
            allowed = tuple(str(s) for s in feasible_states.get(a, ()))
            if not allowed or not set(allowed) <= set(self.states):
                raise DomainError(f"feasible states for act {a!r} must be a nonempty subset")
            self.feasible_states[a] = allowed

        self.utility = {}
        for (a, s) in self.feasible_pairs():
            try:
                self.utility[(a, s)] = to_fraction(utility[a][s] if isinstance(utility.get(a), Mapping) else utility[(a, s)])
            except KeyError:
                raise DomainError(f"no utility for feasible pair ({a!r}, {s!r})") from None
        self.antagonist = bool(antagonist)

    def feasible_pairs(self) -> list[ActProfile]:
        return [
            (a, s)
            for a in self.acts
            for s in self.states
            if s in self.feasible_states[a] and a in self.feasible_acts[s]
        ]

    def is_feasible(self, profile: ActProfile) -> bool:
        a, s = profile
        return (
            a in self.acts
            and s in self.states
            and s in self.feasible_states[a]
            and a in self.feasible_acts[s]
        )

    def dm_utility(self, act: str, state: str) -> Fraction:
        return self.utility[(act, state)]

    def nature_utility(self, act: str, state: str) -> Fraction:
        if not self.antagonist:
            raise DomainError("Nature has no utility in a non-antagonistic problem")
        return -self.utility[(act, state)]


class OptimismConstraint:
    """Per-profile subsets: states the decision maker deems possible, and
    (symmetrically) acts Nature deems possible."""

    __slots__ = ("dm_states", "nature_acts")

    def __init__(
        self,
        dm_states: Mapping[ActProfile, Sequence[str]],
        nature_acts: Mapping[ActProfile, Sequence[str]] | None = None,
    ) -> None:
        self.dm_states = {k: tuple(v) for k, v in dm_states.items()}
        self.nature_acts = (
            {k: tuple(v) for k, v in nature_acts.items()} if nature_acts else {}
        )

    @classmethod
    def constant(
        cls,
        problem: DecisionProblem,
        states: Sequence[str] | None = None,
        acts: Sequence[str] | None = None,
    ) -> "OptimismConstraint":
        states = tuple(states) if states is not None else problem.states
        acts = tuple(acts) if acts is not None else problem.acts
        dm = {p: states for p in problem.feasible_pairs()}
        nat = {p: acts for p in problem.feasible_pairs()}
        return cls(dm, nat)

    def states_for(self, problem: DecisionProblem, profile: ActProfile) -> tuple[str, ...]:
        act = profile[0]
        allowed = self.dm_states.get(profile)
        if allowed is None:
            allowed = problem.feasible_states[act]
        feasible = set(problem.feasible_states[act])
        possible = tuple(s for s in allowed if s in feasible)
        if not possible:
            raise ConstraintError(f"optimism constraint empty at {profile}")
        return possible

    def acts_for(self, problem: DecisionProblem, profile: ActProfile) -> tuple[str, ...]:
        state = profile[1]
        allowed = self.nature_acts.get(profile)
        if allowed is None:
            allowed = problem.feasible_acts[state]
        feasible = set(problem.feasible_acts[state])
        possible = tuple(a for a in allowed if a in feasible)
        if not possible:
            raise ConstraintError(f"optimism constraint empty at {profile}")
        return possible


@dataclass(frozen=True)
class DecisionValue:
    dm: Fraction
    nature: Fraction | None  # None when Nature has no utility


def decision_value(
    problem: DecisionProblem, oc: OptimismConstraint, profile: ActProfile
) -> DecisionValue:
    """Minimum utility over the opponent's possible choices at this agreement."""
    profile = (str(profile[0]), str(profile[1]))
    if not problem.is_feasible(profile):
        raise DomainError(f"profile {profile} is not feasible")
    act = profile[0]
    dm_value = min(problem.dm_utility(act, s) for s in oc.states_for(problem, profile))
    nature_value = None
    if problem.antagonist:
        state = profile[1]
        nature_value = min(
            problem.nature_utility(a, state) for a in oc.acts_for(problem, profile)
        )
    return DecisionValue(dm_value, nature_value)


@dataclass(frozen=True)
class DecisionOptimin:
    ranking: str  # "pareto" (antagonist) or "dm-only"
    profiles: tuple[ActProfile, ...]
    values: tuple[DecisionValue, ...]

    @property
    def acts(self) -> tuple[str, ...]:
        return tuple(sorted({a for a, _ in self.profiles}))


def optimin_acts(problem: DecisionProblem, oc: OptimismConstraint) -> DecisionOptimin:
    """Pareto-optimal feasible agreements; DM-value ranking when Nature has none.

    Without a genuine utility for Nature a two-coordinate Pareto comparison is
    ill-posed, so the result is the set of agreements maximizing the decision
    maker's value, and `ranking` says so.
    """
    profiles = problem.feasible_pairs()
    values = [decision_value(problem, oc, p) for p in profiles]
    if problem.antagonist:
        entries = list(zip(profiles, values))
        kept = pareto_filter(entries, key=lambda e: (e[1].dm, e[1].nature))
        kept_profiles = tuple(p for p, _ in kept)
        kept_values = tuple(v for _, v in kept)
        return DecisionOptimin("pareto", kept_profiles, kept_values)
    best = max(v.dm for v in values)
    kept_pairs = [(p, v) for p, v in zip(profiles, values) if v.dm == best]
    return DecisionOptimin(
        "dm-only",
        tuple(p for p, _ in kept_pairs),
        tuple(v for _, v in kept_pairs),
    )


@dataclass(frozen=True)
class ReductionCheck:
    """Outcome of testing the maxmin-expected-utility reduction hypotheses."""

    constant_constraint: bool      # same possible-state set at every profile
    dm_only_comparison: bool       # Pareto comparison collapses to the DM value
    hypotheses_hold: bool
    verified: bool | None          # None when hypotheses fail; no assertion made
    notes: tuple[str, ...]


def gilboa_reduction_check(problem: DecisionProblem, oc: OptimismConstraint) -> ReductionCheck:
    """When the constraint is act-independent and ranking is DM-only, the
    solution must be exactly the acts maximizing min-over-possible-states utility."""
    profiles = problem.feasible_pairs()
    state_sets = [tuple(oc.states_for(problem, p)) for p in profiles]
    constant = len(set(state_sets)) == 1
    notes = ["finite possible-state sets: convexity/closedness vacuous, skipped"]

    if problem.antagonist:
        # The Pareto order on (dm, nature) agrees with the order on dm alone
        # exactly when equal dm values share one nature value and nature never
        # falls as dm rises, and in (dm, nature) order neighbouring pairs show both.
        pairs = sorted((v.dm, v.nature) for v in (decision_value(problem, oc, p) for p in profiles))
        dm_only = all(
            b[1] == a[1] or (a[0] < b[0] and a[1] < b[1]) for a, b in zip(pairs, pairs[1:])
        )
    else:
        dm_only = True
        notes.append("Nature has no utility; ranking is by the decision maker alone")

    hypotheses = constant and dm_only
    verified: bool | None = None
    if hypotheses:
        possible = state_sets[0]
        security = {
            a: min(problem.dm_utility(a, s) for s in possible if s in problem.feasible_states[a])
            for a in {p[0] for p in profiles}
        }
        best = max(security.values())
        maximin_acts = {a for a, g in security.items() if g == best}
        verified = set(optimin_acts(problem, oc).acts) == maximin_acts
    return ReductionCheck(constant, dm_only, hypotheses, verified, tuple(notes))

