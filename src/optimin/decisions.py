"""Finite decision problems against Nature under an optimism constraint.

The decision maker evaluates each feasible (act, state) agreement by the
minimum utility over the states they still deem possible there; the constraint
may depend on the act, which lets confidence shrink or grow with the choice.
With an antagonistic Nature both sides are evaluated and Pareto-compared;
without a utility for Nature, ranking degenerates to the decision maker's
value alone.  Utilities are read once, by `rational.over_common_denominator`,
into int rows over one denominator, and the agreements' int values stream,
one vector per agreement, into the one Pareto kernel, `pareto.pareto_positions`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

from .errors import DECISION_MAX_CELLS, ConstraintError, DomainError, ResourceLimitError
from .pareto import pareto_positions
from .rational import over_common_denominator

ActProfile = tuple[str, str]  # (decision maker's act, Nature's state)


def check_size(num_acts: int, num_states: int, prefix: str = "") -> None:
    """Refuse a problem of more than DECISION_MAX_CELLS (act, state) cells,
    with `prefix` (a file's ``"<source>: "``) before the message."""
    cells = num_acts * num_states
    what = f"{prefix}decision problem of {num_acts} acts x {num_states} states ({cells} cells)"
    ResourceLimitError.check(cells, DECISION_MAX_CELLS, what, "cell", "DECISION_MAX_CELLS")


def _check_names(utility: Mapping, acts: set[str], states: set[str]) -> None:
    """Refuse a utility row or entry that names no act or state, at its
    argument path: ``utility['lease']: unknown act 'lease'``,
    ``utility['rent']['typo']: unknown state 'typo'``, or
    ``utility[('rent', 'typo')]: ...`` in a table keyed by (act, state)."""
    for key, row in utility.items():
        if isinstance(row, Mapping):
            act, named = key, row
        elif isinstance(key, tuple) and len(key) == 2:
            act, named = key[0], key[1:]
        else:
            act, named = key, ()
        if act not in acts:
            raise DomainError(f"utility[{key!r}]: unknown act {act!r}")
        for state in named:
            if state not in states:
                path = f"utility[{key!r}][{state!r}]" if named is row else f"utility[{key!r}]"
                raise DomainError(f"{path}: unknown state {state!r}")


def _listed(lists, keys, labels, field: str, kind: str) -> dict[str, set[str]]:
    """The map `field` from each `kind` in `keys` to its listed labels, a
    nonempty subset of `labels`; all of them by default.  A key that names
    no `kind` is refused, as ``<field>['x']: unknown <kind> 'x'``."""
    universe = set(labels)
    if lists is not None:
        for key in lists:
            if key not in keys:
                raise DomainError(f"{field}[{key!r}]: unknown {kind} {key!r}")
    listed = {}
    for key in keys:
        allowed = listed[key] = universe if lists is None else {str(x) for x in lists.get(key, ())}
        if not allowed or not allowed <= universe:
            raise DomainError(f"{field.replace('_', ' ')} for {kind} {key!r} must be a nonempty subset")
    return listed


class DecisionProblem:
    """Acts, states, and exact utilities as the ints ``_num[act][state]`` over one
    denominator ``_den``.  A pair is feasible when both feasibility maps name it,
    and an act's row holds exactly its feasible states: the one feasibility table."""

    __slots__ = ("acts", "states", "antagonist", "_num", "_den")

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
        if type(antagonist) is not bool:  # bool("no") is True: ranking would silently use Nature
            raise DomainError(f"antagonist: expected a boolean, got {antagonist!r}")
        self.acts = tuple(str(a) for a in acts)
        self.states = tuple(str(s) for s in states)
        if not self.acts or not self.states:
            raise DomainError("a decision problem needs acts and states")
        if len(set(self.acts)) != len(self.acts) or len(set(self.states)) != len(self.states):
            raise DomainError("duplicate act or state labels")

        _check_names(utility, set(self.acts), set(self.states))
        acts_at = _listed(feasible_acts, self.states, self.acts, "feasible_acts", "state")
        states_at = _listed(feasible_states, self.acts, self.states, "feasible_states", "act")
        cells = {}
        for a in self.acts:
            row = cells[a] = {}
            for s in self.states:
                if s in states_at[a] and a in acts_at[s]:
                    try:
                        row[s] = utility[a][s] if isinstance(utility.get(a), Mapping) else utility[(a, s)]
                    except KeyError:
                        raise DomainError(f"no utility for feasible pair ({a!r}, {s!r})") from None
        if not any(cells.values()):
            raise DomainError(
                "no (act, state) pair is feasible: feasible_acts and feasible_states "
                "share no pair, so the feasibility table is empty"
            )
        nums, self._den = over_common_denominator(u for row in cells.values() for u in row.values())
        nums = iter(nums)
        self._num = {a: {s: next(nums) for s in row} for a, row in cells.items()}
        self.antagonist = antagonist

    @property
    def feasible_states(self) -> dict[str, tuple[str, ...]]:
        return {a: tuple(row) for a, row in self._num.items()}

    @property
    def feasible_acts(self) -> dict[str, tuple[str, ...]]:
        return {s: tuple(self._nature_row(s)) for s in self.states}

    def _nature_row(self, state: str) -> dict[str, int]:
        """Nature's utilities (scaled by ``_den``) at `state`, keyed by its feasible acts."""
        return {a: -row[state] for a, row in self._num.items() if state in row}

    def feasible_pairs(self) -> list[ActProfile]:
        return [(a, s) for a, row in self._num.items() for s in row]

    def is_feasible(self, profile: ActProfile) -> bool:
        return profile[1] in self._num.get(profile[0], ())

    def dm_utility(self, act: str, state: str) -> Fraction:
        return Fraction(self._num[act][state], self._den)

    def nature_utility(self, act: str, state: str) -> Fraction:
        if not self.antagonist:
            raise DomainError("Nature has no utility in a non-antagonistic problem")
        return -self.dm_utility(act, state)


def _possible(
    allowed: Sequence[str] | None, partners: Mapping[str, int], profile, labels: Sequence[str], kind: str
) -> tuple[str, ...]:
    """The allowed labels among the feasible partners; all of them by
    default.  An allowed label that is none of `labels`, the problem's
    states or acts (`kind`), is refused."""
    if allowed is None:
        possible = tuple(partners)
    else:
        for label in allowed:
            if label not in labels:
                raise DomainError(f"optimism list at {profile}: unknown {kind} {label!r}")
        possible = tuple(filter(partners.__contains__, allowed))
    if not possible:
        raise ConstraintError(f"optimism constraint empty at {profile}")
    return possible


class OptimismConstraint:
    """Per-profile subsets: states the decision maker deems possible, and
    (symmetrically) acts Nature deems possible.  Keys are (act, state)
    pairs; the solvers refuse a key that names no act or state."""

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
        pairs = problem.feasible_pairs()
        return cls(dict.fromkeys(pairs, states), dict.fromkeys(pairs, acts))

    def states_for(self, problem: DecisionProblem, profile: ActProfile) -> tuple[str, ...]:
        return _possible(self.dm_states.get(profile), problem._num[profile[0]], profile, problem.states, "state")

    def acts_for(self, problem: DecisionProblem, profile: ActProfile) -> tuple[str, ...]:
        row = problem._nature_row(profile[1])
        return _possible(self.nature_acts.get(profile), row, profile, problem.acts, "act")


class DecisionValue(NamedTuple):
    dm: Fraction
    nature: Fraction | None  # None when Nature has no utility


def _minima(
    allowed_at: Mapping, rows: Mapping[str, Mapping[str, int]], profiles: list, side: int, labels: Sequence[str]
):
    """Per profile, the minimum of its own side's row over the possible partners:
    the allowed labels (``allowed_at``, all by default, each one of `labels`)
    among the feasible ones.
    Each set and its minimum are taken once per distinct (own label, allowed
    list), in profile order, so the first empty set raises at its own profile.
    Also returns the distinct possible sets."""
    seen: dict = {}
    lows = []
    for profile in profiles:
        label = profile[side]
        allowed = allowed_at.get(profile)
        hit = seen.get((label, allowed))
        if hit is None:
            row = rows[label]
            possible = _possible(allowed, row, profile, labels, "act" if side else "state")
            hit = seen[label, allowed] = possible, min(map(row.__getitem__, possible))
        lows.append(hit[1])
    return lows, [possible for possible, _ in seen.values()]


def _evaluate(problem: DecisionProblem, oc: OptimismConstraint, profiles: list):
    """The distinct sets of states the decision maker deems possible over the
    feasible agreements, and both sides' values at each agreement as ints over
    ``_den`` (Nature's None without a utility).  First every key of both maps
    must name an act and a state, act first, or it is refused as
    ``dm_states[('buy', 'fird')]: unknown state 'fird'``; then the decision
    maker's sets are all checked before Nature's."""
    states = set(problem.states)
    for field, lists in (("dm_states", oc.dm_states), ("nature_acts", oc.nature_acts)):
        for key in lists:
            if not (isinstance(key, tuple) and len(key) == 2):
                raise DomainError(f"{field}[{key!r}]: expected an (act, state) pair")
            if key[0] not in problem._num:
                raise DomainError(f"{field}[{key!r}]: unknown act {key[0]!r}")
            if key[1] not in states:
                raise DomainError(f"{field}[{key!r}]: unknown state {key[1]!r}")
    dm, possible = _minima(oc.dm_states, problem._num, profiles, 0, problem.states)
    if not problem.antagonist:
        return possible, dm, None
    rows = {s: problem._nature_row(s) for s in dict.fromkeys(s for _, s in profiles)}
    return possible, dm, _minima(oc.nature_acts, rows, profiles, 1, problem.acts)[0]


def decision_value(
    problem: DecisionProblem, oc: OptimismConstraint, profile: ActProfile
) -> DecisionValue:
    """Minimum utility over the opponent's possible choices at this agreement."""
    profile = (str(profile[0]), str(profile[1]))
    if not problem.is_feasible(profile):
        raise DomainError(f"profile {profile} is not feasible")
    _, (dm,), nature = _evaluate(problem, oc, [profile])
    den = problem._den
    return DecisionValue(Fraction(dm, den), None if nature is None else Fraction(nature[0], den))


class DecisionOptimin(NamedTuple):
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
    _, dm, nature = _evaluate(problem, oc, profiles)
    return _optimin(problem, profiles, dm, nature)


def _optimin(problem: DecisionProblem, profiles, dm, nature) -> DecisionOptimin:
    # Values come from _evaluate; the Pareto front of dm alone keeps its maximizers.
    kept = pareto_positions(zip(dm) if nature is None else zip(dm, nature))
    den = problem._den
    return DecisionOptimin(
        "dm-only" if nature is None else "pareto",
        tuple(profiles[i] for i in kept),
        tuple(
            DecisionValue(Fraction(dm[i], den), None if nature is None else Fraction(nature[i], den))
            for i in kept
        ),
    )


class ReductionCheck(NamedTuple):
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
    possible, dm, nature = _evaluate(problem, oc, profiles)
    state_sets = set(map(frozenset, possible))
    constant = len(state_sets) == 1
    notes = ["finite possible-state sets: convexity/closedness vacuous, skipped"]

    if nature is not None:
        # The Pareto order on (dm, nature) agrees with the order on dm alone
        # exactly when equal dm values share one nature value and nature never
        # falls as dm rises, and in (dm, nature) order neighbouring pairs show both.
        pairs = sorted(zip(dm, nature))
        dm_only = all(
            b[1] == a[1] or (a[0] < b[0] and a[1] < b[1]) for a, b in zip(pairs, pairs[1:])
        )
    else:
        dm_only = True
        notes.append("Nature has no utility; ranking is by the decision maker alone")

    hypotheses = constant and dm_only
    verified: bool | None = None
    if hypotheses:
        (states,) = state_sets  # each act's row holds all of them: they are feasible
        security = {a: min(map(row.__getitem__, states)) for a, row in problem._num.items() if row}
        best = max(security.values())
        maximin_acts = {a for a, g in security.items() if g == best}
        verified = set(_optimin(problem, profiles, dm, nature).acts) == maximin_acts
    return ReductionCheck(constant, dm_only, hypotheses, verified, tuple(notes))
