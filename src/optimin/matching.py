"""Two-sided one-to-one matching with strict preferences.

Each individual ranks the whole opposite side plus staying single.  Worst-case
evaluation of a matching asks what an individual keeps once any group that can
profitably re-match internally does so: deviators take their new partners, an
abandoned partner becomes single.  Matchings whose worst-case outcomes are
Pareto optimal (each individual comparing by their own list) form the
solution set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from .errors import DomainError, ResourceLimitError
from .pareto import pareto_filter

DEVIATION_MAX_SIZE = 6
OPTIMIN_MAX_SIZE = 5


class MarriageProblem:
    """Two equal-size sides; every preference list is a strict ranking of the
    other side plus self (entries after self are unacceptable)."""

    __slots__ = ("side_a", "side_b", "prefs", "_rank")

    def __init__(
        self,
        side_a: Sequence[str],
        side_b: Sequence[str],
        prefs: Mapping[str, Sequence[str]],
    ) -> None:
        self.side_a = tuple(str(x) for x in side_a)
        self.side_b = tuple(str(x) for x in side_b)
        if len(set(self.side_a)) != len(self.side_a) or len(set(self.side_b)) != len(self.side_b):
            raise DomainError("duplicate labels within a side")
        if set(self.side_a) & set(self.side_b):
            raise DomainError("the two sides must be disjoint")
        if len(self.side_a) != len(self.side_b):
            raise DomainError(
                f"sides must have equal size, got {len(self.side_a)} and {len(self.side_b)}"
            )
        self.prefs = {}
        for person in self.side_a + self.side_b:
            if person not in prefs:
                raise DomainError(f"no preference list for {person!r}")
            ranking = tuple(str(x) for x in prefs[person])
            other = self.side_b if person in self.side_a else self.side_a
            if sorted(ranking) != sorted(other + (person,)):
                raise DomainError(
                    f"{person!r} must rank the whole other side plus themselves once"
                )
            self.prefs[person] = ranking
        self._rank = {
            person: {c: k for k, c in enumerate(ranking)}
            for person, ranking in self.prefs.items()
        }

    @property
    def size(self) -> int:
        return len(self.side_a)

    def everyone(self) -> tuple[str, ...]:
        return self.side_a + self.side_b

    def rank(self, person: str, candidate: str) -> int:
        return self._rank[person][candidate]

    def prefers(self, person: str, first: str, second: str) -> bool:
        """Strictly prefers `first` to `second`."""
        return self._rank[person][first] < self._rank[person][second]

    def acceptable(self, person: str, candidate: str) -> bool:
        return self._rank[person][candidate] < self._rank[person][person]


class Matching:
    """A pairing function: everyone maps to a partner on the other side or self."""

    __slots__ = ("problem", "pairs")

    def __init__(self, problem: MarriageProblem, pairs: Mapping[str, str]) -> None:
        self.problem = problem
        full = {}
        for person in problem.everyone():
            full[person] = pairs.get(person, person)
        for extra in set(pairs) - set(full):
            raise DomainError(f"unknown individual {extra!r} in matching")
        a_set, b_set = set(problem.side_a), set(problem.side_b)
        for a in problem.side_a:
            if full[a] != a and full[a] not in b_set:
                raise DomainError(f"{a!r} must be matched within the other side or single")
        for b in problem.side_b:
            if full[b] != b and full[b] not in a_set:
                raise DomainError(f"{b!r} must be matched within the other side or single")
        for person, partner in full.items():
            if partner != person and full[partner] != person:
                raise DomainError(f"matching is not mutual at {person!r}")
        self.pairs = full

    def partner(self, person: str) -> str:
        return self.pairs[person]

    def is_single(self, person: str) -> bool:
        return self.pairs[person] == person

    def matched_pairs(self) -> list[tuple[str, str]]:
        return [
            (a, self.pairs[a]) for a in self.problem.side_a if self.pairs[a] != a
        ]

    def key(self) -> tuple[tuple[str, str], ...]:
        return tuple(sorted(self.pairs.items()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matching):
            return NotImplemented
        return self.problem is other.problem and self.pairs == other.pairs

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        inside = ", ".join(f"{a}-{b}" for a, b in self.matched_pairs())
        return f"Matching({inside or 'all single'})"


def deferred_acceptance(problem: MarriageProblem, proposing: str = "A") -> Matching:
    """Proposer-optimal stable matching; unacceptable partners never match."""
    if proposing not in ("A", "B"):
        raise DomainError(f"proposing side must be 'A' or 'B', got {proposing!r}")
    proposers = problem.side_a if proposing == "A" else problem.side_b
    next_choice = {p: 0 for p in proposers}
    held: dict[str, str] = {}  # receiver -> proposer currently held
    free = list(proposers)
    while free:
        p = free.pop(0)
        ranking = problem.prefs[p]
        while next_choice[p] < len(ranking):
            candidate = ranking[next_choice[p]]
            next_choice[p] += 1
            if candidate == p:
                break  # would rather stay single than continue down the list
            if not problem.acceptable(candidate, p):
                continue
            current = held.get(candidate)
            if current is None:
                held[candidate] = p
                break
            if problem.prefers(candidate, p, current):
                held[candidate] = p
                free.append(current)
                break
    pairs = {}
    for receiver, proposer in held.items():
        pairs[proposer] = receiver
        pairs[receiver] = proposer
    return Matching(problem, pairs)


@dataclass(frozen=True)
class StabilityReport:
    stable: bool
    blocking_individual: str | None = None
    blocking_pair: tuple[str, str] | None = None

    def __bool__(self) -> bool:
        return self.stable


def is_stable(problem: MarriageProblem, matching: Matching) -> StabilityReport:
    """Individual rationality plus no blocking pair; first violation reported."""
    for person in problem.everyone():
        partner = matching.partner(person)
        if partner != person and problem.prefers(person, person, partner):
            return StabilityReport(False, blocking_individual=person)
    for a in problem.side_a:
        for b in problem.side_b:
            if matching.partner(a) == b:
                continue
            if problem.prefers(a, b, matching.partner(a)) and problem.prefers(
                b, a, matching.partner(b)
            ):
                return StabilityReport(False, blocking_pair=(a, b))
    return StabilityReport(True)


@dataclass(frozen=True)
class GroupDeviation:
    group: tuple[str, ...]
    rematching: tuple[tuple[str, str], ...]  # person -> new partner (self if single)


def profitable_group_deviations(
    problem: MarriageProblem, matching: Matching
) -> list[GroupDeviation]:
    """Every group that can re-match internally so all members strictly improve."""
    if problem.size > DEVIATION_MAX_SIZE:
        raise ResourceLimitError(
            f"group enumeration of {problem.size} per side exceeds the "
            f"{DEVIATION_MAX_SIZE}-per-side bound (DEVIATION_MAX_SIZE)"
        )
    # Only individuals with someone (or self) strictly above their current
    # partner can ever join a deviating group.
    improvable = [
        p
        for p in problem.everyone()
        if problem.rank(p, matching.partner(p)) > 0
    ]
    out: list[GroupDeviation] = []
    for r in range(1, len(improvable) + 1):
        for group in itertools.combinations(improvable, r):
            members = set(group)
            ga = [p for p in group if p in set(problem.side_a)]
            gb = [p for p in group if p in set(problem.side_b)]
            for assignment in _improving_assignments(problem, matching, ga, gb, members):
                out.append(
                    GroupDeviation(tuple(sorted(group)), tuple(sorted(assignment.items())))
                )
    out.sort(key=lambda d: (len(d.group), d.group, d.rematching))
    return out


def _improving_assignments(problem, matching, ga, gb, members) -> Iterator[dict[str, str]]:
    """Internal matchings of the group where every member strictly improves."""

    def improves(person: str, new: str) -> bool:
        return problem.prefers(person, new, matching.partner(person))

    def rec(idx: int, used: set[str], acc: dict[str, str]) -> Iterator[dict[str, str]]:
        if idx == len(ga):
            leftovers = [b for b in gb if b not in used]
            if all(improves(b, b) for b in leftovers):
                final = dict(acc)
                for b in leftovers:
                    final[b] = b
                yield final
            return
        a = ga[idx]
        if improves(a, a):
            yield from rec(idx + 1, used, {**acc, a: a})
        for b in gb:
            if b in used:
                continue
            if improves(a, b) and improves(b, a):
                yield from rec(idx + 1, used | {b}, {**acc, a: b, b: a})

    yield from rec(0, set(), {})


@dataclass(frozen=True)
class MatchOutcomeValue:
    """Per individual, the worst partner (or self) they may end up with."""

    worst: tuple[tuple[str, str], ...]

    def of(self, person: str) -> str:
        return dict(self.worst)[person]


def matching_value(problem: MarriageProblem, matching: Matching) -> MatchOutcomeValue:
    """Worst outcome per individual over the matching and all profitable deviations.

    A deviation an individual joins only improves their outcome, so the worst
    case is either the assigned partner or becoming single when some deviating
    group claims that partner.  A group containing the partner but not the
    individual exists exactly when the partner forms a blocking pair with a
    third party or prefers being single, which keeps this check quadratic.
    """
    worst = []
    for person in problem.everyone():
        partner = matching.partner(person)
        outcome = partner
        if partner != person and problem.prefers(person, partner, person):
            if _partner_strippable(problem, matching, person):
                outcome = person
        worst.append((person, outcome))
    return MatchOutcomeValue(tuple(worst))


def _partner_strippable(problem: MarriageProblem, matching: Matching, person: str) -> bool:
    partner = matching.partner(person)
    if problem.prefers(partner, partner, person):
        return True  # partner walks away alone
    others = problem.side_a if partner in problem.side_b else problem.side_b
    for third in others:
        if third == person:
            continue
        if problem.prefers(partner, third, person) and problem.prefers(
            third, partner, matching.partner(third)
        ):
            return True
    return False


def all_matchings(problem: MarriageProblem) -> list[Matching]:
    """Every matching, in a canonical deterministic order."""
    out: list[Matching] = []

    def rec(idx: int, used: set[str], acc: dict[str, str]) -> None:
        if idx == problem.size:
            out.append(Matching(problem, dict(acc)))
            return
        a = problem.side_a[idx]
        rec(idx + 1, used, acc)  # a stays single
        for b in problem.side_b:
            if b not in used:
                acc[a], acc[b] = b, a
                rec(idx + 1, used | {b}, acc)
                del acc[a], acc[b]

    rec(0, set(), {})
    out.sort(key=lambda m: m.key())
    return out


def optimin_matchings(problem: MarriageProblem) -> list[Matching]:
    """Matchings whose worst-case outcome vectors are Pareto optimal.

    Comparison is ordinal: coordinate i improves when individual i's worst
    outcome moves up their own preference list.  The set is never empty.
    """
    if problem.size > OPTIMIN_MAX_SIZE:
        raise ResourceLimitError(
            f"matching enumeration of {problem.size} per side exceeds the "
            f"{OPTIMIN_MAX_SIZE}-per-side bound (OPTIMIN_MAX_SIZE)"
        )
    everyone = problem.everyone()
    candidates = all_matchings(problem)
    entries = []
    for m in candidates:
        value = matching_value(problem, m)
        lookup = dict(value.worst)
        # Negated ranks so "greater coordinate" means "more preferred".
        vector = tuple(-problem.rank(p, lookup[p]) for p in everyone)
        entries.append((m, vector))
    kept = pareto_filter(entries, key=lambda e: e[1])
    return [m for m, _ in kept]
