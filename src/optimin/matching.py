"""Two-sided one-to-one matching with strict preferences.

Each individual ranks the whole opposite side plus staying single.  Worst-case
evaluation of a matching asks what an individual keeps once any group that can
profitably re-match internally does so: deviators take their new partners, an
abandoned partner becomes single.  Matchings whose worst-case outcomes are
Pareto optimal (each individual comparing by their own list) form the
solution set.

Each deviator's gain depends only on their own new partner, so every
profitable group is a union of disjoint moves of one person (leaving a partner
to be single) or two (a blocking pair).  `_moves` is the one definition of
those moves; stability, worst-case values and group deviations all read it.
"""

from __future__ import annotations

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
    """Individual rationality plus no blocking pair; the first move is reported."""
    move = next(_moves(problem, matching), None)
    if move is None:
        return StabilityReport(True)
    if len(move) == 1:
        return StabilityReport(False, blocking_individual=move[0])
    return StabilityReport(False, blocking_pair=move)


def _moves(problem: MarriageProblem, matching: Matching) -> Iterator[tuple[str, ...]]:
    """Every profitable move of one or two individuals, the module's one
    definition of a deviation.

    First `(p,)` for each p who prefers being single to their partner, in
    `everyone()` order; then `(a, b)` for each blocking pair, a from side A
    and b from side B in side order: each prefers the other to their partner
    (so they are not partners).
    """
    rank, pairs = problem._rank, matching.pairs
    for p in problem.everyone():
        if rank[p][p] < rank[p][pairs[p]]:
            yield (p,)
    for a in problem.side_a:
        rank_a, held_a = rank[a], rank[a][pairs[a]]
        for b in problem.side_b:
            if rank_a[b] < held_a and rank[b][a] < rank[b][pairs[b]]:
                yield (a, b)


@dataclass(frozen=True)
class GroupDeviation:
    group: tuple[str, ...]
    rematching: tuple[tuple[str, str], ...]  # person -> new partner (self if single)


def profitable_group_deviations(
    problem: MarriageProblem, matching: Matching
) -> list[GroupDeviation]:
    """Every group that can re-match internally so all members strictly improve.

    Each member's gain depends only on their own new partner, who is either
    themselves or a member who gains too, so the profitable groups are exactly
    the unions of nonempty sets of pairwise-disjoint moves (`_moves`).
    """
    if problem.size > DEVIATION_MAX_SIZE:
        raise ResourceLimitError(
            f"group enumeration of {problem.size} per side exceeds the "
            f"{DEVIATION_MAX_SIZE}-per-side bound (DEVIATION_MAX_SIZE)"
        )
    # Each move as its rematching: {p: p} for one person, {a: b, b: a} for a pair.
    moves = [dict(zip(move, reversed(move))) for move in _moves(problem, matching)]
    out: list[GroupDeviation] = []

    def extend(start: int, taken: dict[str, str]) -> None:
        for i in range(start, len(moves)):
            if taken.keys().isdisjoint(moves[i]):
                joined = {**taken, **moves[i]}
                out.append(GroupDeviation(tuple(sorted(joined)), tuple(sorted(joined.items()))))
                extend(i + 1, joined)

    extend(0, {})
    out.sort(key=lambda d: (len(d.group), d.group, d.rematching))
    return out


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
    group claims that partner.  Every such group is a union of disjoint moves
    (see `profitable_group_deviations`), so one exists exactly when the partner
    makes some move of their own, alone or with a third party; the individual
    is never in it, since partners do not block each other.
    """
    return MatchOutcomeValue(tuple(zip(problem.everyone(), _worst(problem, matching))))


def _worst(problem: MarriageProblem, matching: Matching) -> list[str]:
    """`matching_value`'s outcomes, in `everyone()` order."""
    rank, pairs = problem._rank, matching.pairs
    movers = {p for move in _moves(problem, matching) for p in move}
    return [
        p if pairs[p] in movers and rank[p][pairs[p]] < rank[p][p] else pairs[p]
        for p in problem.everyone()
    ]


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
    rank = problem._rank
    entries = []
    for m in all_matchings(problem):
        # Negated ranks so "greater coordinate" means "more preferred".
        vector = tuple(-rank[p][w] for p, w in zip(everyone, _worst(problem, m)))
        entries.append((m, vector))
    kept = pareto_filter(entries, key=lambda e: e[1])
    return [m for m, _ in kept]
