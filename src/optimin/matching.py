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

`all_matchings` and `optimin_matchings` share one enumerator, `_candidates`,
which works on person indices rather than labels.  It restates `_moves` with
int bitmasks, one bit per cross-side pair: each person's held rank selects
the pairs they would join, and blocking pairs are where both sides' masks
meet.  It returns two parallel lists in enumeration order, one int `order`
per matching, which encodes the partners and sorts like `Matching.key()`,
and one worst-case vector.  `optimin_matchings` hands the vectors straight
to `pareto_positions`, then sorts and decodes only the survivors' orders;
`all_matchings` sorts and decodes every order.  A test checks the worst
cases against `matching_value` on every matching.  `Matching` objects are
built only for the matchings returned, and without the constructor's
checks, which a matching the enumerator built always passes.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import DEVIATION_MAX_SIZE, MATCHINGS_MAX_SIZE, OPTIMIN_MAX_SIZE
from .errors import DomainError, ResourceLimitError
from .pareto import pareto_positions


class MarriageProblem:
    """Two equal-size sides; every preference list is a strict ranking of the
    other side plus self (entries after self are unacceptable).  A list for
    someone on neither side is refused as ``prefs: unknown individual 'c'``,
    after every side and ranking check."""

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
        if len(prefs) > len(self.prefs):
            stranger = next(person for person in prefs if person not in self.prefs)
            raise DomainError(f"prefs: unknown individual {stranger!r}")
        self._rank = {
            person: {c: k for k, c in enumerate(ranking)}
            for person, ranking in self.prefs.items()
        }

    def __repr__(self) -> str:
        return f"MarriageProblem({self.side_a!r}, {self.side_b!r}, {self.prefs!r})"

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
        for person in pairs:  # in the order given, so the refusal names the first stranger
            if person not in full:
                raise DomainError(f"unknown individual {person!r} in matching")
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

    @classmethod
    def _trusted(cls, problem: MarriageProblem, pairs: dict[str, str]) -> Matching:
        """A matching from a partner map already known valid: everyone in
        `everyone()` order, mutual pairs across the sides.  It is kept
        as given and not checked again."""
        matching = cls.__new__(cls)
        matching.problem, matching.pairs = problem, pairs
        return matching

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


class StabilityReport(NamedTuple):
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


class GroupDeviation(NamedTuple):
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
    what = f"group enumeration of {problem.size} per side"
    ResourceLimitError.check(problem.size, DEVIATION_MAX_SIZE, what, "per-side", "DEVIATION_MAX_SIZE")
    # Each move, as its rematching ({p: p} for one person, {a: b, b: a} for a
    # pair), joins every group so far that it does not overlap.
    groups: list[dict[str, str]] = [{}]
    for people in _moves(problem, matching):
        move = dict(zip(people, reversed(people)))
        groups += [{**group, **move} for group in groups if group.keys().isdisjoint(move)]
    out = [GroupDeviation(tuple(sorted(group)), tuple(sorted(group.items()))) for group in groups[1:]]
    out.sort(key=lambda d: (len(d.group), d.group, d.rematching))
    return out


class MatchOutcomeValue(NamedTuple):
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
    rank, pairs = problem._rank, matching.pairs
    movers = {p for move in _moves(problem, matching) for p in move}
    return MatchOutcomeValue(tuple(
        (p, p if pairs[p] in movers and rank[p][pairs[p]] < rank[p][p] else pairs[p])
        for p in problem.everyone()
    ))


def _candidates(problem: MarriageProblem) -> tuple[list[int], list[tuple[int, ...]]]:
    """Every matching's `order` and worst-case `values`, as two parallel lists
    in enumeration order.

    People are indices in `everyone()` order, side A first.  `order` holds
    each person's partner (themselves when single) as one base-2^w digit,
    w the bit length of 2n - 1: the partner's position in label order, most
    significant digit for the first label, so orders sort like
    `Matching.key()` and `_decoded` reads them back with shifts and masks.
    Entry p of a value vector is minus the rank of p's `matching_value`
    outcome.

    This is `_moves` in bitmask form.  Bit a*n + b is the pair of the a-th
    member of side A and the b-th of side B.  Each person's rank of their
    partner selects the mask of pairs they would join; `x` sums side A's
    masks, `y` side B's, so `x & y` is the set of blocking pairs.  A partner
    who would rather be single always moves, so only the outcomes of mutually
    acceptable pairs wait for the blocking set.  Side A is matched in order
    and the last member's options each complete a matching in the loop, so
    the recursion stops one level above the leaves.
    """
    n, people = problem.size, problem.everyone()
    if n == 0:
        return [0], [()]  # the empty matching
    rank = [[problem._rank[p].get(q) for q in people] for p in people]  # None within a side
    own = [-rank[p][p] for p in range(2 * n)]
    other = (range(n, 2 * n), range(n))  # indexed by p >= n
    bits = [{q: 1 << (min(p, q) * n + max(p, q) - n) for q in other[p >= n]} for p in range(2 * n)]
    every_pair = [sum(bits[p].values()) for p in range(2 * n)]
    # joins[p][r]: the pairs p would join while holding a partner of rank r.
    joins = [
        [sum(bit for q, bit in bits[p].items() if rank[p][q] < r) for r in range(n + 1)]
        for p in range(2 * n)
    ]
    pos = list(map(sorted(people).index, people))  # label order
    width = (2 * n - 1).bit_length()
    digit = [1 << width * (2 * n - 1 - k) for k in pos]
    # join[a]: a's options, each (the pairs side A and side B would join
    # besides, the change of `order`, a's and the partner's values, the
    # outcomes to settle once the blocking set is known, the partner, the
    # partner's bit in `free`).  The first is staying single.
    join = [[(0, 0, 0, own[a], own[a], (), a, 0)] for a in range(n)]
    for a in range(n):
        for q in range(n, 2 * n):
            takes_a, takes_b = rank[a][q] < rank[a][a], rank[q][a] < rank[q][q]
            join[a].append((
                joins[a][rank[a][q]] - joins[a][rank[a][a]],
                joins[q][rank[q][a]] - joins[q][rank[q][q]],
                (pos[q] - pos[a]) * digit[a] + (pos[a] - pos[q]) * digit[q],
                own[a] if takes_a and not takes_b else -rank[a][q],
                own[q] if takes_b and not takes_a else -rank[q][a],
                ((every_pair[a], every_pair[q], a, q),) if takes_a and takes_b else (),
                q, 1 << q - n,
            ))
    values, orders, out = own.copy(), [], []

    def extend(a: int, x: int, y: int, order: int, free: int, waiting: tuple) -> None:
        for dx, dy, do, value_a, value_b, check, q, taken in join[a]:
            if free & taken != taken:  # the partner is taken
                continue
            if a < n - 1:
                values[a], values[q] = value_a, value_b
                extend(a + 1, x + dx, y + dy, order + do, free ^ taken, waiting + check)
                values[a], values[q] = own[a], own[q]
            else:  # side A's last member: a complete matching
                blocking, final = (x + dx) & (y + dy), values.copy()
                final[a], final[q] = value_a, value_b
                for pairs_a, pairs_b, p, r in waiting + check:
                    if blocking & pairs_a:
                        final[r] = own[r]
                    if blocking & pairs_b:
                        final[p] = own[p]
                orders.append(order + do)
                out.append(tuple(final))

    x, y = (sum(joins[p][rank[p][p]] for p in side) for side in (range(n), range(n, 2 * n)))
    extend(0, x, y, sum(pos[p] * digit[p] for p in range(2 * n)), (1 << n) - 1, ())
    # `extend` refers to itself; without this its closure would keep `out`
    # alive until the next cyclic garbage collection.
    del extend
    return orders, out


def _decoded(problem: MarriageProblem, orders: Iterable[int]) -> list[Matching]:
    """The `Matching` of each `order` from `_candidates`: only side A's
    digits are read, each into a copy of the all-single map, and each pair
    is written both ways.  `_candidates` builds only valid matchings, so
    each map is taken as it stands (`Matching._trusted`)."""
    labels = sorted(problem.everyone())
    width = (2 * problem.size - 1).bit_length()
    digits = [(a, width * (len(labels) - 1 - labels.index(a))) for a in problem.side_a]
    single, mask = {p: p for p in problem.everyone()}, (1 << width) - 1
    out = []
    for order in orders:
        pairs = single.copy()
        for a, shift in digits:
            b = labels[order >> shift & mask]
            pairs[a], pairs[b] = b, a
        out.append(Matching._trusted(problem, pairs))
    return out


def all_matchings(problem: MarriageProblem) -> list[Matching]:
    """Every matching, in `Matching.key()` order."""
    what = f"matching list of {problem.size} per side"
    ResourceLimitError.check(problem.size, MATCHINGS_MAX_SIZE, what, "per-side", "MATCHINGS_MAX_SIZE")
    return _decoded(problem, sorted(_candidates(problem)[0]))


def optimin_matchings(problem: MarriageProblem) -> list[Matching]:
    """Matchings whose worst-case outcome vectors are Pareto optimal, in
    `Matching.key()` order.

    Comparison is ordinal: coordinate i improves when individual i's worst
    outcome moves up their own preference list.  The set is never empty.
    Only the matchings kept are built as `Matching` objects.
    """
    what = f"matching enumeration of {problem.size} per side"
    ResourceLimitError.check(problem.size, OPTIMIN_MAX_SIZE, what, "per-side", "OPTIMIN_MAX_SIZE")
    orders, values = _candidates(problem)
    return _decoded(problem, sorted(map(orders.__getitem__, pareto_positions(values))))
