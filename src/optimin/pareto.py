"""Pareto filtering: the last step of every optimin solution set.

Each domain evaluates its agreements to worst-case value vectors and keeps
the agreements whose vectors no other vector dominates.  This module is the
one place that filter lives.  Its kernel, `pareto_positions`, reads any
iterable of plain value tuples in one pass, hashing each vector once and
holding only the distinct ones, and returns the positions of the survivors;
the domination tests see the distinct vectors only, and builtins do the
per-vector work.  From four coordinates on, the vector of largest sum first
drops, in one pass at C speed, every vector it dominates: the strong
dominator that sort-first skyline filters use (Chomicki et al., "Skyline
with presorting", ICDE 2003).  A symmetric two-player game hands it one
cell per orbit {(a, b), (b, a)} and asks it to close the distinct 2-D
vectors under the swap (x, y) -> (y, x) before filtering, which gives the
front of every cell.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import compress, count, repeat
from operator import ge, not_
from typing import Callable, Collection, Iterable, Sequence

from .errors import EmptyInputError


def pareto_filter(items: Sequence, key: Callable | None = None) -> list:
    """Keep the items whose vectors no other vector dominates.

    Domination is coordinatewise >= with at least one strict coordinate;
    equal vectors never dominate each other, so ties are all retained.
    Output preserves input order.
    """
    items = list(items)
    vectors = map(tuple, items if key is None else map(key, items))
    return list(map(items.__getitem__, pareto_positions(vectors)))


def pareto_positions(vectors: Iterable[tuple], swap_closed: bool = False) -> list[int]:
    """Ascending positions of the vectors that no vector dominates.

    `vectors` is read once, so a generator or `zip` will do.  Each vector
    is hashed once, into a map from each distinct vector to its first
    position, and is held from then on as that position only.  One pass
    over the distinct vectors in descending lexicographic order (Kung,
    Luccio & Preparata 1975) keeps a staircase of the survivors' second and
    third coordinates.  Up to three coordinates the staircase alone decides,
    in O(n log n) plus list moves whatever the front's size.  A wider
    vector is first dropped, in one pass before the scan, when the distinct
    vector of largest sum dominates it; that pass decides by comparisons
    alone, so it holds for every ordered type.  A wider vector that the
    staircase covers is checked against survivors: with int and
    `Fraction` values only against those of strictly larger sum, so a front
    on one plane of equal sum (an imputation lattice whose points are all
    kept) costs no check at all; with any other type, such as float or
    `Decimal`, against every survivor, O(n·f) at worst for a front of f.

    With `swap_closed`, the vectors must be 2-D, and each distinct one's
    swapped image (y, x) joins the vectors filtered, so a position survives
    when no vector of the stream or image of one dominates its vector.
    Domination commutes with the swap, so that front is closed under it.
    """
    first: dict[tuple, int] = {}
    ids = list(map(first.setdefault, vectors, count()))
    if not first:
        raise EmptyInputError("the Pareto filter needs at least one item")
    if len(set(map(len, first))) > 1:
        raise ValueError("all value vectors must have the same length")
    distinct = first.keys()
    if swap_closed:
        if len(next(iter(first))) != 2:
            raise ValueError("only 2-D value vectors can be closed under the swap")
        distinct = distinct | {(y, x) for x, y in first}
    kept = set(map(first.get, _front(distinct)))  # an image not in the stream maps to None
    return list(compress(count(), map(kept.__contains__, ids)))


def _front(distinct: Collection[tuple]) -> set:
    # In descending lexicographic order every dominator of v comes before v
    # with a first coordinate >= v's, so by transitivity v is dominated
    # exactly when a kept vector dominates it in the later coordinates.  The
    # kept (second, third) pairs that no other kept pair covers form a
    # staircase: seconds ascending, thirds descending but held negated so
    # that bisect reads both lists.  A missing coordinate reads as 0.  The
    # pairs with seconds >= v's start at i, and the first has the largest third.
    #
    # A wider vector the staircase covers is checked against the kept
    # vectors.  One that dominates v has a strictly larger exact sum, so
    # while every sum read is an int or a Fraction the kept vectors are held
    # by sum, descending (`neg_sums` holds the sums negated), and v is
    # checked only against those before `end`, the first of sum <= v's.  A
    # float or Decimal sum can round a dominator's sum down to v's
    # (1e16 + 1.0 == 1e16), so from the first such sum on, `end` is the end
    # of `kept` and every kept vector is checked.
    #
    # From 4 coordinates on, one pass at C speed first drops every vector
    # that the distinct vector of largest sum, w, weakly dominates, w itself
    # included, and then puts w back.  Each dropped vector has a dominator
    # that stays, so the front is unchanged; this holds for any ordered
    # type, since a sum that rounds wrong only picks a weaker w.
    if len(next(iter(distinct))) > 3:
        w = max(distinct, key=sum)
        covered = map(all, map(map, repeat(ge), repeat(w), distinct))
        distinct = [*compress(distinct, map(not_, covered)), w]
    seconds: list = []
    neg_thirds: list = []
    kept: list[tuple] = []
    neg_sums: list = []
    exact = True
    for v in sorted(distinct, reverse=True):
        end = len(kept)
        if len(v) > 3 and exact:
            neg_sum = -sum(v)
            exact = type(neg_sum) is int or type(neg_sum) is Fraction
            if exact:
                end = bisect_left(neg_sums, neg_sum)
        second, third = (v + (0, 0, 0))[1:3]
        i = bisect_left(seconds, second)
        if i < len(seconds) and neg_thirds[i] <= -third:
            if len(v) < 4 or any(all(map(ge, w, v)) for w in kept[:end]):
                continue
        else:
            # v's pair replaces the staircase pairs it covers, a run ending at j.
            k = bisect_left(neg_thirds, -third)
            j = bisect_right(seconds, second)
            seconds[k:j] = [second]
            neg_thirds[k:j] = [-third]
        kept.insert(end, v)
        if len(v) > 3 and exact:
            neg_sums.insert(end, neg_sum)
    return set(kept)
