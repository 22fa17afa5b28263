"""Pareto filtering: the last step of every optimin solution set.

Each domain evaluates its agreements to worst-case value vectors and keeps
the agreements whose vectors no other vector dominates.  This module is the
one place that filter lives.  Its kernel, `pareto_positions`, reads any
iterable of plain value tuples in one pass, hashing each vector once and
holding only the distinct ones, and returns the positions of the survivors;
the domination tests see the distinct vectors only, and builtins do the
per-vector work.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import compress, count
from operator import ge
from typing import Callable, Iterable, Sequence

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


def pareto_positions(vectors: Iterable[tuple]) -> list[int]:
    """Ascending positions of the vectors that no vector dominates.

    `vectors` is read once, so a generator or `zip` will do.  Each vector
    is hashed once, into a map from each distinct vector to its first
    position, and is held from then on as that position only.  One pass
    over the distinct vectors in descending lexicographic order (Kung,
    Luccio & Preparata 1975) keeps a staircase of the survivors' second and
    third coordinates.  Up to three coordinates the staircase alone decides,
    in O(n log n) plus list moves whatever the front's size; wider vectors
    that the staircase covers are checked against the survivors, O(n·f) at
    worst for a front of f vectors.
    """
    first: dict[tuple, int] = {}
    ids = list(map(first.setdefault, vectors, count()))
    if not first:
        raise EmptyInputError("the Pareto filter needs at least one item")
    if len(set(map(len, first))) > 1:
        raise ValueError("all value vectors must have the same length")
    kept = set(map(first.__getitem__, _front(first.keys())))
    return list(compress(count(), map(kept.__contains__, ids)))


def _front(distinct: set[tuple]) -> set:
    # In descending lexicographic order every dominator of v comes before v
    # with a first coordinate >= v's, so by transitivity v is dominated
    # exactly when a kept vector dominates it in the later coordinates.  The
    # kept (second, third) pairs that no other kept pair covers form a
    # staircase: seconds ascending, thirds descending but held negated so
    # that bisect reads both lists.  A missing coordinate reads as 0.  The
    # pairs with seconds >= v's start at i, and the first has the largest third.
    seconds: list = []
    neg_thirds: list = []
    kept: list[tuple] = []
    for v in sorted(distinct, reverse=True):
        second, third = (v + (0, 0, 0))[1:3]
        i = bisect_left(seconds, second)
        if i < len(seconds) and neg_thirds[i] <= -third:
            if len(v) < 4 or any(all(map(ge, w, v)) for w in reversed(kept)):
                continue
        else:
            # v's pair replaces the staircase pairs it covers, a run ending at j.
            k = bisect_left(neg_thirds, -third)
            j = bisect_right(seconds, second)
            seconds[k:j] = [second]
            neg_thirds[k:j] = [-third]
        kept.append(v)
    return set(kept)
