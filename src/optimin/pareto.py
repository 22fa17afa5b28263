"""Pareto filtering: the last step of every optimin solution set.

Each domain evaluates its agreements to worst-case value vectors and keeps
the agreements whose vectors no other vector dominates.  This module is the
one place that filter lives.
"""

from __future__ import annotations

from operator import ge
from typing import Callable, Sequence

from .errors import EmptyInputError


def pareto_filter(items: Sequence, key: Callable | None = None) -> list:
    """Keep the items whose vectors no other vector dominates.

    Domination is coordinatewise >= with at least one strict coordinate;
    equal vectors never dominate each other, so ties are all retained.
    Output preserves input order.

    The method is chosen by vector width.  Two coordinates use a sort-and-sweep
    in O(n log n).  Any other width uses a presorted skyline (Kung, Luccio &
    Preparata 1975; Chomicki et al. 2003) in O(n log n + n·f) comparisons,
    where f is the size of the Pareto front.  The sweep stays for 2-D because
    its cost does not grow with the front, which can be the whole input:
    5 000 anti-diagonal vectors, all kept, take 0.002 s to sweep and 13 s as
    a skyline.
    """
    items = list(items)
    if not items:
        raise EmptyInputError("pareto_filter needs at least one item")
    vectors = [tuple(key(it)) if key is not None else tuple(it) for it in items]
    width = len(vectors[0])
    if len(set(map(len, vectors))) > 1:
        raise ValueError("all value vectors must have the same length")
    distinct = list(dict.fromkeys(vectors))
    dominated = _dominated_2d(distinct) if width == 2 else _dominated_skyline(distinct)
    return [it for it, v in zip(items, vectors) if v not in dominated]


def _dominated_2d(distinct: list[tuple]) -> set:
    # In descending order a vector's dominators all come before it, and an
    # earlier vector dominates it exactly when its second coordinate is >=.
    dominated = set()
    best_second = None
    for v in sorted(distinct, reverse=True):
        if best_second is not None and best_second >= v[1]:
            dominated.add(v)
        else:
            best_second = v[1]
    return dominated


def _dominated_skyline(distinct: list[tuple]) -> set:
    # A vector's dominators all have a larger coordinate sum, so in sum
    # descending order they come before it; by transitivity some vector already
    # on the front then dominates it too, and each vector is tested against the
    # front alone.  Float sums can round a dominator's larger sum down to a tie;
    # a dominator is also lexicographically larger, so the vector as tie-break
    # keeps the order exact for every number type.
    keyed = sorted(((sum(v), v) for v in distinct), reverse=True)
    front: list[tuple] = []
    dominated = set()
    for _, v in keyed:
        for w in front:
            if all(map(ge, w, v)):
                dominated.add(v)
                break
        else:
            front.append(v)
    return dominated
