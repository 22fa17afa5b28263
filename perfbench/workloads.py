"""Workload definitions: seeded instance pools, op sequences and input files.

Every instance comes from a fixed pool keyed by (kind, index) and is drawn
from its own `random.Random` seeded by that key, so an instance's content,
its reference digest and its oracle check never depend on the run's seed.
The run's `--seed` orders the pool within fixed blocks (see `sequence`); a
run takes ops in that order until its time is up or the pool is used up, so
no instance repeats within a run.  Pools are sized so that a 34 s run uses
between two fifths and all of them, depending on the host's speed.

Instances are plain Python data (strings, ints, `Fraction`s).  Set-up turns
them into optimin objects and writes them with `optimin.fileio`, so the
program under test only ever sees the written files and the op's argv.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction
from itertools import combinations

POOL_SIZE = {"match5": 50, "game3": 50, "coop4": 50, "mixed3": 80, "nucleolus4": 80, "core5": 80}

# Op kinds cycle in this order; the pattern sets each kind's share of ops.
PATTERNS = {
    "claim-sweep": ("claim",),
    "pareto-nd": ("match5", "game3", "coop4"),
    "lp-solve": ("mixed3", "nucleolus4", "core5"),
}

CLAIM_REWARDS = tuple(Fraction(k, 2) for k in range(4, 121))  # 2, 5/2, ..., 60

BLOCK = 10  # instances of one kind whose order the seed shuffles; see sequence()


def exact(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


class Instance:
    """One op's input: the data, the file it is written to, and its argv."""

    __slots__ = ("kind", "key", "data", "argv_tail", "filename")

    def __init__(self, kind: str, key: str, data, argv_tail: list[str], filename: str | None):
        self.kind = kind
        self.key = key
        self.data = data
        self.argv_tail = argv_tail
        self.filename = filename

    def argv(self, workdir: str, threads: int) -> list[str]:
        out = list(self.argv_tail)
        if self.filename is not None:
            out[out.index("{file}")] = os.path.join(workdir, self.filename)
        return out + ["--threads", str(threads)]


# -- instance generators ------------------------------------------------------


def _rng(kind: str, index: int) -> random.Random:
    return random.Random(f"optimin-bench/{kind}/{index}")


def claim_instance(reward: Fraction) -> Instance:
    r = exact(reward)
    argv = ["sweep", "--family", "travelers", "--param", "r", "--from", r, "--to", r]
    return Instance("claim", f"claim/{r}", {"reward": reward}, argv, None)


def _rational(rng: random.Random, lo: int, hi: int, max_den: int) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def game3_data(rng: random.Random) -> dict:
    """3-player 6x6x6 game with payoffs a/b, |a| <= 40, b <= 12."""
    shape = (6, 6, 6)
    cells = {}
    for a in range(shape[0]):
        for b in range(shape[1]):
            for c in range(shape[2]):
                cells[(a, b, c)] = tuple(_rational(rng, -40, 40, 12) for _ in range(3))
    return {
        "players": ("p1", "p2", "p3"),
        "strategies": tuple(tuple(f"s{k + 1}" for k in range(m)) for m in shape),
        "cells": cells,
    }


def mixed3_data(rng: random.Random) -> dict:
    """2-player 3x3 game with payoffs a/b, |a| <= 20, b <= 6."""
    cells = {
        (a, b): (_rational(rng, -20, 20, 6), _rational(rng, -20, 20, 6))
        for a in range(3)
        for b in range(3)
    }
    return {
        "players": ("row", "column"),
        "strategies": (("T", "M", "B"), ("L", "C", "R")),
        "cells": cells,
    }


def match5_data(rng: random.Random) -> dict:
    """5-per-side marriage problem; everyone ranks the whole other side above
    staying single."""
    side_a = tuple(f"a{k + 1}" for k in range(5))
    side_b = tuple(f"b{k + 1}" for k in range(5))
    prefs = {}
    for person in side_a + side_b:
        other = list(side_b if person in side_a else side_a)
        rng.shuffle(other)
        prefs[person] = tuple(other) + (person,)
    return {"A": side_a, "B": side_b, "prefs": prefs}


def _masks(n: int):
    return range(1, 1 << n)


def _members(mask: int, n: int) -> list[int]:
    return [i for i in range(n) if mask >> i & 1]


def synergy_worths(rng: random.Random, n: int, singles: list[int], surplus: int) -> dict:
    """Convex (supermodular) game: singles plus nonnegative pairwise synergies
    that split `surplus` exactly, so u(N) = sum(singles) + surplus."""
    pairs = list(combinations(range(n), 2))
    synergy = [0] * len(pairs)
    for _ in range(surplus):
        synergy[rng.randrange(len(pairs))] += 1
    worth = {}
    for mask in _masks(n):
        total = sum(singles[i] for i in _members(mask, n))
        total += sum(s for (i, j), s in zip(pairs, synergy) if mask >> i & 1 and mask >> j & 1)
        worth[mask] = total
    return worth


def coop4_data(rng: random.Random, index: int) -> dict:
    """4-player TU game whose unit lattice has 286 imputations.

    Even indices are convex (pairwise synergies); odd indices draw every
    intermediate coalition's worth freely within the surplus.
    """
    n = 4
    singles = [rng.randint(0, 6) for _ in range(n)]
    surplus = 10
    if index % 2 == 0:
        worth = synergy_worths(rng, n, singles, surplus)
    else:
        worth = {}
        for mask in _masks(n):
            members = _members(mask, n)
            base = sum(singles[i] for i in members)
            if len(members) == 1:
                worth[mask] = base
            elif len(members) == n:
                worth[mask] = base + surplus
            else:
                worth[mask] = base + rng.randint(0, surplus)
    return {"n": n, "worth": worth}


def nucleolus4_data(rng: random.Random) -> dict:
    """4-player TU game with a nonempty imputation set and free worths."""
    n = 4
    singles = [rng.randint(0, 10) for _ in range(n)]
    surplus = rng.randint(8, 30)
    worth = {}
    for mask in _masks(n):
        members = _members(mask, n)
        base = sum(singles[i] for i in members)
        if len(members) == 1:
            worth[mask] = base
        elif len(members) == n:
            worth[mask] = base + surplus
        else:
            worth[mask] = base + rng.randint(0, surplus * len(members) // 2)
    return {"n": n, "worth": worth}


def core5_data(rng: random.Random, index: int) -> dict:
    """5-player TU game; even indices convex (core nonempty), odd indices with
    every 4-player coalition so strong that the core is empty."""
    n = 5
    singles = [rng.randint(0, 10) for _ in range(n)]
    surplus = rng.randint(10, 30)
    worth = synergy_worths(rng, n, singles, surplus)
    if index % 2 == 1:
        full = (1 << n) - 1
        # Balanced collection {N minus i}, weights 1/(n-1): the core is empty
        # once the sum of these worths exceeds (n-1) u(N).
        boost = (n - 1) * worth[full] // n + 1
        for i in range(n):
            mask = full ^ (1 << i)
            worth[mask] = max(worth[mask], boost + rng.randint(0, 5))
    return {"n": n, "worth": worth}


_FILE_OPS = {
    "game3": (["optimin", "--game", "{file}", "--pure"], "game"),
    "mixed3": (["optimin", "--game", "{file}", "--mixed-grid", "4"], "game"),
    "match5": (["match", "optimin", "--game", "{file}"], "marriage"),
    "coop4": (["coop", "optimin", "--game", "{file}", "--step", "1"], "tu"),
    "nucleolus4": (["coop", "nucleolus", "--game", "{file}"], "tu"),
    "core5": (["coop", "core", "--game", "{file}"], "tu"),
}


def pool_instance(kind: str, index: int) -> Instance:
    """Pool entry `index` of `kind`; index -1 is the kind's warm-up instance."""
    if kind == "claim":
        raise ValueError("claim instances are keyed by reward, not pool index")
    rng = _rng(kind, index)
    if kind == "game3":
        data = game3_data(rng)
    elif kind == "mixed3":
        data = mixed3_data(rng)
    elif kind == "match5":
        data = match5_data(rng)
    elif kind == "coop4":
        data = coop4_data(rng, index)
    elif kind == "nucleolus4":
        data = nucleolus4_data(rng)
    elif kind == "core5":
        data = core5_data(rng, index)
    else:
        raise ValueError(f"unknown op kind {kind!r}")
    argv, _ = _FILE_OPS[kind]
    key = f"{kind}/{index}"
    filename = f"{kind}-{index}.json"
    return Instance(kind, key, data, argv, filename)


# -- sequences ------------------------------------------------------------------


def _blocked(items: list, rng: random.Random) -> list:
    """items in consecutive blocks of BLOCK, each block shuffled by rng."""
    out = []
    for k in range(0, len(items), BLOCK):
        block = items[k : k + BLOCK]
        rng.shuffle(block)
        out += block
    return out


def sequence(workload: str, seed: int) -> list[Instance]:
    """The run's ops in order: the whole pool, kinds cycling by pattern.

    Each kind's pool is cut into fixed blocks of BLOCK instances, and the seed
    orders the instances within each block.  Runs of different seeds thus
    time the same instances, apart from the last block they reach, and their
    figures differ by the host rather than by the sample of instances.
    """
    rng = random.Random(f"optimin-bench/sequence/{workload}/{seed}")
    if workload == "claim-sweep":
        # A fixed order of the rewards, not sorted, so that every block spans
        # the sweep.  The two ends of the paper's sweep are in the first block,
        # so that every run times them.
        rewards = list(CLAIM_REWARDS)
        random.Random("optimin-bench/claim-blocks").shuffle(rewards)
        for reward in (Fraction(2), Fraction(60)):
            rewards.remove(reward)
            rewards.insert(0, reward)
        return [claim_instance(r) for r in _blocked(rewards, rng)]
    pattern = PATTERNS[workload]
    order = {kind: _blocked(list(range(POOL_SIZE[kind])), rng) for kind in pattern}
    return [pool_instance(kind, order[kind][k]) for k in range(POOL_SIZE[pattern[0]]) for kind in pattern]


def warmup(workload: str) -> list[Instance]:
    """One instance from outside the timed pool."""
    if workload == "claim-sweep":
        return [claim_instance(Fraction(61))]
    return [pool_instance(PATTERNS[workload][0], -1)]


# -- writing inputs through optimin.fileio ----------------------------------------


def _nested(cells: dict, shape: tuple[int, ...], prefix=()) -> list:
    if len(prefix) == len(shape):
        return list(cells[prefix])
    return [_nested(cells, shape, prefix + (k,)) for k in range(shape[len(prefix)])]


def write_inputs(optimin, instances: list[Instance], workdir: str) -> None:
    """Build each instance as an optimin object and write it with fileio."""
    fileio = optimin.fileio
    for inst in instances:
        if inst.filename is None:
            continue
        data = inst.data
        fmt = _FILE_OPS[inst.kind][1]
        if fmt == "game":
            shape = tuple(len(s) for s in data["strategies"])
            game = optimin.NormalFormGame(data["players"], data["strategies"], _nested(data["cells"], shape))
            text = fileio.dump_game(game)
        elif fmt == "tu":
            text = fileio.dump_tu_game(optimin.TUGame(data["n"], data["worth"]))
        else:
            problem = optimin.MarriageProblem(data["A"], data["B"], data["prefs"])
            text = fileio.dump_marriage(problem)
        with open(os.path.join(workdir, inst.filename), "w", encoding="utf-8") as fh:
            fh.write(text)
