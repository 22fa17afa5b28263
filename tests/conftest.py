"""Shared helpers for randomized suites.

All random tests draw from a seeded `random.Random`, so every run sees the
same instances.
"""

from __future__ import annotations

import contextlib
import importlib.util
import math
import os
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

import optimin
from optimin import NormalFormGame

# Tests that start `python -m optimin.cli` import the package from this
# checkout, whether or not it is installed.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def bench_workloads():
    """perfbench/workloads.py, loaded by path and only read from."""
    spec = importlib.util.spec_from_file_location("optimin_bench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench_pool(workloads, kind, workdir):
    """Every instance of the benchmark's `kind`, its input files written to `workdir`."""
    if kind == "claim":
        return [workloads.claim_instance(reward) for reward in workloads.CLAIM_REWARDS]
    instances = [workloads.pool_instance(kind, i) for i in range(workloads.POOL_SIZE[kind])]
    workloads.write_inputs(optimin, instances, workdir)
    return instances


@pytest.fixture
def count_fractions():
    """``with count_fractions() as built:`` appends the arguments of every
    `Fraction.__new__` call made inside the block to the list `built`."""

    @contextlib.contextmanager
    def counting():
        built = []
        saved = vars(Fraction)["__new__"]
        original = Fraction.__new__

        def new(cls, *args, **kwargs):
            built.append(args)
            return original(cls, *args, **kwargs)

        Fraction.__new__ = new
        try:
            yield built
        finally:
            Fraction.__new__ = saved

    return counting


def random_game(rng: random.Random, max_players: int = 3, max_strats: int = 3,
                lo: int = -9, hi: int = 9) -> NormalFormGame:
    n = rng.randint(2, max_players)
    shape = [rng.randint(2, max_strats) for _ in range(n)]
    players = [f"p{i}" for i in range(n)]
    strategies = [[f"s{k}" for k in range(m)] for m in shape]

    def build(depth: int):
        if depth == n:
            return [rng.randint(lo, hi) for _ in range(n)]
        return [build(depth + 1) for _ in range(shape[depth])]

    return NormalFormGame(players, strategies, build(0))


def zero_game(shape) -> NormalFormGame:
    """A game of the given shape with every payoff 0, built without a cell list."""
    n = len(shape)
    strategies = tuple(tuple(f"s{k}" for k in range(m)) for m in shape)
    payoffs = [[0] * math.prod(shape)] * n
    return NormalFormGame._from_scaled(tuple(f"p{i}" for i in range(n)), strategies, payoffs, 1)


def random_constant_sum_game(rng: random.Random, constant: int | None = None,
                             max_players: int = 3, max_strats: int = 3) -> NormalFormGame:
    base = random_game(rng, max_players, max_strats)
    c = Fraction(constant if constant is not None else rng.randint(-5, 5))
    cells = [
        list(cell[:-1]) + [c - sum(cell[:-1], Fraction(0))]
        for cell in map(base.payoff, base.profiles())
    ]
    shape = base.shape

    def rebuild(depth: int, prefix):
        if depth == len(shape):
            idx = sum(i * s for i, s in zip(prefix, base._strides))
            return cells[idx]
        return [rebuild(depth + 1, prefix + (k,)) for k in range(shape[depth])]

    return NormalFormGame(base.players, base.strategies, rebuild(0, ()))


def brute_value_pure(game: NormalFormGame, profile) -> tuple:
    """Definition-direct value computation, independent of the library path."""
    n = game.num_players
    values = []
    for i in range(n):
        factors = []
        for j in range(n):
            if j == i:
                factors.append([profile[j]])
                continue
            base = game.payoff(profile)[j]
            opts = [profile[j]]
            for s in range(game.shape[j]):
                alt = profile[:j] + (s,) + profile[j + 1:]
                if game.payoff(alt)[j] > base:
                    opts.append(s)
            factors.append(sorted(opts))
        values.append(min(game.payoff(full)[i] for full in product(*factors)))
    return tuple(values)


def brute_pareto(vectors):
    """Quadratic domination check used as the filtering oracle."""
    keep = []
    for v in vectors:
        dominated = any(
            w != v and all(a >= b for a, b in zip(w, v)) for w in vectors
        )
        if not dominated:
            keep.append(v)
    return keep
