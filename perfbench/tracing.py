"""Spans around optimin's layers, installed from outside the program.

`Tracer` wraps the public functions listed in `TARGETS` and rebinds every
name that refers to them in every loaded `optimin` module, because several
modules import them by name (`pareto_filter` in coop, matching and decisions;
`solve_lp` in noncoop, coop and zerosum; `nash_pure` in generators).  Methods
are wrapped on their class.  Each call records a span (id, name, start, end,
parent id, op id) in memory; `layer_totals` turns spans into self times.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict


def _count_pareto(args, kwargs, result):
    items = args[0] if args else kwargs["items"]
    return (
        ("noncoop.pareto_filter.items_in", len(items)),
        ("noncoop.pareto_filter.items_kept", len(result)),
    )


def _count_lp(args, kwargs, result):
    lp = args[0] if args else kwargs["lp"]
    return (
        ("lp.solve_lp.cells", len(lp.constraints) * len(lp.objective)),
        ("lp.solve_lp.infeasible", int(result.status == "infeasible")),
    )


def _count_grid(args, kwargs, result):
    return (("coop.imputation_grid.points", len(result)),)


# (module, attribute or Class.method, span name, counter hook).  A hook maps
# (args, kwargs, result) to (counter name, increment) pairs.
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("fileio", "load_game", "fileio.load", None),
    ("fileio", "load_tu_game", "fileio.load", None),
    ("fileio", "load_marriage", "fileio.load", None),
    ("fileio", "dump_game", "fileio.dump", None),
    ("fileio", "dump_tu_game", "fileio.dump", None),
    ("fileio", "dump_marriage", "fileio.dump", None),
    ("generators", "gen_travelers", "generators.gen_travelers", None),
    ("games", "NormalFormGame.__init__", "games.NormalFormGame_init", None),
    ("games", "NormalFormGame.expected_payoff", "games.expected_payoff", None),
    ("noncoop", "value_table", "noncoop.value_table", None),
    ("noncoop", "nash_pure", "noncoop.nash_pure", None),
    ("noncoop", "pareto_filter", "noncoop.pareto_filter", _count_pareto),
    ("noncoop", "value_pure", "noncoop.value_pure", None),
    ("noncoop", "value_mixed_2p", "noncoop.value_mixed_2p", None),
    ("noncoop", "optimin_grid_2p", "noncoop.optimin_grid_2p", None),
    ("lp", "solve_lp", "lp.solve_lp", _count_lp),
    ("coop", "coop_value", "coop.coop_value", None),
    ("coop", "imputation_grid", "coop.imputation_grid", _count_grid),
    ("coop", "nucleolus", "coop.nucleolus", None),
    ("coop", "core", "coop.core", None),
    ("matching", "all_matchings", "matching.all_matchings", None),
    ("matching", "matching_value", "matching.matching_value", None),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in TARGETS))


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, name, start, end, parent, op)
        self.counters: dict[tuple[str, str | None], float] = defaultdict(float)  # (name, op)
        self.op: str | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._bindings: list[tuple[object, str, object, object]] = []

    def prepare(self) -> None:
        """Find every binding of every target in the loaded optimin modules."""
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "optimin" or name.startswith("optimin."))
        }
        self._bindings = []
        for module, attr, span, hook in TARGETS:
            mod = modules[f"optimin.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                self._bindings.append((cls, meth, original, self._wrap(original, span, hook)))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(original, span, hook)
            for owner in modules.values():
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._bindings.append((owner, key, original, wrapper))

    def install(self) -> None:
        for owner, key, _, wrapper in self._bindings:
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original, _ in self._bindings:
            setattr(owner, key, original)

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, original, span_name: str, hook):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                # A pool worker's first span belongs to whatever the main
                # thread, which submitted the work, has open.
                main = tracer._main_stack
                parent = main[-1] if main else None
            span_id = next(tracer._ids)
            op = tracer.op
            stack.append(span_id)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.spans.append((span_id, span_name, start, end, parent, op))
            if hook is not None:
                for name, value in hook(args, kwargs, result):
                    tracer.counters[(name, op)] += value
            return result

        return wrapper


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {
        span_id: (end - start) - _covered(children.get(span_id, []), start, end)
        for span_id, _, start, end, _, _ in spans
    }


def layer_totals(spans, counters, ops: set[str]) -> dict:
    """Per span name: calls and summed self time over the given ops, plus the
    hook counters and the number of solve_lp calls made directly by nucleolus."""
    selected = [s for s in spans if s[5] in ops]
    selfs = self_times(selected)
    names = {s[0]: s[1] for s in selected}
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    nucleolus_lps = 0
    for span_id, name, _, _, parent, _ in selected:
        calls[name] += 1
        self_s[name] += selfs[span_id]
        if name == "lp.solve_lp" and names.get(parent) == "coop.nucleolus":
            nucleolus_lps += 1
    counts: dict[str, float] = defaultdict(float)
    for (name, op), value in counters.items():
        if op in ops:
            counts[name] += value
    return {"calls": calls, "self_s": self_s, "counts": counts, "nucleolus_lps": nucleolus_lps}
