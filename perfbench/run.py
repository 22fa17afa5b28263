"""optimin benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload claim-sweep --seed 1 --seconds 34 --trace 0

Run from the root of a source tree.  The benchmark imports that tree's own
`src/optimin` (never an installed copy), generates the workload's inputs from
the seed, then calls `optimin.cli.main(argv)` in-process, one op at a time,
with stdout captured.  Every op's report bytes are checked against
`reference.json`.  The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

import tracing  # noqa: E402  (sibling module; the script's directory is on sys.path)
import workloads  # noqa: E402

# Set-ups timed per untraced run: one before the timed pass, the rest spread
# through it, so that setup_s samples the same host states as the ops do.
SETUP_REPS = 9
SETUP_CHUNK = 40  # instances written between two probes during set-up
# p90 needs 10 samples beyond it, so a timed pass with fewer than 100 ops may
# run up to a quarter past --seconds to reach them; a used-up pool ends it sooner.
MIN_TIMED_OPS = 100
OVERTIME = 0.25
SPEEDUP_OPS = 12  # ops also run at two threads, the same number of each op kind
PAIR_SPAN = 60  # the ops run at two threads are among the first PAIR_SPAN of the pass
PROBE_SECONDS = 0.001  # host_probe() on the 2-core Xeon this was built on, at full speed

# Per-layer self times reported per traced op; set-up's dumps are per set-up.
SELF_TIME_LAYERS = tuple(name for name in tracing.SPAN_NAMES if name != "fileio.dump")
CALL_COUNT_LAYERS = (
    "noncoop.pareto_filter",
    "noncoop.value_pure",
    "noncoop.value_mixed_2p",
    "lp.solve_lp",
    "coop.coop_value",
    "matching.matching_value",
)
# Hook counters reported per traced op, with their units.
COUNTERS = (
    ("noncoop.pareto_filter.items_in", "items/op"),
    ("noncoop.pareto_filter.items_kept", "items/op"),
    ("lp.solve_lp.infeasible", "lps/op"),
    ("lp.solve_lp.cells", "cells/op"),
    ("coop.imputation_grid.points", "points/op"),
)
THREADED_LAYERS = ("noncoop.value_table", "noncoop.optimin_grid_2p")


END_TO_END_UNITS = {
    "ops_per_s": "op/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
    "speedup_2t": "ratio",
}
PER_LAYER_UNITS = {
    **{f"{name}.self_s": "s/op" for name in SELF_TIME_LAYERS},
    "fileio.dump.self_s": "s/setup",
    **{f"{name}.self_s_2t": "s/op" for name in THREADED_LAYERS},
    **{f"{name}.calls": "calls/op" for name in CALL_COUNT_LAYERS},
    **dict(COUNTERS),
    "noncoop.pareto_filter.kept_ratio": "ratio",
    "lp.solve_lp.infeasible_ratio": "ratio",
    "coop.nucleolus.lp_calls_per_call": "lps/call",
    "trace.overhead": "ratio",
    "trace.coverage": "ratio",
    "trace.ops": "count",
}


# -- ops -----------------------------------------------------------------------


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def run_op(cli, argv: list[str]) -> tuple[float, str, str | None]:
    """Time one in-process CLI call; returns (seconds, stdout, error or None)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception:  # an op that crashes is a failed op, not a failed run
            code = None
            error = traceback.format_exc()
        elapsed = time.perf_counter() - start
    if error is None and code != 0:
        error = f"exit code {code}: {err.getvalue().strip()}"
    return elapsed, out.getvalue(), error


class Checker:
    """Counts attempted and failed ops; an op fails on an error or on report
    bytes whose digest differs from the reference (or from `expect`)."""

    def __init__(self, reference: dict[str, str]) -> None:
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, inst, text: str, error: str | None, expect: str | None = None) -> str:
        self.attempted += 1
        got = digest(text)
        want = self.reference.get(inst.key)
        problem = error
        if problem is None and want is None:
            problem = "no reference digest"
        elif problem is None and got != want:
            problem = f"report digest {got} != reference {want}"
        elif problem is None and expect is not None and got != expect:
            problem = f"report digest {got} != {expect} at the other thread count"
        if problem is not None:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(f"{inst.key} {' '.join(inst.argv_tail)}: {problem}")
        return got


# -- host speed ----------------------------------------------------------------------


def host_probe() -> float:
    """Seconds taken by a fixed bit of Fraction arithmetic (about 1 ms).

    The shared host alternates between a fast and a slow state, for a second
    to a minute at a time, and the same op then takes up to twice as long.
    The probe, timed next to every op, measures the host's speed at that
    moment.  The collector is off so that the program's heap cannot slow it.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 400):
            total += Fraction(1, i)
        return time.perf_counter() - start
    finally:
        gc.enable()


def at_reference_speed(seconds: float, probe_before: float, probe_after: float) -> float:
    """Rescale a time to a host whose probe takes PROBE_SECONDS."""
    return seconds * PROBE_SECONDS * 2 / (probe_before + probe_after)


class ScaledClock:
    """Times consecutive laps, each rescaled by the probes on either side of
    it, so that a host speed change part way through is tracked."""

    def __init__(self) -> None:
        self.raw = self.scaled = 0.0
        self.probe = host_probe()
        self.start = time.perf_counter()

    def lap(self) -> None:
        seconds = time.perf_counter() - self.start
        after = host_probe()
        self.raw += seconds
        self.scaled += at_reference_speed(seconds, self.probe, after)
        self.probe = after
        self.start = time.perf_counter()


# -- set-up ----------------------------------------------------------------------


def optimin_modules() -> list[str]:
    return [name for name in sys.modules if name == "optimin" or name.startswith("optimin.")]


def set_up(workload: str, seed: int, workdir: Path):
    """Import optimin afresh, generate the run's instances and write them to
    an empty directory.  Returns the clock that timed it, optimin, the timed
    sequence and the warm-up ops."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    for name in optimin_modules():
        del sys.modules[name]
    clock = ScaledClock()
    optimin = importlib.import_module("optimin")
    importlib.import_module("optimin.cli")
    clock.lap()
    seq = workloads.sequence(workload, seed)
    warm = workloads.warmup(workload)
    clock.lap()
    instances = warm + seq
    for k in range(0, len(instances), SETUP_CHUNK):
        workloads.write_inputs(optimin, instances[k : k + SETUP_CHUNK], str(workdir))
        clock.lap()
    return clock, optimin, seq, warm


def extra_set_up(workload: str, seed: int, workdir: Path) -> ScaledClock:
    """Time one more set-up into its own directory, then put back the optimin
    modules the ops are using, so that the ops go on as before."""
    running = {name: sys.modules[name] for name in optimin_modules()}
    clock = set_up(workload, seed, workdir)[0]
    for name in optimin_modules():
        del sys.modules[name]
    sys.modules.update(running)
    gc.collect()  # the fresh modules' garbage, so that no op pays for it
    return clock


def speedup_subset(workload: str, seed: int, candidates: list) -> list:
    """A seeded subset of the candidate instances, the same number of each op
    kind."""
    rng = random.Random(f"optimin-bench/speedup/{workload}/{seed}")
    kinds = list(dict.fromkeys(workloads.PATTERNS[workload]))
    per_kind = max(1, SPEEDUP_OPS // len(kinds))
    subset = []
    for kind in kinds:
        pool = [inst for inst in candidates if inst.kind == kind]
        subset += rng.sample(pool, min(per_kind, len(pool)))
    return subset


def speedup_pair(cli, inst, workdir: str, checker: Checker, k: int) -> float:
    """Run one op at --threads 1 and at two threads, back to back, in an order
    that alternates with k; the two reports must be the same bytes.  Returns
    the rescaled time at one thread over the rescaled time at two."""
    threads = two_threads()
    times = {}
    first = None
    before = host_probe()
    for count in ((1, threads) if k % 2 == 0 else (threads, 1)):
        seconds, text, error = run_op(cli, inst.argv(workdir, count))
        after = host_probe()
        got = checker.check(inst, text, error, expect=first)
        first = first or got
        times[count] = at_reference_speed(seconds, before, after)
        before = after
    return times[1] / times[threads]


def two_threads() -> int:
    return max(1, min(2, os.cpu_count() or 1))


# -- run record -----------------------------------------------------------------------


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def record(args, extra: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "git_sha": git_sha(),
        **extra,
    }


# -- the two kinds of run ------------------------------------------------------------------


def untraced_run(args, cli, seq, warm, workdir, checker, setup_times) -> tuple[dict, dict, dict]:
    for inst in warm:
        _, text, error = run_op(cli, inst.argv(workdir, 1))
        checker.check(inst, text, error)

    # The extra set-ups run at even intervals through the timed pass, and the
    # ops of the --threads pairs are spread over its first PAIR_SPAN ops, so
    # that both sample the same host states as the ops do.  A pair op's timed
    # run is its --threads 1 run; its two-thread run goes right before or
    # right after, in turn.  The deadlines count the wall time of all of it,
    # so a slow host gives fewer ops rather than a longer run; the op times
    # leave set-ups and two-thread runs out.
    setup_dir = Path(f"{workdir}-setup")
    subset = speedup_subset(args.workload, args.seed, seq[:PAIR_SPAN])
    pair_at = {i: k for k, i in enumerate(sorted(seq.index(inst) for inst in subset))}
    threads = two_threads()
    ratios = []
    aside_s = aside_cpu_s = 0.0
    latencies = []
    scaled = []
    done = []  # (instance, digest) of the ops that passed
    probes = [host_probe()]

    def aside(job):
        """Run job outside the pass's clock, then probe."""
        nonlocal aside_s, aside_cpu_s
        wall, cpu = time.perf_counter(), time.process_time()
        result = job()
        probes.append(host_probe())
        aside_s += time.perf_counter() - wall
        aside_cpu_s += time.process_time() - cpu
        return result

    cpu_start = time.process_time()
    start = time.perf_counter()
    for i, inst in enumerate(seq):
        now = time.perf_counter() - start
        if now >= (args.seconds if i >= MIN_TIMED_OPS else args.seconds * (1 + OVERTIME)):
            break
        if len(setup_times) < SETUP_REPS and now >= args.seconds * len(setup_times) / SETUP_REPS:
            setup_times.append(aside(lambda: extra_set_up(args.workload, args.seed, setup_dir)))
        pair = pair_at.get(i)
        if pair is not None and pair % 2 == 1:
            two = aside(lambda: run_op(cli, inst.argv(workdir, threads)))
            two_scaled = at_reference_speed(two[0], probes[-2], probes[-1])
        seconds, text, error = run_op(cli, inst.argv(workdir, 1))
        probes.append(host_probe())
        failed_before = checker.failed
        got = checker.check(inst, text, error)
        latencies.append(seconds)
        scaled.append(at_reference_speed(seconds, probes[-2], probes[-1]))
        if checker.failed == failed_before:
            done.append((inst, got))
        if pair is not None and pair % 2 == 0:
            two = aside(lambda: run_op(cli, inst.argv(workdir, threads)))
            two_scaled = at_reference_speed(two[0], probes[-2], probes[-1])
        if pair is not None:
            checker.check(inst, two[1], two[2], expect=got)
            ratios.append(scaled[-1] / two_scaled)
    elapsed = time.perf_counter() - start - aside_s
    cpu_elapsed = time.process_time() - cpu_start - aside_cpu_s
    # A pass that ends early leaves some of them to do.
    while len(setup_times) < SETUP_REPS:
        setup_times.append(extra_set_up(args.workload, args.seed, setup_dir))
    for i, pair in pair_at.items():
        if i >= len(latencies):
            ratios.append(speedup_pair(cli, seq[i], workdir, checker, pair))

    def p90(values):
        return statistics.quantiles(values, n=10, method="inclusive")[8]

    metrics = {
        "ops_per_s": len(done) / sum(scaled),
        "op_p50_ms": statistics.median(scaled) * 1000,
        "op_p90_ms": p90(scaled) * 1000,
        "setup_s": statistics.median(clock.scaled for clock in setup_times),
        "ok_ratio": (checker.attempted - checker.failed) / checker.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "speedup_2t": statistics.geometric_mean(ratios) if ratios else 1.0,
    }
    extra = {
        "correct_ops_by_kind": {
            kind: sum(1 for inst, _ in done if inst.kind == kind) for kind in workloads.PATTERNS[args.workload]
        },
        "p90_samples": len(scaled),
        "p90_samples_beyond": sum(1 for t in scaled if t > p90(scaled)),
        "raw_ops_per_s": len(done) / elapsed,
        "raw_op_p50_ms": statistics.median(latencies) * 1000,
        "raw_op_p90_ms": p90(latencies) * 1000,
        "probe_median_s": statistics.median(probes),
        "timed_pass_s": elapsed,
        "timed_pass_cpu_s": cpu_elapsed,
        "speedup_ops": len(ratios),
        "speedup_threads": threads,
        "raw_setup_reps_s": [clock.raw for clock in setup_times],
        "setup_reps_s": [clock.scaled for clock in setup_times],
        "fail_ratio": checker.failed / checker.attempted,
    }
    return metrics, extra, {"latencies_s": latencies, "scaled_latencies_s": scaled, "probes_s": probes}


def traced_run(args, optimin, cli, seq, warm, workdir, checker) -> tuple[dict, dict, dict]:
    tracer = tracing.Tracer()
    tracer.prepare()
    tracer.op = "setup"
    tracer.install()
    try:
        workloads.write_inputs(optimin, warm + seq, workdir)
    finally:
        tracer.uninstall()

    for inst in warm:
        _, text, error = run_op(cli, inst.argv(workdir, 1))
        checker.check(inst, text, error)

    # Each op runs traced and untraced back to back, in alternating order,
    # so the overhead ratio compares the same ops under the same conditions.
    traced_s = untraced_s = 0.0
    done = []
    deadline = time.perf_counter() + args.seconds
    for k, inst in enumerate(seq):
        if time.perf_counter() >= deadline:
            break
        got = None
        for traced in ((True, False) if k % 2 == 0 else (False, True)):
            if traced:
                tracer.op = f"t1:{k}"
                tracer.install()
            try:
                seconds, text, error = run_op(cli, inst.argv(workdir, 1))
            finally:
                tracer.uninstall()
            if traced:
                traced_s += seconds
                got = checker.check(inst, text, error)
            else:
                untraced_s += seconds
                checker.check(inst, text, error)
        done.append((inst, got))

    threads = two_threads()
    digests = {inst.key: got for inst, got in done}
    subset = speedup_subset(args.workload, args.seed, [inst for inst, _ in done])
    for k, inst in enumerate(subset):
        tracer.op = f"t2:{k}"
        tracer.install()
        try:
            _, text, error = run_op(cli, inst.argv(workdir, threads))
        finally:
            tracer.uninstall()
        checker.check(inst, text, error, expect=digests[inst.key])

    n1 = len(done)
    t1 = tracing.layer_totals(tracer.spans, tracer.counters, {f"t1:{k}" for k in range(n1)})
    t2 = tracing.layer_totals(tracer.spans, tracer.counters, {f"t2:{k}" for k in range(len(subset))})
    setup = tracing.layer_totals(tracer.spans, tracer.counters, {"setup"})

    def per_op(value: float) -> float:
        return value / n1 if n1 else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics = {f"{name}.self_s": per_op(t1["self_s"][name]) for name in SELF_TIME_LAYERS}
    metrics["fileio.dump.self_s"] = setup["self_s"]["fileio.dump"]
    for name in THREADED_LAYERS:
        metrics[f"{name}.self_s_2t"] = ratio(t2["self_s"][name], len(subset))
    for name in CALL_COUNT_LAYERS:
        metrics[f"{name}.calls"] = per_op(t1["calls"][name])
    for name, _ in COUNTERS:
        metrics[name] = per_op(t1["counts"][name])
    counts = t1["counts"]
    metrics["noncoop.pareto_filter.kept_ratio"] = ratio(
        counts["noncoop.pareto_filter.items_kept"], counts["noncoop.pareto_filter.items_in"]
    )
    metrics["lp.solve_lp.infeasible_ratio"] = ratio(counts["lp.solve_lp.infeasible"], t1["calls"]["lp.solve_lp"])
    metrics["coop.nucleolus.lp_calls_per_call"] = ratio(t1["nucleolus_lps"], t1["calls"]["coop.nucleolus"])
    # traced ops/s over untraced ops/s on the same ops
    metrics["trace.overhead"] = ratio(untraced_s, traced_s)
    below_cli = sum(v for name, v in t1["self_s"].items() if name != "cli.main")
    metrics["trace.coverage"] = ratio(below_cli, traced_s)
    metrics["trace.ops"] = n1
    extra = {"traced_ops": n1, "traced_s": traced_s, "untraced_s": untraced_s, "spans": len(tracer.spans)}
    extra["fail_ratio"] = ratio(checker.failed, checker.attempted)
    return metrics, extra, {"spans": tracer.spans, "counters": tracer.counters}


# -- entry point ---------------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.PATTERNS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_optimin_source() -> None:
    """Put the tree's own src/ first on sys.path, or exit without a result."""
    package = ROOT / "src" / "optimin" / "__init__.py"
    if not package.is_file():
        sys.exit(f"error: {package.relative_to(ROOT)} not found; run from an optimin source tree")
    sys.path.insert(0, str(ROOT / "src"))


def main(argv=None) -> int:
    args = parse_args(argv)
    load_optimin_source()
    # The environment variable would override --threads inside the CLI.
    os.environ.pop("OPTIMIN_THREADS", None)
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))["digests"]
    workdir = OUT / f"inputs-{args.workload}-{args.seed}"
    # The probe before optimin is loaded: no op can have slowed it.
    probe_idle_s = statistics.median(host_probe() for _ in range(5))

    clock, optimin, seq, warm = set_up(args.workload, args.seed, workdir)
    src = (ROOT / "src").resolve()
    if Path(optimin.__file__).resolve().parent.parent != src:
        sys.exit(f"error: imported optimin from {optimin.__file__}, not from {src}")
    cli = sys.modules["optimin.cli"]

    checker = Checker(reference)
    if args.trace:
        metrics, extra, detail = traced_run(args, optimin, cli, seq, warm, str(workdir), checker)
        units = PER_LAYER_UNITS
    else:
        metrics, extra, detail = untraced_run(args, cli, seq, warm, str(workdir), checker, [clock])
        units = END_TO_END_UNITS

    rec = record(args, {"attempted": checker.attempted, "failed": checker.failed, "probe_idle_s": probe_idle_s, **extra})
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    if args.trace:
        detail = {
            "spans": ["id name start end parent op".split()] + [list(s) for s in detail["spans"]],
            "counters": [[name, op, value] for (name, op), value in detail["counters"].items()],
        }
    with open(OUT / f"run-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"record": rec, "result": result, **detail}, fh)

    for message in checker.messages:
        print(f"FAIL {message}")
    for name, unit in units.items():
        print(f"{name:42s} {metrics[name]:.6g} {unit}")
    print("record " + json.dumps(rec, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
