"""The benchmark's tracer (perfbench/tracing.py) must still find every name it
wraps, and must see the calls made through them.  A change that removes a
traced name, or calls around it through a captured reference, fails here
rather than in a benchmark run that reports an empty layer."""

import contextlib
import io
import sys
import types
from pathlib import Path

import optimin  # noqa: F401  (loads every module the tracer wraps)
from optimin import cli, fileio, generators
from optimin.matching import MarriageProblem

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing() -> types.ModuleType:
    """Run tracing.py's source in a fresh module; nothing is written beside it."""
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_target_resolves_and_the_claim_sweep_records_gen_travelers():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.prepare()  # raises on a target it cannot find
    bound = {(owner, key) for owner, key, _, _ in tracer._bindings}
    for module, attr, _, _ in tracing.TARGETS:
        owner = sys.modules[f"optimin.{module}"]
        if "." in attr:
            cls, attr = attr.split(".")
            owner = getattr(owner, cls)
        assert (owner, attr) in bound, f"{module}.{attr} is not traced"

    original = generators.gen_travelers
    argv = ["sweep", "--family", "travelers", "--param", "r", "--from", "5/2", "--to", "5/2", "--high", "12"]
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert generators.gen_travelers is original
    names = [span[1] for span in tracer.spans]
    assert names.count("generators.gen_travelers") == 1
    assert names.count("cli.main") == 1


def test_the_tracer_sees_the_mixed_grid(tmp_path):
    path = tmp_path / "game.json"
    path.write_text(
        '{"players": ["row", "column"], "strategies": [["T", "M", "B"], ["L", "C", "R"]],'
        ' "payoffs": [[[3, "1/2"], [0, 2], [-1, 4]], [["5/3", 1], [2, -2], [0, 0]],'
        ' [[1, 3], ["-7/4", 1], [4, "2/3"]]]}'
    )
    tracer = load_tracing().Tracer()
    tracer.prepare()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["optimin", "--game", str(path), "--mixed-grid", "4"]) == 0
    finally:
        tracer.uninstall()
    names = [span[1] for span in tracer.spans]
    assert names.count("noncoop.optimin_grid_2p") == 1
    assert names.count("noncoop.pareto_filter") >= 1


def test_the_tracer_sees_a_load_through_the_cached_parser(tmp_path):
    # perfbench runs its warm-up ops untraced and only then installs the
    # tracer, so traced ops parse with a parser built before the tracer
    # existed: a loader the parser holds must look up `fileio` when called.
    path = tmp_path / "problem.json"
    prefs = {
        "a1": ("b1", "b2", "a1"), "a2": ("b1", "a2", "b2"),
        "b1": ("a2", "a1", "b1"), "b2": ("a1", "b2", "a2"),
    }
    path.write_text(fileio.dump_marriage(MarriageProblem(("a1", "a2"), ("b1", "b2"), prefs)))
    argv = ["match", "optimin", "--game", str(path)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    tracer = load_tracing().Tracer()
    tracer.prepare()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    names = [span[1] for span in tracer.spans]
    assert names.count("fileio.load") == 1
