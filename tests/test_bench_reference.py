"""The benchmark's reports and work, checked in tier 1.

Every instance a benchmark run can time goes through `cli.main` on its argv,
as `perfbench/run.py` runs it, and its report must hash to the digest that
`perfbench/reference.json` holds for it, which `perfbench/build_reference.py`
checked against definition-direct oracles.  The work counts below hold on
any host, where the benchmark's rates move with the host's speed.
`perfbench/workloads.py` and `perfbench/reference.json` are read by path and
only read from.
"""

import contextlib
import hashlib
import io
import json

import pytest

import optimin
from optimin import cli, lp, noncoop
from conftest import PERFBENCH, bench_pool, bench_workloads


@pytest.fixture(scope="module")
def workloads():
    return bench_workloads()


def _report(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0, argv
    return out.getvalue()


def test_every_reference_digest_is_reproduced(workloads, tmp_path):
    # The 117 claim rewards, the 390 pool instances and the 3 warm-ups.
    reference = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))["digests"]
    workdir = str(tmp_path)
    instances = bench_pool(workloads, "claim", workdir)
    for kind in workloads.POOL_SIZE:
        instances += bench_pool(workloads, kind, workdir)
    for workload in workloads.PATTERNS:
        warmups = workloads.warmup(workload)
        workloads.write_inputs(optimin, warmups, workdir)
        instances += warmups
    assert sorted(inst.key for inst in instances) == sorted(reference)
    wrong = []
    for inst in instances:
        text = _report(inst.argv(workdir, 1))
        if hashlib.sha256(text.encode("utf-8")).hexdigest()[:16] != reference[inst.key]:
            wrong.append(inst.key)
    assert not wrong


class TestBenchmarkPoolWork:
    """Work counts over whole benchmark pools, pinned at their values; a
    change that lowers one updates it here and says so."""

    def test_the_mixed_grid_evaluates_only_profiles_its_payoffs_leave_open(self, workloads, tmp_path, monkeypatch):
        # 80 3x3 games at k = 4 hold 18 000 grid profiles, and each evaluated
        # profile takes one `_hull_at` call per player.
        hull_at = noncoop._hull_at
        calls = 0

        def counted(*args):
            nonlocal calls
            calls += 1
            return hull_at(*args)

        monkeypatch.setattr(noncoop, "_hull_at", counted)
        for inst in bench_pool(workloads, "mixed3", str(tmp_path)):
            _report(inst.argv(str(tmp_path), 1))
        assert calls == 2 * 5_650

    def test_the_nucleolus_pivots(self, workloads, tmp_path, monkeypatch):
        # The simplex's pivots over the 80 4-player nucleolus4 games.
        pivot = lp.fraction_free_pivot
        calls = 0

        def counted(*args):
            nonlocal calls
            calls += 1
            return pivot(*args)

        monkeypatch.setattr(lp, "fraction_free_pivot", counted)
        for inst in bench_pool(workloads, "nucleolus4", str(tmp_path)):
            _report(inst.argv(str(tmp_path), 1))
        assert calls == 2_786

    def test_the_nucleolus_fractions(self, workloads, tmp_path, count_fractions):
        # The `Fraction`s built over the 80 nucleolus4 games: a level per
        # round and the reported values; each round reads its LP's ints.
        instances = bench_pool(workloads, "nucleolus4", str(tmp_path))
        with count_fractions() as built:
            for inst in instances:
                _report(inst.argv(str(tmp_path), 1))
        assert len(built) == 533

    def test_the_core_pivots(self, workloads, tmp_path, monkeypatch):
        # The simplex's pivots over the 80 5-player core5 games.
        pivot = lp.fraction_free_pivot
        calls = 0

        def counted(*args):
            nonlocal calls
            calls += 1
            return pivot(*args)

        monkeypatch.setattr(lp, "fraction_free_pivot", counted)
        for inst in bench_pool(workloads, "core5", str(tmp_path)):
            _report(inst.argv(str(tmp_path), 1))
        assert calls == 2_684
