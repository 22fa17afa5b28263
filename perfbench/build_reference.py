"""Rebuild reference.json: one report digest per instance of every pool.

    python3 perfbench/build_reference.py

Each instance's op is run once through `optimin.cli.main` at --threads 1,
in up to two worker processes, and its report is accepted only if it equals,
byte for byte, the report that `oracles.py` derives from the definitions.
Any disagreement is printed and the file is not written.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _init_worker() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def _check(task):
    """Worker: run one op, compare with the oracle; (key, digest, problem)."""
    kind, spec = task
    import optimin
    import optimin.cli

    import oracles
    import run
    import workloads

    if kind == "claim":
        inst = workloads.claim_instance(Fraction(spec))
    else:
        inst = workloads.pool_instance(kind, spec)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as workdir:
        workloads.write_inputs(optimin, [inst], workdir)
        _, text, error = run.run_op(optimin.cli, inst.argv(workdir, 1))
    if error is not None:
        return inst.key, None, error
    try:
        expected = oracles.expected_report(inst.kind, inst.data, text)
    except AssertionError as exc:
        return inst.key, None, f"oracle rejects the report: {exc}"
    if text != expected:
        return inst.key, None, f"report differs from oracle:\n{text}--- oracle ---\n{expected}"
    return inst.key, run.digest(text), None


def tasks():
    """Every instance any run can use: each workload's warm-up and whole pool."""
    sys.path.insert(0, str(HERE))
    import workloads

    out = []
    for workload in workloads.PATTERNS:
        for inst in workloads.warmup(workload) + workloads.sequence(workload, 0):
            spec = str(inst.data["reward"]) if inst.kind == "claim" else int(inst.key.split("/")[1])
            out.append((inst.kind, spec))
    return out


def main() -> int:
    (HERE / "out").mkdir(exist_ok=True)
    digests = {}
    problems = []
    todo = tasks()
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(min(2, os.cpu_count() or 1), initializer=_init_worker) as pool:
        for n, (key, digest, problem) in enumerate(pool.imap_unordered(_check, todo), 1):
            if problem is None:
                digests[key] = digest
            else:
                problems.append(key)
                print(f"MISMATCH {key}: {problem}", flush=True)
            if n % 50 == 0:
                print(f"{n}/{len(todo)} checked", flush=True)
    print(f"{len(digests)} agree with the oracles, {len(problems)} do not")
    if problems:
        return 1
    doc = {
        "about": "sha256[:16] of each op's report at --threads 1, each checked against oracles.py",
        "digests": dict(sorted(digests.items())),
    }
    (HERE / "reference.json").write_text(json.dumps(doc, indent=0) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
