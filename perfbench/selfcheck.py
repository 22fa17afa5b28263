"""Quick self-check: a few ops of every workload, untraced and traced.

    python3 perfbench/selfcheck.py

Runs run.py for one second per workload and trace mode, and fails if any op's
report digest differs from the reference, if the result line is malformed,
or if a metric named in BENCHMARK.json is missing or extra.  For each
untraced run it also prints the rescaled and the raw ops per second and the
host probe during the run and before optimin was loaded (see README.md,
"What the rescaling cannot see").
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
                    "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                fails = [line for line in proc.stdout.splitlines() if line.startswith("FAIL")]
                problems.append(f"{label}: {result['failed']}/{result['attempted']} ops failed {fails}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                problems.append(f"{label}: metrics differ; missing {missing}, extra {extra}")
            print(f"ok {label}: {result['attempted']} ops checked")
            if trace == 0:
                rec = json.loads(proc.stdout.strip().splitlines()[-2].removeprefix("record "))
                print(
                    f"   ops_per_s {result['metrics']['ops_per_s']['value']:.3f} rescaled,"
                    f" {rec['raw_ops_per_s']:.3f} raw; probe {rec['probe_median_s'] * 1000:.3f} ms"
                    f" in the timed pass, {rec['probe_idle_s'] * 1000:.3f} ms before optimin was loaded"
                )
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
