"""Self-test of the benchmark at its smallest size (``--seconds 1``).

    python3 perfbench/selftest.py

Checks, from the root of a source checkout, that:

* every workload prints each end-to-end metric of ``BENCHMARK.json`` with
  its unit, plus ``error_rate`` and the tail percentile, and passes;
* every workload's traced run prints each per-layer metric with its unit;
* traced counts repeat exactly across two ``verify-all`` runs, with
  2,144 ``reconstruct_operator`` calls per operation and 8
  ``encoded_state`` builds per branch operator;
* without the package sources the benchmark exits non-zero and prints
  no result.

Takes about two minutes; exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    args = ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(done: subprocess.CompletedProcess, expected: list[dict]) -> dict:
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    wanted = {m["name"]: m["unit"] for m in expected}
    assert printed == wanted, f"metrics differ: {set(printed) ^ set(wanted)}"
    return result


def main() -> int:
    names = [w["name"] for w in BENCH["workloads"]]
    for workload in names:
        done = bench(workload, 0)
        result_of(done, BENCH["end_to_end"])
        for label in ("metric error_rate = 0.0 ratio", "note op_tail_percentile:", "probe "):
            assert label in done.stdout, f"{workload}: no line with {label!r}"
        print(f"ok  {workload}: end-to-end metrics and units")

    counts = []
    for workload in names + ["verify-all"]:
        result = result_of(bench(workload, 1), BENCH["per_layer"])
        print(f"ok  {workload}: per-layer metrics and units")
        if workload == "verify-all":
            metrics = result["metrics"]
            exact = {name: m["value"] for name, m in metrics.items() if m["unit"] in ("count", "B")}
            counts.append(exact)
            assert metrics["qstate.reconstruct_operator.calls"]["value"] == 2144, metrics
            assert metrics["toffoli.builds_per_branch_operator"]["value"] == 8.0, metrics
    assert counts[0] == counts[1], "traced counts differ between two verify-all runs"
    print("ok  verify-all: 2144 reconstruct_operator calls, 8 builds each, counts repeat")

    # Only BENCHMARK.json and the benchmark's own files: no package to run.
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(
        ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = bench(names[0], 0, cwd=bare)
    shutil.rmtree(bare)
    assert done.returncode != 0, "benchmark succeeded without the package sources"
    assert not done.stdout.strip(), f"printed a result without sources: {done.stdout!r}"
    print("ok  no sources: non-zero exit and no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
