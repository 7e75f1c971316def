"""The wgtoffoli benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the package from
``src`` and installs nothing. With ``--trace 0`` it measures the
end-to-end metrics:

* ``setup_s``: median time for a fresh interpreter to import
  ``wgtoffoli.cli``, over several interpreters spread over the run;
* ``cold_wall_s``: the first pass over the operation list in a fresh
  process (median over the workload's fresh processes);
* ``wall_s``: a warm pass, from closed loops with one client that run
  in those processes for ``--seconds`` in all (median warm pass);
* ``op_p50_ms`` / ``op_tail_ms``: latency per warm operation: the upper
  median over the operations of each one's median, and the highest
  percentile up to p99 of all samples with at least ten samples beyond
  it (the maximum below 11 samples);
* ``peak_rss_mb``: peak resident memory, the largest of the processes.

The five times are scaled to a fixed host speed (see ``refclock.py``),
because the shared host changes speed in phases that can outlast a run;
the measured medians are printed beside them as notes.

``error_rate`` (failed / attempted) is printed with them; it is also the
``failed``/``attempted`` pair of the result. With ``--trace 1`` a
separate traced process reports the per-layer metrics of ``tracer.py``
and writes its spans under ``.perfbench/``. Every run also prints the
run context and the known-limits probe. The last stdout line is the
JSON result; the exit code is 0 only if every operation passed its check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_RUNS = 9
CHILD_TIMEOUT_S = 150
# numpy is part of set-up, so the bursts that scale the import time run
# right after it, not before.
IMPORT_TIMER = (
    "import sys, time; t = time.perf_counter(); import wgtoffoli.cli; "
    "took = time.perf_counter() - t; sys.path.insert(0, 'perfbench'); "
    "import refclock; print(took, refclock.scale(took))"
)


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def child(args: list[str]) -> str:
    """Run a Python child to completion and return its last stdout line."""
    done = subprocess.run(
        [sys.executable, *args],
        env=child_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise ChildFailed(f"{' '.join(args[:3])} exited {done.returncode}:\n{done.stderr}")
    return lines[-1]


def worker(mode: str, workload: str, seed: int, seconds: float, *extra: str) -> dict:
    line = child([str(HERE / "worker.py"), mode, workload, str(seed), str(seconds), *extra])
    return json.loads(line)


def tail(samples: list[float]) -> tuple[str, float]:
    """Highest percentile up to p99 with at least ten samples beyond it.

    Above p99 the tail of a 25 s run counts stalls of the shared host
    rather than the program, so larger runs keep 1% of samples beyond it.
    """
    n = len(samples)
    if n < 11:
        return f"max of {n}", max(samples)
    beyond = max(10, n // 100)
    return f"p{100 * (n - beyond) / n:.2f} of {n}", sorted(samples)[n - beyond - 1]


def src_lines() -> int:
    return sum(
        len(path.read_text().splitlines()) for path in (ROOT / "src").rglob("*.py")
    )


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def run_context() -> dict:
    model = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        platform.processor() or "unknown",
    )
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(f"{index}/level").strip(), _read(f"{index}/type").strip()
        if kind != "Instruction":
            caches[f"L{level}"] = _read(f"{index}/size").strip()
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg_at_start": os.getloadavg(),
        "blas_threads_in_children": 1,
        "src_lines": src_lines(),
        "note": (
            "states are capped at 12 qubits (64 KiB), far below 4x LLC, so no "
            "bandwidth or roofline figure is reported; bytes are computed, not measured"
        ),
    }


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict, list]:
    workers = workloads.COLD_RUNS[workload]
    # Set-up samples are spread over the run: some before each worker and
    # the rest at the end. The first import may compile bytecode; it is
    # dropped.
    child(["-c", IMPORT_TIMER])
    slots = [SETUP_RUNS * (k + 1) // (workers + 1) - SETUP_RUNS * k // (workers + 1)
             for k in range(workers + 1)]
    setup, runs = [], []
    for k, imports in enumerate(slots):
        setup.extend(child(["-c", IMPORT_TIMER]).split() for _ in range(imports))
        if k < workers:
            runs.append(worker("run", workload, seed, seconds / workers))
    op_s = [s for r in runs for ops in r["op_s"] for s in ops]
    label, tail_s = tail(op_s)
    # Each operation's median over the warm passes, then the upper median
    # over the operations. On success-accounting, whose operations differ
    # in cost by up to 10x, the median of the pooled samples falls in the
    # gap between two operations and jumps across it from run to run.
    per_op = zip(*(ops for r in runs for ops in r["op_s"]))
    p50_s = statistics.median_high(statistics.median(samples) for samples in per_op)
    metrics = {
        "setup_s": (statistics.median(float(scaled) for _, scaled in setup), "s"),
        "cold_wall_s": (statistics.median(r["cold_s"] for r in runs), "s"),
        "wall_s": (statistics.median(t for r in runs for t in r["pass_s"]), "s"),
        "op_p50_ms": (p50_s * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (max(r["maxrss_kb"] for r in runs) / 1000, "MB"),
    }
    notes = {
        "op_tail_percentile": label,
        "warm_passes": sum(len(r["pass_s"]) for r in runs),
        "cold_processes": len(runs),
        "setup_samples": len(setup),
        "measured_setup_s": statistics.median(float(took) for took, _ in setup),
        "measured_cold_wall_s": statistics.median(r["measured_cold_s"] for r in runs),
        "measured_wall_s": statistics.median(t for r in runs for t in r["measured_pass_s"]),
    }
    return metrics, notes, runs


def per_layer(workload: str, seed: int, seconds: float) -> tuple[dict, dict, list]:
    spans = ROOT / ".perfbench" / f"spans-{workload}.tsv.gz"
    result = worker("trace", workload, seed, seconds, str(spans))
    metrics = {
        name: (result["per_layer"][name], tracer.unit_of(name)) for name in tracer.metric_names()
    }
    notes = {"traced_passes": result["traced_passes"], "spans_file": str(spans.relative_to(ROOT))}
    return metrics, notes, [result]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.COLD_RUNS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "wgtoffoli" / "__init__.py").is_file():
        print(f"error: no wgtoffoli sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    context = run_context()
    measure = per_layer if args.trace else end_to_end
    try:
        metrics, notes, results = measure(args.workload, args.seed, args.seconds)
        probe = worker("probe", args.workload, args.seed, 0)["probe"]
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in results)
    failures = [f for r in results for f in r["failures"]]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    for key, value in context.items():
        print(f"context {key}: {value}")
    for key, value in notes.items():
        print(f"note {key}: {value}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    print(f"metric error_rate = {len(failures) / attempted!r} ratio  ({len(failures)}/{attempted})")
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    for case, outcome in probe.items():
        print(f"probe {case}: {outcome}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
