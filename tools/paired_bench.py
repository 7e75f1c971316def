"""Paired-seed benchmark of two source trees, parent against change.

    python tools/paired_bench.py BASE_TREE CHANGE_TREE --workload W[,W2...] --seeds A-B \
        [--seconds S] [--out BENCH_<label>.json]

For each seed from A to B the script runs ``perfbench/run.py --workload W
--seed N --seconds S`` once in each tree, each tree with its own copy of
the benchmark, and alternates which tree runs first (the base tree goes
first on even-numbered pairs). ``--workload`` may name several workloads,
comma-separated; each workload's pairs then run in turn, on the same
seeds, and each gets its own summary block. It prints one line per run
as it finishes, then, per workload, one row per end-to-end metric of the
change tree's ``BENCHMARK.json``: the median and quartiles of each side,
the change in the median as a percentage of the base median, the number
of pairs the change won (ties count for neither side), the base's
quartile spread, whether the gain rule holds (the change wins at least
nine tenths of the pairs and the medians differ by more than the base's
quartile spread) and whether the metric is within its bound (the
change's median is worse than the base's by no more than the metric's
``bound``, a fraction of the base median). The block's last line counts
the failed operations of each side.

Both trees must be source checkouts; nothing is installed. ``S`` defaults
to ``run_seconds`` of the change tree's ``BENCHMARK.json``.

With ``--out BENCH_<label>.json``, which takes a single workload, the
script also writes the comparison as JSON: each tree's commit id (and
whether its tracked files differ from that commit), the workload, the
seeds and the seconds per run, per end-to-end metric each side's median
and quartiles, the change, the pairs won, the base spread and the gain
and bound verdicts, every run's metric values, the failed and attempted
operations of each side, the host (CPU count, load average before and
after, Python and numpy versions) and each tree's ``src/`` line count. ``tests/test_bench_files.py`` checks
that every checked-in ``BENCH_*.json`` names only workloads and metrics
that ``BENCHMARK.json`` defines.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("base", "change")


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    try:
        seeds = list(range(int(first), int(last or first) + 1))
    except ValueError:
        raise argparse.ArgumentTypeError(f"seeds must be A-B or A, got {text!r}") from None
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON result line of one benchmark run in ``tree``."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", f"{seconds:g}"],
        cwd=tree,
        capture_output=True,
        text=True,
    )
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{tree}: run.py exited {done.returncode}: {done.stderr.strip()}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, interpolated linearly."""
    ordered = sorted(values)

    def at(p: float) -> float:
        pos = p * (len(ordered) - 1)
        low = int(pos)
        high = min(low + 1, len(ordered) - 1)
        return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)

    return at(0.25), at(0.5), at(0.75)


def yes_no(flag: bool) -> str:
    return "yes" if flag else "no"


def compare(better: str, bound: float, base: list[float], change: list[float]) -> dict:
    """One end-to-end metric of both sides: quartiles, pairs won and the two verdicts."""
    b_q1, b_med, b_q3 = quartiles(base)
    c_q1, c_med, c_q3 = quartiles(change)
    sign = -1 if better == "lower" else 1
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    spread = b_q3 - b_q1
    return {
        "base": {"q1": b_q1, "median": b_med, "q3": b_q3},
        "change": {"q1": c_q1, "median": c_med, "q3": c_q3},
        "change_pct": 100 * (c_med - b_med) / b_med if b_med else None,
        "pairs_won": wins,
        "pairs": len(base),
        "base_spread": spread,
        "gain": wins >= 0.9 * len(base) and sign * (c_med - b_med) > spread,
        "within_bound": sign * (c_med - b_med) >= -bound * abs(b_med),
        "bound": bound,
    }


def summary_row(name: str, row: dict) -> str:
    base, change = row["base"], row["change"]
    percent = float("nan") if row["change_pct"] is None else row["change_pct"]
    return (
        f"{name:<12} base {base['median']:.6g} [{base['q1']:.6g}-{base['q3']:.6g}]  "
        f"change {change['median']:.6g} [{change['q1']:.6g}-{change['q3']:.6g}]  {percent:+.1f}%  "
        f"won {row['pairs_won']}/{row['pairs']}  base spread {row['base_spread']:.3g}  "
        f"gain {yes_no(row['gain'])}  "
        f"within bound {yes_no(row['within_bound'])} ({row['bound']:.0%})"
    )


def tree_facts(tree: Path) -> dict:
    """The commit a tree is checked out at, whether its tracked files differ, its ``src/`` lines."""
    def git(*args: str) -> str | None:
        done = subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else None

    own_checkout = git("rev-parse", "--show-toplevel") == str(tree)
    commit = git("rev-parse", "HEAD") if own_checkout else None
    dirty = bool(git("status", "--porcelain", "--untracked-files=no")) if commit else None
    lines = sum(len(path.read_bytes().splitlines()) for path in (tree / "src").rglob("*.py"))
    return {"commit": commit, "dirty": dirty, "src_lines": lines}


def bench_record(spec: dict, args, seconds: float, trees: dict, results: dict, loads) -> dict:
    """The ``--out`` document of one paired comparison."""
    metrics = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        base, change = ([r["metrics"][name]["value"] for r in results[side]] for side in SIDES)
        metrics[name] = {"unit": metric["unit"], "better": metric["better"]}
        metrics[name].update(compare(metric["better"], metric["bound"], base, change))
    return {
        "workload": args.workload,
        "seeds": args.seeds,
        "seconds": seconds,
        "trees": {side: tree_facts(trees[side]) for side in SIDES},
        "metrics": metrics,
        "runs": {
            side: [
                {"seed": seed, "failed": r["failed"], "attempted": r["attempted"],
                 "metrics": {m["name"]: r["metrics"][m["name"]]["value"] for m in spec["end_to_end"]}}
                for seed, r in zip(args.seeds, results[side])
            ]
            for side in SIDES
        },
        "failed": {side: sum(r["failed"] for r in results[side]) for side in SIDES},
        "attempted": {side: sum(r["attempted"] for r in results[side]) for side in SIDES},
        "host": {
            "cpu_count": os.cpu_count(),
            "load_average": {"before": loads[0], "after": loads[1]},
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="source tree of the parent")
    parser.add_argument("change", type=Path, help="source tree of the change")
    parser.add_argument("--workload", required=True, help="W, or W1,W2,... run in turn")
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="A-B, inclusive")
    parser.add_argument("--seconds", type=float, help="per run (default: run_seconds)")
    parser.add_argument("--out", type=Path, help="also write the comparison as JSON here")
    args = parser.parse_args()
    workloads = args.workload.split(",")
    if args.out and len(workloads) > 1:
        parser.error("--out takes a single workload")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    unknown = sorted(set(workloads) - {w["name"] for w in spec["workloads"]})
    if unknown:
        parser.error(f"unknown workload(s) {', '.join(unknown)}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    trees = dict(zip(SIDES, (args.base.resolve(), args.change.resolve())))

    for workload in workloads:
        load_before = list(os.getloadavg())
        results = {side: [] for side in SIDES}
        for pair, seed in enumerate(args.seeds):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                result = run_once(trees[side], workload, seed, seconds)
                results[side].append(result)
                shown = " ".join(
                    f"{name}={entry['value']:.6g}" for name, entry in result["metrics"].items()
                )
                print(f"{workload} pair {pair + 1} seed {seed} {side} "
                      f"failed {result['failed']} {shown}", flush=True)
        one = argparse.Namespace(**{**vars(args), "workload": workload})
        record = bench_record(
            spec, one, seconds, trees, results, (load_before, list(os.getloadavg()))
        )

        print(f"workload {workload} seeds {args.seeds[0]}-{args.seeds[-1]} "
              f"seconds {seconds:g} pairs {len(args.seeds)}")
        for name, row in record["metrics"].items():
            print(summary_row(name, row))
        print(" ".join(
            f"{side} failed {record['failed'][side]}/{record['attempted'][side]}" for side in SIDES
        ))
        if args.out:
            args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
