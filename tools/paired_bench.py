"""Paired-seed benchmark of two source trees, parent against change.

    python tools/paired_bench.py BASE_TREE CHANGE_TREE --workload W --seeds A-B [--seconds S]

For each seed from A to B the script runs ``perfbench/run.py --workload W
--seed N --seconds S`` once in each tree, each tree with its own copy of
the benchmark, and alternates which tree runs first (the base tree goes
first on even-numbered pairs). It prints one line per run as it finishes,
then one row per end-to-end metric of the change tree's
``BENCHMARK.json``: the median and quartiles of each side, the change in
the median as a percentage of the base median, the number of pairs the
change won (ties count for neither side), the base's quartile spread,
whether the gain rule holds (the change wins at least nine tenths of the
pairs and the medians differ by more than the base's quartile spread) and
whether the metric is within its bound (the change's median is worse than
the base's by no more than the metric's ``bound``, a fraction of the base
median). The last line counts the failed operations of each side.

Both trees must be source checkouts; nothing is installed. ``S`` defaults
to ``run_seconds`` of the change tree's ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

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


def summary_row(
    name: str, better: str, bound: float, base: list[float], change: list[float]
) -> str:
    b_q1, b_med, b_q3 = quartiles(base)
    c_q1, c_med, c_q3 = quartiles(change)
    sign = -1 if better == "lower" else 1
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    spread = b_q3 - b_q1
    gain = wins >= 0.9 * len(base) and sign * (c_med - b_med) > spread
    within = sign * (c_med - b_med) >= -bound * abs(b_med)
    percent = 100 * (c_med - b_med) / b_med if b_med else float("nan")
    return (
        f"{name:<12} base {b_med:.6g} [{b_q1:.6g}-{b_q3:.6g}]  "
        f"change {c_med:.6g} [{c_q1:.6g}-{c_q3:.6g}]  {percent:+.1f}%  "
        f"won {wins}/{len(base)}  base spread {spread:.3g}  gain {yes_no(gain)}  "
        f"within bound {yes_no(within)} ({bound:.0%})"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="source tree of the parent")
    parser.add_argument("change", type=Path, help="source tree of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="A-B, inclusive")
    parser.add_argument("--seconds", type=float, help="per run (default: run_seconds)")
    args = parser.parse_args()
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    trees = dict(zip(SIDES, (args.base.resolve(), args.change.resolve())))

    results = {side: [] for side in SIDES}
    for pair, seed in enumerate(args.seeds):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            result = run_once(trees[side], args.workload, seed, seconds)
            results[side].append(result)
            shown = " ".join(
                f"{name}={entry['value']:.6g}" for name, entry in result["metrics"].items()
            )
            print(f"pair {pair + 1} seed {seed} {side} failed {result['failed']} {shown}", flush=True)

    print(f"workload {args.workload} seeds {args.seeds[0]}-{args.seeds[-1]} "
          f"seconds {seconds:g} pairs {len(args.seeds)}")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        base, change = ([r["metrics"][name]["value"] for r in results[side]] for side in SIDES)
        print(summary_row(name, metric["better"], metric["bound"], base, change))
    failed = {side: sum(r["failed"] for r in results[side]) for side in SIDES}
    attempted = {side: sum(r["attempted"] for r in results[side]) for side in SIDES}
    print(" ".join(f"{side} failed {failed[side]}/{attempted[side]}" for side in SIDES))
    return 0


if __name__ == "__main__":
    sys.exit(main())
