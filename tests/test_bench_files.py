"""Checked-in ``BENCH_*.json`` files, and the names the benchmark's tracer wraps.

Each file is the ``--out`` document of ``tools/paired_bench.py``; it must
parse, name only a workload and metrics the benchmark defines, and have
an entry in the README's "Performance" list. The names
``perfbench/tracer.py`` wraps must exist in ``wgtoffoli``: its constants
are read from the source, which is neither run nor changed.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import re
import typing
from argparse import Namespace
from pathlib import Path

import pytest

from wgtoffoli import acceptance
from wgtoffoli.qstate import StateVector

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {workload["name"] for workload in SPEC["workloads"]}
METRICS = {metric["name"] for metric in SPEC["end_to_end"] + SPEC["per_layer"]}
SIDES = ("base", "change")


def undefined_names(doc: dict) -> list[str]:
    """Every workload or metric name in ``doc`` that ``BENCHMARK.json`` does not define."""
    names = [] if doc["workload"] in WORKLOADS else [doc["workload"]]
    names += [name for name in doc["metrics"] if name not in METRICS]
    for side in SIDES:
        for run in doc["runs"][side]:
            names += [name for name in run["metrics"] if name not in METRICS]
    return names


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda path: path.name)
def test_bench_file_names_only_benchmark_workloads_and_metrics(path):
    doc = json.loads(path.read_text())
    assert undefined_names(doc) == []
    assert len(doc["seeds"]) == doc["metrics"]["wall_s"]["pairs"]
    for side in SIDES:
        assert len(doc["runs"][side]) == len(doc["seeds"])
        assert doc["trees"][side]["src_lines"] > 0


def test_readme_performance_lists_every_bench_file():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Performance\n", 1)[1].split("\n## ", 1)[0]
    listed = set(re.findall(r"^- `(BENCH_\w+\.json)`", section, flags=re.MULTILINE))
    assert listed == {path.name for path in ROOT.glob("BENCH_*.json")}


def test_paired_bench_record_passes_the_file_check():
    spec = importlib.util.spec_from_file_location("paired_bench", ROOT / "tools" / "paired_bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    run = {
        "failed": 0,
        "attempted": 1,
        "metrics": {metric["name"]: {"value": 1.0} for metric in SPEC["end_to_end"]},
    }
    args = Namespace(workload="verify-all", seeds=[1, 2])
    trees = dict.fromkeys(SIDES, ROOT)
    record = bench.bench_record(SPEC, args, 5.0, trees, {side: [run, run] for side in SIDES}, ([0.0], [0.0]))
    doc = json.loads(json.dumps(record))
    assert undefined_names(doc) == []
    assert doc["metrics"]["wall_s"]["pairs_won"] == 0
    assert doc["trees"]["change"]["src_lines"] > 0


def tracer_constants() -> dict:
    """The literal top-level constants of ``perfbench/tracer.py``, read without running it."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    constants = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id.isupper():
                constants[target.id] = ast.literal_eval(node.value)
    return constants


def test_tracer_names_resolve_in_the_package():
    # A name the tracer cannot resolve crashes `perfbench/run.py --trace 1` at Tracer.install.
    tracer = tracer_constants()
    traced = [(module, fn) for module, functions in tracer["LAYERS"].items() for fn in functions]
    traced.append(tracer["COUNTED"])
    missing = [
        f"{module}.{fn}"
        for module, fn in traced
        if not callable(getattr(importlib.import_module(f"wgtoffoli.{module}"), fn, None))
    ]
    assert missing == []
    # The kernel hook sizes its first argument and its result as StateVectors.
    for name in tracer["KERNELS"]:
        kernels = [
            getattr(importlib.import_module(f"wgtoffoli.{module}"), fn)
            for module, fn in traced
            if fn == name
        ]
        assert kernels, f"kernel {name} is not traced"
        for kernel in kernels:
            hints = typing.get_type_hints(kernel)
            first = next(iter(inspect.signature(kernel).parameters))
            assert hints.get(first) is hints.get("return") is StateVector, name
    assert len(acceptance.CHECKS) == tracer["ACCEPTANCE_CHECKS"]
