"""Span tracing from outside the package, for the per-layer metrics.

``Tracer.install`` replaces each listed public function with a wrapper in
every ``wgtoffoli`` module namespace that binds it (``graphstate``,
``toffoli`` and ``acceptance`` import by name), and in
``acceptance.CHECKS``. A wrapper records one span: name, start, end,
parent span and the id of the operation that was running. Spans stay in
memory until ``write`` saves them; self time is a span's duration minus
the time its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

import numpy as np

LAYERS = {
    "qstate": [
        "reconstruct_operator",
        "apply_cz_theta",
        "project",
        "apply_operator",
        "reorder_qubits",
    ],
    "graphstate": ["build_state_with_input", "build_state", "from_json"],
    "mbqc": [
        "run_branch",
        "enumerate_branches",
        "basis_states",
        "frame_compose",
        "frame_to_operator",
    ],
    "toffoli": [
        "encoded_state",
        "measurement_program",
        "predicted_sigma",
        "success_probability",
        "verify_branch_uniformity",
        "run_gate",
    ],
    "verify": ["is_local", "equal_up_to_phase", "unit_scale", "process_fidelity"],
    "optics": ["run_recipe", "fuse", "sweep_measure_outcomes", "steps_from_json", "sorted_state"],
}
# Kernels whose computed traffic is 16 B per amplitude read and written.
KERNELS = {"apply_cz_theta", "project", "apply_operator", "reorder_qubits"}
# Called ~10^5 times per verify pass, so it is counted without a span.
COUNTED = ("angles", "radians")
ACCEPTANCE_CHECKS = 9


def metric_names() -> list[str]:
    """Every per-layer metric, in output order, for any workload."""
    names = []
    for module, functions in LAYERS.items():
        for fn in functions:
            names += [f"{module}.{fn}.calls", f"{module}.{fn}.self_s"]
        names.append(f"{module}.errors")
    names += [f"acceptance.check_{i}.total_s" for i in range(1, ACCEPTANCE_CHECKS + 1)]
    names += ["acceptance.errors", "qstate.computed_bytes", "toffoli.builds_per_branch_operator"]
    names += ["angles.radians.calls", "angles.errors", "trace_overhead_ratio"]
    return names


UNITS = {"calls": "count", "self_s": "s", "total_s": "s", "errors": "count"}


def unit_of(name: str) -> str:
    special = {
        "qstate.computed_bytes": "B",
        "toffoli.builds_per_branch_operator": "ratio",
        "trace_overhead_ratio": "ratio",
    }
    return special.get(name) or UNITS[name.rsplit(".", 1)[1]]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # (name id, parent index, op id, start ns, end ns)
        self.stack = [-1]
        self.op = -1
        self.errors: dict[str, int] = defaultdict(int)
        self.radians_calls = 0
        self.computed_bytes = 0
        self._undo: list = []  # (module, attribute, original)
        self._checks: list = []

    # --- installing wrappers ---

    def install(self):
        from wgtoffoli import acceptance

        pkg = sys.modules["wgtoffoli"]
        wrappers = {}
        for module, functions in LAYERS.items():
            mod = sys.modules[f"wgtoffoli.{module}"]
            for fn in functions:
                original = getattr(mod, fn)
                wrappers[id(original)] = self._span_wrapper(
                    original, f"{module}.{fn}", module, fn in KERNELS
                )
        for index, check in enumerate(acceptance.CHECKS, start=1):
            wrappers[id(check)] = self._span_wrapper(
                check, f"acceptance.check_{index}", "acceptance", False
            )
        module, fn = COUNTED
        original = getattr(sys.modules[f"wgtoffoli.{module}"], fn)
        wrappers[id(original)] = self._count_wrapper(original, module)

        namespaces = [pkg] + [m for name, m in sys.modules.items() if name.startswith("wgtoffoli.")]
        for mod in namespaces:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])
        self._checks = list(acceptance.CHECKS)
        acceptance.CHECKS[:] = [wrappers[id(c)] for c in self._checks]

    def uninstall(self):
        from wgtoffoli import acceptance

        for mod, attr, value in self._undo:
            setattr(mod, attr, value)
        self._undo.clear()
        acceptance.CHECKS[:] = self._checks

    def _span_wrapper(self, fn, name, module, kernel):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, errors = self.spans, self.stack, self.errors

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[module] += 1
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name_id, parent, self.op, start, end)
            if kernel:
                self.computed_bytes += 16 * (args[0].amplitudes.size + result.amplitudes.size)
            return result

        return wrapper

    def _count_wrapper(self, fn, module):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.radians_calls += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.errors[module] += 1
                raise

        return wrapper

    # --- results ---

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics per traced pass (every pass does the same work)."""
        out = dict.fromkeys(metric_names(), 0.0)
        if self.spans:
            table = np.array(self.spans, dtype=np.int64)
            name, parent = table[:, 0], table[:, 1]
            duration = table[:, 4] - table[:, 3]
            has_parent = parent >= 0
            covered = np.zeros(len(table), dtype=np.int64)
            np.add.at(covered, parent[has_parent], duration[has_parent])
            self_ns = np.bincount(name, weights=duration - covered, minlength=len(self.names))
            total_ns = np.bincount(name, weights=duration, minlength=len(self.names))
            calls = np.bincount(name, minlength=len(self.names))
            for k, label in enumerate(self.names):
                if label.startswith("acceptance."):
                    out[f"{label}.total_s"] = total_ns[k] / 1e9 / passes
                else:
                    out[f"{label}.calls"] = calls[k] / passes
                    out[f"{label}.self_s"] = self_ns[k] / 1e9 / passes
            out["toffoli.builds_per_branch_operator"] = self._builds_per_operator(name, parent)
        for module in list(LAYERS) + ["acceptance", "angles"]:
            out[f"{module}.errors"] = self.errors[module] / passes
        out["qstate.computed_bytes"] = self.computed_bytes / passes
        out["angles.radians.calls"] = self.radians_calls / passes
        return out

    def _builds_per_operator(self, name, parent) -> float:
        """encoded_state spans under reconstruct_operator, per reconstruct call."""
        rebuild = self.names.index("qstate.reconstruct_operator")
        encode = self.names.index("toffoli.encoded_state")
        calls = int(np.sum(name == rebuild))
        if calls == 0:
            return 0.0
        names, parents = name.tolist(), parent.tolist()
        under = [False] * len(names)
        builds = 0
        # A parent is always recorded before its children, so one forward
        # sweep settles every span's ancestry.
        for k, p in enumerate(parents):
            if p >= 0 and (under[p] or names[p] == rebuild):
                under[k] = True
                builds += names[k] == encode
        return builds / calls

    def write(self, path: Path):
        """Save every span as tab-separated text, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tparent\top\tname\tstart_ns\tend_ns\n")
            for k, (n, p, op, start, end) in enumerate(self.spans):
                out.write(f"{k}\t{p}\t{op}\t{self.names[n]}\t{start}\t{end}\n")
