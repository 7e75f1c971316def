"""Child process of the benchmark: runs one workload and prints JSON.

    python3 perfbench/worker.py MODE WORKLOAD SEED SECONDS [SPANS_PATH]

``run.py`` starts it with ``src`` on ``PYTHONPATH`` and one BLAS thread.
Modes:

* ``run``: the cold pass, then warm passes in a closed loop until
  SECONDS, counted from the start of the cold pass, are used up (at
  least one warm pass); times are also scaled to the reference host
  speed by a ``refclock.RefClock``;
* ``trace``: the cold pass, untraced warm passes for SECONDS/2, then
  traced passes for SECONDS/2, whose spans go to SPANS_PATH (measured
  times only: no reference bursts run inside the spans);
* ``probe``: the untimed known-limits probe (WORKLOAD and SEED unused).

Each operation is timed alone and checked after its timer stops, so
oracle work never counts as program time. The last stdout line is the
result.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import workloads
from refclock import RefClock


def run_pass(ops, clock=None, tracer=None, first_op=0) -> dict:
    """Run every operation once; each starts when the previous one ends.

    With a running ``clock`` each operation also gets its time scaled to
    the reference host speed (see ``refclock``); without one the scaled
    time is the measured time.
    """
    seconds, scaled, failures = [], [], []
    for k, op in enumerate(ops):
        if tracer is not None:
            tracer.op = first_op + k
        start = perf_counter()
        error = None
        try:
            result = op.run()
        except Exception as exc:  # any raise is a failed operation
            error = exc
        if clock:
            took, fixed = clock.since(start)
        else:
            took = fixed = perf_counter() - start
        seconds.append(took)
        scaled.append(fixed)
        problem = op.check(result) if error is None else f"{type(error).__name__}: {error}"
        if problem:
            failures.append(f"{op.name}: {problem}")
    return {"wall_s": sum(seconds), "scaled_s": sum(scaled), "op_s": scaled, "failures": failures}


def run_window(ops, seconds: float, clock=None, tracer=None, start=None) -> list[dict]:
    """Closed loop of passes for ``seconds`` from ``start``; at least one pass.

    A pass starts only if one more pass as long as the last still ends
    inside the window, so a run never overshoots by a whole long pass.
    """
    passes = []
    start = perf_counter() if start is None else start
    while True:
        passes.append(run_pass(ops, clock, tracer, first_op=len(passes) * len(ops)))
        if perf_counter() - start + passes[-1]["wall_s"] > seconds:
            return passes


def probe() -> dict:
    """Known limits, printed so they stay visible; untimed and ungated.

    The timed workloads stay inside the documented limits (gadget
    variants at theta = pi, six-qubit at multiples of pi/2). Here each
    case outside them reports what the program returns today.
    """
    from fractions import Fraction

    from wgtoffoli import graphstate, qstate, toffoli

    def success(kind, theta):
        report = toffoli.success_probability(toffoli.ResourceVariant(kind, theta), "none")
        return f"p_success = {report.p_success}"

    def gate(kind, theta):
        run = toffoli.run_gate(toffoli.ResourceVariant(kind, theta), qstate.basis_state(3, 0b110))
        return f"success = {run.success}"

    def thirteen_vertices():
        doc = {"vertices": 13, "edges": [[v, v + 1, 1.0] for v in range(12)]}
        state = graphstate.build_state(graphstate.from_json(json.dumps(doc)))
        return f"built {state.amplitudes.size} amplitudes"

    cases = [
        ("success six theta=pi/4", lambda: success("six", Fraction(1, 4))),
        ("success six theta=pi/3", lambda: success("six", Fraction(1, 3))),
        ("run seven theta=pi/2 |110>", lambda: gate("seven", Fraction(1, 2))),
        ("run eight theta=pi/2 |110>", lambda: gate("eight", Fraction(1, 2))),
        ("graph with 13 vertices", thirteen_vertices),
    ]
    out = {}
    for name, case in cases:
        try:
            out[name] = case()
        except Exception as exc:  # the probe reports, it never fails the run
            out[name] = f"raised {type(exc).__name__}: {exc}"
    return out


def main(argv) -> dict:
    mode, workload, seed, seconds = argv[0], argv[1], int(argv[2]), float(argv[3])
    if mode == "probe":
        return {"probe": probe()}
    ops = workloads.build(workload, seed)
    clock = None
    if mode == "run":
        clock = RefClock()
        clock.start()
    start = perf_counter()
    passes = [run_pass(ops, clock)]
    out = {"cold_s": passes[0]["scaled_s"], "measured_cold_s": passes[0]["wall_s"]}
    if mode == "run":
        warm = run_window(ops, seconds, clock, start=start)
        clock.stop()
        passes += warm
        out["pass_s"] = [p["scaled_s"] for p in warm]
        out["measured_pass_s"] = [p["wall_s"] for p in warm]
        out["op_s"] = [p["op_s"] for p in warm]
    elif mode == "trace":
        from tracer import Tracer

        plain = run_window(ops, seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_window(ops, seconds / 2, tracer=tracer)
        finally:
            tracer.uninstall()
        passes += plain + traced
        per_layer = tracer.metrics(len(traced))
        per_layer["trace_overhead_ratio"] = statistics.median(
            p["wall_s"] for p in traced
        ) / statistics.median(p["wall_s"] for p in plain)
        out["per_layer"] = per_layer
        out["traced_passes"] = len(traced)
        tracer.write(Path(argv[4]))
    out["attempted"] = len(ops) * len(passes)
    out["failures"] = [f for p in passes for f in p["failures"]]
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return out


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
