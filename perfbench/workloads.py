"""Seeded workloads: the operation lists the benchmark times, and their checks.

A workload is a list of ``Op`` objects. ``Op.run`` calls into the package
with inputs made here from the seed; ``Op.check`` compares the result with
an oracle from ``oracles.py`` and returns a message on a mismatch.
``wgtoffoli`` is imported inside ``build`` only, so this module's
metadata can be read without importing the code under test. Every call
into the package goes through a module attribute (``graphstate.build_state``,
not a name imported once), so the tracer's wrappers see it.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import numpy as np

import oracles

# name -> number of fresh processes per run. Each gives one cold pass
# and then warm passes for its share of ``--seconds``. An optics cold
# pass takes about 7 ms, so that workload gets nine for a steady median.
# One ``verify all`` pass takes 7-15 s, so it gets one: a cold and a warm
# pass. Scaled to the reference host speed, a pass that long repeats
# within a few percent.
COLD_RUNS = {
    # The whole ``wgtoffoli verify all``: the command users wait on longest.
    # Branch-operator extraction (reconstruct_operator -> 8 encoded_state
    # builds per branch) dominates, so a batched branch engine shows here.
    "verify-all": 1,
    # Exact success accounting for the paper's table: one state per branch,
    # with the frame algebra (predicted_sigma, frame_compose) near half the
    # time. A frame-algebra change shows here; a batched engine barely does.
    "success-accounting": 5,
    # Seeded 8-12 vertex weighted graphs through from_json -> build_state ->
    # enumerate_branches: the only workload where the qstate kernels do
    # array work (4-64 KiB states). toffoli is not used here at all.
    "large-graphs": 5,
    # The photonic recipe, its outcome sweep and a JSON round trip: the only
    # workload that exercises the optics layer, which is <0.1% of verify-all.
    "optics-recipe": 9,
}


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]


def build(workload: str, seed: int) -> list[Op]:
    """The operation list of one pass, in the order the seed gives."""
    ops = {
        "verify-all": _verify_all,
        "success-accounting": _success_accounting,
        "large-graphs": _large_graphs,
        "optics-recipe": _optics_recipe,
    }[workload](seed)
    random.Random(seed).shuffle(ops)
    return ops


# --- verify-all ---


def _verify_all(seed: int) -> list[Op]:
    # build_report takes no inputs; the seed only orders the (single) op.
    from wgtoffoli import acceptance

    def check(report) -> str | None:
        if report["all_passed"] is not True:
            failed = [c["id"] for c in report["criteria"] if not c["passed"]]
            return f"criteria {failed} failed"
        counts = {
            c["id"]: c["details"]["branches_checked"]
            for c in report["criteria"]
            if c["id"] in oracles.VERIFY_BRANCHES
        }
        if counts != oracles.VERIFY_BRANCHES:
            return f"branches_checked {counts} != {oracles.VERIFY_BRANCHES}"
        return None

    return [Op("build_report", lambda: acceptance.build_report(), check)]


# --- success-accounting ---

SUCCESS_CASES = [
    ("six", Fraction(1)),
    ("seven", Fraction(1)),
    ("eight", Fraction(1)),
    ("six", Fraction(1, 2)),
    ("six", Fraction(3, 2)),
]


def _success_accounting(seed: int) -> list[Op]:
    from wgtoffoli import toffoli

    def op(kind: str, theta: Fraction, model: str) -> Op:
        expected = oracles.PAPER_SUCCESS[(kind, model)]

        def run():
            variant = toffoli.ResourceVariant(kind, theta)
            return toffoli.success_probability(variant, model, check_uniformity=True)

        def check(report) -> str | None:
            if not report.uniformity_checked:
                return "uniformity check skipped"
            if report.p_success != expected:
                return f"p = {report.p_success}, paper gives {expected}"
            return None

        return Op(f"{kind}/theta={theta}/{model}", run, check)

    return [
        op(kind, theta, model)
        for kind, theta in SUCCESS_CASES
        for model in ("none", "uniform")
    ]


# --- large-graphs ---

# (vertices, measured vertices) per document. The shapes are fixed so that
# every seed does about the same amount of work; the seed draws the edges,
# weights, inputs, measured vertices and their order, bases and adaptive
# rules. Each shape appears DOCS_PER_SHAPE times, which evens out how the
# drawn measurement order moves the cost of one document.
GRAPH_SHAPES = [(8, 4), (9, 5), (10, 6), (11, 6), (12, 8), (12, 7), (10, 7)]
DOCS_PER_SHAPE = 3
RATIONAL_ANGLES = [
    Fraction(n, d)
    for n, d in ((1, 4), (1, 2), (3, 4), (1, 1), (1, 3), (2, 3), (-1, 2), (5, 4), (-1, 8))
]
BRANCHES_CHECKED = 4


def _angle(rng: random.Random):
    """A rational multiple of pi or a float in radians, never 0 mod 2*pi."""
    if rng.random() < 0.5:
        return rng.choice(RATIONAL_ANGLES)
    return rng.uniform(0.2, 2 * math.pi - 0.2)


def _angle_json(angle):
    if isinstance(angle, Fraction):
        return {"pi_num": angle.numerator, "pi_den": angle.denominator}
    return angle


def graph_document(rng: random.Random, n: int):
    """A random connected weighted graph as the package's JSON document."""
    order = list(range(n))
    rng.shuffle(order)
    edges = {}
    for k in range(1, n):  # spanning tree, then extra edges up to 3n/2
        a, b = order[k], order[rng.randrange(k)]
        edges[(min(a, b), max(a, b))] = _angle(rng)
    while len(edges) < n + n // 2:
        a, b = rng.sample(range(n), 2)
        edges.setdefault((min(a, b), max(a, b)), _angle(rng))
    hadamard = sorted(rng.sample(range(n), n // 4))
    doc = {
        "vertices": n,
        "edges": [[i, j, _angle_json(w)] for (i, j), w in sorted(edges.items())],
        "inputs": {str(v): {"role": "none", "basis": "hadamard"} for v in hadamard},
    }
    edge_list = [(i, j, oracles.radians(w)) for (i, j), w in sorted(edges.items())]
    return json.dumps(doc).encode(), edge_list, hadamard


def pattern_spec(rng: random.Random, n: int, m: int):
    """Steps ``(vertex, alpha, hadamard, depends_on)`` in measurement order.

    A step with ``depends_on`` set flips the sign of its angle when that
    earlier vertex gave outcome 1, the usual MBQC feed-forward.
    """
    spec = []
    for k, v in enumerate(rng.sample(range(n), m)):
        depends_on = spec[rng.randrange(k)][0] if k and rng.random() < 0.5 else None
        spec.append((v, _angle(rng), rng.random() < 0.3, depends_on))
    return spec


def _resolve(spec, outcomes):
    """Oracle side of the adaptive rule: the kets each step projects onto."""
    kets = {}
    for v, alpha, hadamard, dep in spec:
        sign = -1 if dep is not None and outcomes[dep] else 1
        kets[v] = oracles.measurement_ket(sign * oracles.radians(alpha), hadamard, outcomes[v])
    return kets


def _large_graphs(seed: int) -> list[Op]:
    from wgtoffoli import graphstate, mbqc

    def to_pattern(spec):
        steps = []
        for v, alpha, hadamard, dep in spec:
            plain = mbqc.MeasurementBasis(alpha, hadamard)
            if dep is None:
                steps.append(mbqc.PatternStep(v, plain))
                continue
            flipped = mbqc.MeasurementBasis(-alpha, hadamard)
            steps.append(
                mbqc.PatternStep(v, lambda seen, d=dep, f=flipped, p=plain: f if seen[d] else p)
            )
        return mbqc.Pattern(steps)

    rng = random.Random(seed)
    ops = []
    for n, m in GRAPH_SHAPES * DOCS_PER_SHAPE:
        doc, edges, hadamard = graph_document(rng, n)
        spec = pattern_spec(rng, n, m)
        pattern = to_pattern(spec)
        picks = rng.sample(range(1 << m), BRANCHES_CHECKED)

        def run(doc=doc, pattern=pattern):
            state = graphstate.build_state(graphstate.from_json(doc))
            return state, mbqc.enumerate_branches(state, pattern)

        ops.append(Op(f"graph-{n}v-{m}m", run, _graph_check(n, m, edges, hadamard, spec, picks)))
    return ops


def _graph_check(n, m, edges, hadamard, spec, picks):
    expected = {}  # filled on first use, then reused by every pass

    def check(result) -> str | None:
        state, branches = result
        if not expected:
            expected["state"] = oracles.graph_state(n, edges, set(hadamard))
            for index in picks:
                bits = [(index >> (m - 1 - k)) & 1 for k in range(m)]
                outcomes = {v: b for (v, *_), b in zip(spec, bits)}
                out = oracles.project_branch(expected["state"], n, _resolve(spec, outcomes))
                expected[index] = (outcomes, out)
        if np.max(np.abs(state.amplitudes - expected["state"])) > 1e-10:
            return "graph state differs from the dense re-derivation"
        if len(branches) != 1 << m:
            return f"{len(branches)} branches, expected {1 << m}"
        total = math.fsum(p for _, p, _ in branches)
        if abs(total - 1.0) > 1e-9:
            return f"branch probabilities sum to {total}"
        for index in picks:
            outcomes, out = expected[index]
            got_outcomes, probability, final = branches[index]
            if got_outcomes != outcomes:
                return f"branch {index} has outcomes {got_outcomes}, expected {outcomes}"
            if np.max(np.abs(final.amplitudes - out)) > 1e-10:
                return f"branch {outcomes} differs from the einsum projection"
            if abs(probability - np.vdot(out, out).real) > 1e-10:
                return f"branch {outcomes} has probability {probability}"
        return None

    return check


# --- optics-recipe ---

# The built-in six-qubit recipe as a document the benchmark owns:
# (op, modes, extra fields). The seed relabels its modes before the JSON
# round trip, so the program sees a recipe it has not built itself.
RECIPE = [
    ("source", (2, 1), {"gamma": Fraction(1, 2)}),
    ("source", (6, 7), {"gamma": Fraction(1, 2)}),
    ("fuse", (1, 6), {"h_on": 6}),
    ("reset", (4,), {}),
    ("fuse", (6, 4), {"h_on": 4}),
    ("measure", (6,), {"basis": (Fraction(-1, 4), True), "outcome": 0}),
    ("rotate", (1,), {"angle": Fraction(-1, 4)}),
    ("rotate", (4,), {"angle": Fraction(-1, 4)}),
    ("reset", (6,), {}),
    ("fuse", (6, 2), {"h_on": 6}),
    ("source", (3, 5), {"gamma": Fraction(1)}),
    ("fuse", (4, 3), {"h_on": 3}),
    ("fuse", (3, 6), {"h_on": 6}),
    ("fuse", (6, 7), {"h_on": 7}),
    ("fuse", (5, 7), {"h_on": 7}),
    ("measure", (7,), {"basis": "computational", "outcome": 0}),
]
RECIPE_VERTICES = (1, 2, 3, 4, 5, 6)  # live modes at the end = graph vertices


def recipe_document(relabel: dict[int, int]) -> bytes:
    steps = []
    for op, modes, extra in RECIPE:
        entry = {"op": op}
        if op in ("source", "fuse"):
            entry["modes"] = [relabel[m] for m in modes]
        else:
            entry["mode"] = relabel[modes[0]]
        for key, value in extra.items():
            if key == "h_on":
                value = relabel[value]
            elif key == "basis" and value != "computational":
                value = {"alpha": _angle_json(value[0]), "hadamard": value[1]}
            elif isinstance(value, Fraction):
                value = _angle_json(value)
            entry[key] = value
        steps.append(entry)
    return json.dumps({"steps": steps}).encode()


def six_qubit_target(relabel: dict[int, int]) -> np.ndarray:
    """The resource graph state with vertices in ascending relabelled order."""
    position = {v: k for k, v in enumerate(sorted(RECIPE_VERTICES, key=relabel.get))}
    edges = [(position[a], position[b], w) for a, b, w in oracles.SIX_QUBIT_EDGES]
    return oracles.graph_state(len(RECIPE_VERTICES), edges)


def _optics_recipe(seed: int) -> list[Op]:
    from wgtoffoli import optics

    rng = random.Random(seed)
    modes = sorted({m for _, ms, _ in RECIPE for m in ms})
    relabel = dict(zip(modes, rng.sample(range(1, 4 * len(modes)), len(modes))))
    document = recipe_document(relabel)
    targets = {
        "builtin": six_qubit_target({m: m for m in modes}),
        "relabelled": six_qubit_target(relabel),
    }

    def check_register(target):
        def check(result) -> str | None:
            probability, final = result
            if abs(probability - oracles.COINCIDENCE_PROBABILITY) > 1e-12:
                return f"coincidence probability {probability}, expected 2^-9"
            f = oracles.fidelity(targets[target], final.amplitudes)
            if f < 1 - 1e-10:
                return f"fidelity {f} with the six-qubit graph state"
            return None

        return check

    def run_builtin():
        register = optics.run_recipe(optics.six_qubit_recipe())
        return register.cumulative_prob, optics.sorted_state(register)

    def run_roundtrip():
        steps = optics.steps_from_json(optics.steps_to_json(optics.steps_from_json(document)))
        register = optics.run_recipe(steps)
        return register.cumulative_prob, optics.sorted_state(register)

    def check_sweep(sweep) -> str | None:
        # Every measured photon sits in an X-Y plane basis on a graph-state
        # vertex, so each of the four outcome branches is equally likely.
        if len(sweep) != 4:
            return f"{len(sweep)} outcome branches, expected 4"
        for overrides, probability in sweep:
            if abs(probability - oracles.COINCIDENCE_PROBABILITY) > 1e-12:
                return f"outcomes {overrides}: probability {probability}, expected 2^-9"
        return None

    def run_sweep():
        return optics.sweep_measure_outcomes(optics.six_qubit_recipe())

    return [
        Op("run_recipe", run_builtin, check_register("builtin")),
        Op("sweep_measure_outcomes", run_sweep, check_sweep),
        Op("json_roundtrip", run_roundtrip, check_register("relabelled")),
    ]
