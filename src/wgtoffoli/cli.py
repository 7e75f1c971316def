"""Command-line driver.

Subcommands::

    wgtoffoli graph build FILE            print graph-state amplitudes
    wgtoffoli toffoli run ...             one measurement branch of a gate
    wgtoffoli toffoli enumerate ...       full branch table for a variant
    wgtoffoli toffoli success ...         exact success probability
    wgtoffoli optics run ...              photonic generation recipe
    wgtoffoli verify all                  the acceptance suite

Angles on the command line are rational multiples of pi (``--theta 1/2``
means pi/2). ``--json PATH`` writes a machine-readable report; identical
invocations produce byte-identical files. Exit codes: 0 success, 1 usage
error, 2 verification failure, 3 zero-probability branch requested.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import numpy as np

from . import angles, graphstate, optics
from .acceptance import build_report, canonical_json
from .mbqc import frame_to_operator
from .qstate import StateVector, from_amplitudes
from .toffoli import (
    LinkingByproducts,
    ResourceVariant,
    UnrecoverableLinkingError,
    ZeroProbabilityBranchError,
    branch_outputs,
    predicted_sigma,
    run_gate,
    success_probability,
    toffoli_matrix,
)
from .verify import equal_up_to_phase, is_local, process_fidelity, unit_scale

USAGE_ERROR, VERIFY_ERROR, ZERO_PROB_ERROR = 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _write_report(path: str | None, report: dict):
    if path:
        with open(path, "wb") as handle:
            handle.write(canonical_json(report) + b"\n")


def _usage_error(message: str) -> SystemExit:
    print(f"error: {message}", file=sys.stderr)
    return SystemExit(USAGE_ERROR)


def _bits(text: str, length: int, what: str) -> tuple[int, ...]:
    if len(text) != length or any(c not in "01" for c in text):
        raise _usage_error(f"{what} must be {length} bits, got {text!r}")
    return tuple(int(c) for c in text)


def _parse_theta(text: str) -> Fraction:
    try:
        return angles.parse_fraction(text)
    except ValueError as exc:
        raise _usage_error(str(exc))


def _parse_input(text: str) -> StateVector:
    if set(text) <= {"0", "1"} and len(text) == 3:
        index = int(text, 2)  # written c1 c2 t
        amps = np.zeros(8, dtype=complex)
        amps[index] = 1.0
        return StateVector(3, amps)
    try:
        with open(text) as handle:
            pairs = json.load(handle)
        return from_amplitudes([complex(re, im) for re, im in pairs]).normalized()
    except OSError as exc:
        raise _usage_error(f"cannot read input state: {exc}")
    except (ValueError, TypeError):
        raise _usage_error(
            "input must be three bits (c1 c2 t) or a JSON file of [re, im] pairs"
        )


def _amplitude_rows(state: StateVector):
    rows = []
    for index, amp in enumerate(state.amplitudes):
        bits = format(index, f"0{state.num_qubits}b")
        rows.append((bits, float(amp.real), float(amp.imag)))
    return rows


def _print_state(state: StateVector):
    print(f"{'basis':>{state.num_qubits + 2}}  {'re':>12}  {'im':>12}")
    for bits, re, im in _amplitude_rows(state):
        print(f"|{bits}>  {re:12.8f}  {im:12.8f}")


def cmd_graph_build(args) -> int:
    try:
        with open(args.file, "rb") as handle:
            graph = graphstate.from_json(handle.read())
    except OSError as exc:
        raise _usage_error(str(exc))
    except graphstate.GraphFormatError as exc:
        raise _usage_error(f"{args.file}: {exc}")
    state = graphstate.build_state(graph)
    print(f"graph with {graph.vertex_count} vertices, {len(graph.edges)} edges")
    _print_state(state)
    report = {
        "format_version": 1,
        "command": ["graph", "build"],
        "inputs": {"file": args.file},
        "results": {
            "vertices": graph.vertex_count,
            "amplitudes": [[re, im] for _, re, im in _amplitude_rows(state)],
        },
    }
    _write_report(args.json, report)
    return 0


def _gate_args(args):
    variant = ResourceVariant(args.variant, _parse_theta(args.theta))
    m = len(variant.measured_vertices)
    sx = _bits(args.sx, 3, "--sx")
    sz = _bits(args.sz, 3, "--sz")
    return variant, LinkingByproducts(sx, sz), m


def cmd_toffoli_run(args) -> int:
    variant, linking, m = _gate_args(args)
    outcome_bits = _bits(args.outcomes, m, "--outcomes")
    outcomes = dict(zip(variant.measured_vertices, outcome_bits))
    state = _parse_input(args.input)
    try:
        run = run_gate(variant, state, linking, outcomes)
    except UnrecoverableLinkingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VERIFY_ERROR
    except ZeroProbabilityBranchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ZERO_PROB_ERROR
    sigma_text = run.sigma.describe() if run.sigma else "(off-grid theta)"
    print(f"variant: {variant.kind}, theta = {angles.describe(variant.theta)}")
    print(f"branch probability: {run.probability:.10f}")
    print(f"residual: {sigma_text}")
    print(f"success (tensor-product residual): {run.success}")
    print("output state (wires c1 c2 t):")
    _print_state(run.output)
    report = {
        "format_version": 1,
        "command": ["toffoli", "run"],
        "inputs": {
            "variant": variant.kind,
            "theta": angles.describe(variant.theta),
            "input": args.input,
            "outcomes": args.outcomes,
            "sx": args.sx,
            "sz": args.sz,
        },
        "results": {
            "probability": run.probability,
            "sigma": sigma_text,
            "success": run.success,
            "amplitudes": [[re, im] for _, re, im in _amplitude_rows(run.output)],
        },
    }
    _write_report(args.json, report)
    return 0


def cmd_toffoli_enumerate(args) -> int:
    variant, linking, m = _gate_args(args)
    try:
        rows = _branch_table(variant, linking)
    except UnrecoverableLinkingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VERIFY_ERROR
    print(f"variant: {variant.kind}, sx={args.sx}, sz={args.sz}")
    header = f"{'outcomes':>{m + 2}}  {'prob':>10}  {'local':>5}  {'fidelity':>10}  residual"
    print(header)
    for row in rows:
        print(
            f"{row['outcomes']:>{m + 2}}  {row['probability']:>10.6f}  "
            f"{str(row['local']):>5}  {row['fidelity']:>10.8f}  {row['sigma']}"
        )
    report = {
        "format_version": 1,
        "command": ["toffoli", "enumerate"],
        "inputs": {
            "variant": variant.kind,
            "theta": angles.describe(variant.theta),
            "sx": args.sx,
            "sz": args.sz,
        },
        "results": {"branches": rows},
    }
    _write_report(args.json, report)
    return 0


def _branch_table(variant, linking):
    tof = toffoli_matrix()
    rows = []
    for bits, branch_op in branch_outputs(variant, linking, np.eye(8)).items():
        outcomes = dict(zip(variant.measured_vertices, bits))
        probability = float(np.vdot(branch_op[:, 0], branch_op[:, 0]).real)
        sigma = predicted_sigma(variant, outcomes, linking)
        sigma_op = frame_to_operator(sigma)
        corrected = unit_scale(np.linalg.inv(sigma_op) @ branch_op)
        rows.append(
            {
                "outcomes": "".join(map(str, bits)),
                "probability": probability,
                "local": bool(is_local(sigma_op).is_local),
                "sigma": sigma.describe(),
                "matches_prediction": bool(equal_up_to_phase(corrected, tof, 1e-10)),
                "fidelity": float(process_fidelity(corrected, tof)),
            }
        )
    return rows


def cmd_toffoli_success(args) -> int:
    variant = ResourceVariant(args.variant, _parse_theta(args.theta))
    report_obj = success_probability(variant, args.linking)
    print(
        f"p_success({variant.kind}, linking={args.linking}) = "
        f"{report_obj.p_success} = {report_obj.p_float}"
    )
    for case in report_obj.cases:
        status = (
            f"{case.local_branches}/{case.total_branches} local"
            if case.recoverable
            else "unrecoverable"
        )
        print(f"  sx={''.join(map(str, case.sx))}: {status}")
    report = {
        "format_version": 1,
        "command": ["toffoli", "success"],
        "inputs": {
            "variant": variant.kind,
            "theta": angles.describe(variant.theta),
            "linking": args.linking,
        },
        "results": {
            "p_success": str(report_obj.p_success),
            "p_success_float": report_obj.p_float,
            "branch_probability": str(report_obj.branch_probability),
            "max_uniformity_error": report_obj.max_uniformity_error,
            "cases": [
                {
                    "sx": "".join(map(str, case.sx)),
                    "recoverable": case.recoverable,
                    "local_branches": case.local_branches,
                    "total_branches": case.total_branches,
                }
                for case in report_obj.cases
            ],
        },
    }
    _write_report(args.json, report)
    return 0


def cmd_optics_run(args) -> int:
    if args.recipe:
        try:
            with open(args.recipe, "rb") as handle:
                steps = optics.steps_from_json(handle.read())
        except OSError as exc:
            raise _usage_error(str(exc))
        except optics.RecipeError as exc:
            raise _usage_error(f"{args.recipe}: {exc}")
    else:
        steps = optics.six_qubit_recipe()
    try:
        register = optics.run_recipe(steps)
    except optics.RecipeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ZERO_PROB_ERROR
    print(f"surviving modes: {sorted(register.labels)}")
    print(f"coincidence probability: {register.cumulative_prob:.12f}")
    results = {
        "modes": sorted(register.labels),
        "coincidence_probability": register.cumulative_prob,
    }
    if not args.recipe:
        from .toffoli import build_resource

        target = graphstate.build_state(build_resource(ResourceVariant("six")))
        final = optics.sorted_state(register)
        fidelity = float(abs(np.vdot(target.amplitudes, final.amplitudes)) ** 2)
        print(f"fidelity with the six-qubit resource graph: {fidelity:.12f}")
        results["fidelity"] = fidelity
    if args.sweep_outcomes:
        sweep = optics.sweep_measure_outcomes(steps)
        print("measurement-outcome branches (step index: outcome):")
        branches = []
        for overrides, prob in sweep:
            text = ",".join(f"{k}:{v}" for k, v in sorted(overrides.items()))
            print(f"  {text or '(none)'} -> {prob:.12f}")
            branches.append({"outcomes": text, "probability": prob})
        results["sweep"] = branches
    report = {
        "format_version": 1,
        "command": ["optics", "run"],
        "inputs": {"recipe": args.recipe or "built-in", "sweep": bool(args.sweep_outcomes)},
        "results": results,
    }
    _write_report(args.json, report)
    return 0


def cmd_verify_all(args) -> int:
    report = build_report()
    for criterion in report["criteria"]:
        flag = "PASS" if criterion["passed"] else "FAIL"
        print(f"{flag}  criterion {criterion['id']:>2}: {criterion['name']}")
    print("all passed" if report["all_passed"] else "FAILURES PRESENT")
    _write_report(args.json, report)
    return 0 if report["all_passed"] else VERIFY_ERROR


def _build_parser() -> _Parser:
    parser = _Parser(prog="wgtoffoli", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    graph = sub.add_parser("graph", help="graph-state utilities")
    graph_sub = graph.add_subparsers(dest="graph_command", required=True)
    build = graph_sub.add_parser("build", help="build a graph state from JSON")
    build.add_argument("file")
    build.add_argument("--json", help="write a JSON report to this path")
    build.set_defaults(func=cmd_graph_build)

    toffoli = sub.add_parser("toffoli", help="gate resources")
    toffoli_sub = toffoli.add_subparsers(dest="toffoli_command", required=True)

    def _common(p):
        p.add_argument("--variant", choices=("six", "seven", "eight"), required=True)
        p.add_argument("--theta", default="1", help="rational multiple of pi (default 1)")
        p.add_argument("--sx", default="000", help="inherited X bits, order c1 c2 t")
        p.add_argument("--sz", default="000", help="inherited Z bits, order c1 c2 t")
        p.add_argument("--json", help="write a JSON report to this path")

    run = toffoli_sub.add_parser("run", help="run one measurement branch")
    _common(run)
    run.add_argument("--input", default="000", help="three bits (c1 c2 t) or a state file")
    run.add_argument(
        "--outcomes",
        default=None,
        help="measurement outcome bits in ascending vertex order",
    )
    run.set_defaults(func=cmd_toffoli_run)

    enum = toffoli_sub.add_parser("enumerate", help="table of all outcome branches")
    _common(enum)
    enum.set_defaults(func=cmd_toffoli_enumerate)

    success = toffoli_sub.add_parser("success", help="exact success probability")
    success.add_argument("--variant", choices=("six", "seven", "eight"), required=True)
    success.add_argument("--theta", default="1")
    success.add_argument("--linking", choices=("none", "uniform"), default="none")
    success.add_argument("--json")
    success.set_defaults(func=cmd_toffoli_success)

    optics_cmd = sub.add_parser("optics", help="photonic generation recipe")
    optics_sub = optics_cmd.add_subparsers(dest="optics_command", required=True)
    optics_run = optics_sub.add_parser("run", help="execute a recipe")
    optics_run.add_argument("--recipe", help="JSON recipe file (default: built-in)")
    optics_run.add_argument("--sweep-outcomes", action="store_true")
    optics_run.add_argument("--json")
    optics_run.set_defaults(func=cmd_optics_run)

    verify = sub.add_parser("verify", help="acceptance suite")
    verify_sub = verify.add_subparsers(dest="verify_command", required=True)
    verify_all = verify_sub.add_parser("all", help="run every acceptance criterion")
    verify_all.add_argument("--json")
    verify_all.set_defaults(func=cmd_verify_all)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "outcomes", "skip") is None:
        variant = ResourceVariant(args.variant)
        args.outcomes = "0" * len(variant.measured_vertices)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except (ValueError, optics.RecipeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
