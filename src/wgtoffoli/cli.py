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
invocations produce byte-identical files. Exit codes (``EXIT_CODES``): 0
success, 1 usage error or malformed input, 2 verification failure or an
unrecoverable linking corruption, 3 a zero-probability gate branch or a
recipe postselection with zero support.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

import numpy as np

from . import angles, graphstate, optics
from .acceptance import build_report, canonical_json, recipe_fidelity
from .mbqc import outcome_prefixes
from .qstate import StateVector, from_amplitudes, norms_sq
from .toffoli import (
    VARIANT_KINDS,
    LinkingByproducts,
    LinkingFrames,
    ResourceVariant,
    UnrecoverableLinkingError,
    ZeroProbabilityBranchError,
    branch_outputs,
    logical_target,
    run_gate,
    success_probability,
    toffoli_matrix,
)
from .verify import equal_up_to_phase, process_fidelity, unit_scale

USAGE_ERROR, VERIFY_ERROR, ZERO_PROB_ERROR = 1, 2, 3

# Most specific first: the first class an error is an instance of picks its code.
EXIT_CODES = (
    (UnrecoverableLinkingError, VERIFY_ERROR),
    (ZeroProbabilityBranchError, ZERO_PROB_ERROR),
    (optics.PostselectionError, ZERO_PROB_ERROR),
    (ValueError, USAGE_ERROR),
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _write_report(path: str | None, report: dict):
    """Write ``--json``; a path that cannot be written is a usage error."""
    if path:
        try:
            with open(path, "wb") as handle:
                handle.write(canonical_json(report) + b"\n")
        except OSError as exc:
            raise _usage_error(f"cannot write report: {exc}")


def _finish(args, command: list[str], inputs: dict, results: dict) -> int:
    """Write the ``--json`` envelope every command but ``verify all`` shares."""
    report = {"format_version": 1, "command": command, "inputs": inputs, "results": results}
    _write_report(args.json, report)
    return 0


def _usage_error(message: str) -> SystemExit:
    print(f"error: {message}", file=sys.stderr)
    return SystemExit(USAGE_ERROR)


def _bits(text: str, length: int, what: str) -> tuple[int, ...]:
    if len(text) != length or any(c not in "01" for c in text):
        raise _usage_error(f"{what} must be {length} bits, got {text!r}")
    return tuple(int(c) for c in text)


def _parse_theta(text: str) -> Fraction:
    try:
        return angles.parse_fraction(text, "--theta")
    except ValueError as exc:
        raise _usage_error(str(exc))


def _load(path: str, parse):
    """Parse a graph, recipe or ``--input`` file; a bad file is a usage error that names it."""
    try:
        with open(path, "rb") as handle:
            return parse(handle.read())
    except OSError as exc:
        raise _usage_error(str(exc))
    except ValueError as exc:
        raise _usage_error(f"{path}: {exc}")


def _parse_input(text: str) -> StateVector:
    if set(text) <= {"0", "1"}:
        if len(text) == 3:
            index = int(text, 2)  # written c1 c2 t
            amps = np.zeros(8, dtype=complex)
            amps[index] = 1.0
            return StateVector(3, amps)
        # Bits of the wrong length, such as "11": a typo, not a file name.
        if not os.path.exists(text):
            raise _usage_error(f"--input must be 3 bits (c1 c2 t) or a JSON file, got {text!r}")
    return _load(text, lambda data: angles.read_json(data, ValueError, _input_state))


def _input_state(pairs) -> StateVector:
    """The normalised state of a ``--input`` document, a list of ``[re, im]`` pairs."""
    try:
        state = from_amplitudes([complex(re, im) for re, im in pairs])
    except OverflowError:
        raise ValueError("input amplitude overflows a float; scale the amplitudes down") from None
    except (ValueError, TypeError):
        raise ValueError(
            "input must be three bits (c1 c2 t) or a JSON file of [re, im] pairs"
        ) from None
    # complex() takes true and false as 1 and 0, and nothing else but numbers.
    if not all(angles.is_json_number(part) for pair in pairs for part in pair):
        raise ValueError("input amplitudes must be numbers, not true or false")
    if not np.isfinite(state.amplitudes).all():
        raise ValueError("input amplitudes must be finite (NaN or infinity found)")
    if not np.isfinite(state.norm_sq):
        raise ValueError("input state norm overflows; scale the amplitudes down")
    if state.norm_sq == 0:
        raise ValueError("input state has zero norm (every amplitude is 0 or underflows)")
    return state.normalized()


def _print_state(state: StateVector) -> list[list[float]]:
    """Print the amplitude table; return the amplitudes as ``[re, im]`` pairs."""
    print(f"{'basis':>{state.num_qubits + 2}}  {'re':>12}  {'im':>12}")
    pairs = []
    for index, amp in enumerate(state.amplitudes):
        re, im = float(amp.real), float(amp.imag)
        print(f"|{index:0{state.num_qubits}b}>  {re:12.8f}  {im:12.8f}")
        pairs.append([re, im])
    return pairs


def cmd_graph_build(args) -> int:
    graph = _load(args.file, graphstate.from_json)
    state = graphstate.build_state(graph)
    print(f"graph with {graph.vertex_count} vertices, {len(graph.edges)} edges")
    results = {"vertices": graph.vertex_count, "amplitudes": _print_state(state)}
    return _finish(args, ["graph", "build"], {"file": args.file}, results)


def _gate_args(args):
    variant = ResourceVariant(args.variant, _parse_theta(args.theta))
    m = len(variant.measured_vertices)
    sx = _bits(args.sx, 3, "--sx")
    sz = _bits(args.sz, 3, "--sz")
    inputs = {
        "variant": variant.kind,
        "theta": angles.describe(variant.theta),
        "sx": args.sx,
        "sz": args.sz,
    }
    return variant, LinkingByproducts(sx, sz), m, inputs


def cmd_toffoli_run(args) -> int:
    variant, linking, m, inputs = _gate_args(args)
    outcome_text = "0" * m if args.outcomes is None else args.outcomes
    outcomes = dict(zip(variant.measured_vertices, _bits(outcome_text, m, "--outcomes")))
    run = run_gate(variant, _parse_input(args.input), linking, outcomes)
    sigma_text = run.sigma.describe() if run.sigma else "(off-grid theta)"
    print(f"variant: {variant.kind}, theta = {angles.describe(variant.theta)}")
    print(f"branch probability: {run.probability:.10f}")
    print(f"residual: {sigma_text}")
    print(f"success (tensor-product residual): {run.success}")
    print("output state (wires c1 c2 t):")
    results = {
        "probability": run.probability,
        "sigma": sigma_text,
        "success": run.success,
        "amplitudes": _print_state(run.output),
    }
    inputs.update(input=args.input, outcomes=outcome_text)
    return _finish(args, ["toffoli", "run"], inputs, results)


def cmd_toffoli_enumerate(args) -> int:
    variant, linking, m, inputs = _gate_args(args)
    rows = _branch_table(variant, linking)
    print(f"variant: {variant.kind}, sx={args.sx}, sz={args.sz}")
    header = f"{'outcomes':>{m + 2}}  {'prob':>10}  {'local':>5}  {'fidelity':>10}  residual"
    print(header)
    for row in rows:
        print(
            f"{row['outcomes']:>{m + 2}}  {row['probability']:>10.6f}  "
            f"{str(row['local']):>5}  {row['fidelity']:>10.8f}  {row['sigma']}"
        )
    return _finish(args, ["toffoli", "enumerate"], inputs, {"branches": rows})


def _branch_table(variant, linking):
    # The gate the resource performs; at theta = pi the exact Toffoli, which
    # logical_target matches only to 5e-16.
    target = toffoli_matrix() if variant.theta % 2 == 1 else logical_target(variant)
    branch_ops = branch_outputs(variant, linking, np.eye(8))
    frames = LinkingFrames(variant, linking)
    branches = outcome_prefixes(variant.measured_vertices)
    sigmas = [frames(outcomes) for outcomes in branches]
    sigma_ops = frames.operators()
    corrected = unit_scale(np.linalg.inv(sigma_ops) @ branch_ops)
    matches = equal_up_to_phase(corrected, target, 1e-10)
    fidelities = process_fidelity(corrected, target)
    # Each branch's output for the input |000>: its operator's first column.
    probabilities = norms_sq(branch_ops[:, :, 0])
    return [
        {
            "outcomes": "".join(map(str, outcomes.values())),
            "probability": float(probability),
            "local": sigma.is_local,
            "sigma": sigma.describe(),
            "matches_prediction": bool(match),
            "fidelity": float(fidelity),
        }
        for outcomes, probability, sigma, match, fidelity in zip(
            branches, probabilities, sigmas, matches, fidelities
        )
    ]


def cmd_toffoli_success(args) -> int:
    variant = ResourceVariant(args.variant, _parse_theta(args.theta))
    report = success_probability(variant, args.linking)
    print(
        f"p_success({variant.kind}, linking={args.linking}) = "
        f"{report.p_success} = {report.p_float}"
    )
    for case in report.cases:
        status = (
            f"{case.local_branches}/{case.total_branches} local"
            if case.recoverable
            else "unrecoverable"
        )
        print(f"  sx={''.join(map(str, case.sx))}: {status}")
    inputs = {
        "variant": variant.kind,
        "theta": angles.describe(variant.theta),
        "linking": args.linking,
    }
    results = {
        "p_success": str(report.p_success),
        "p_success_float": report.p_float,
        "branch_probability": str(report.branch_probability),
        "max_uniformity_error": report.max_uniformity_error,
        "cases": [
            {
                "sx": "".join(map(str, case.sx)),
                "recoverable": case.recoverable,
                "local_branches": case.local_branches,
                "total_branches": case.total_branches,
            }
            for case in report.cases
        ],
    }
    return _finish(args, ["toffoli", "success"], inputs, results)


def cmd_optics_run(args) -> int:
    if args.recipe:
        steps = _load(args.recipe, optics.steps_from_json)
    else:
        steps = optics.six_qubit_recipe()
    register = optics.run_recipe(steps)
    # Before the first print: a sweep that fails leaves stdout empty.
    sweep = optics.sweep_measure_outcomes(steps) if args.sweep_outcomes else None
    print(f"surviving modes: {sorted(register.labels)}")
    print(f"coincidence probability: {register.cumulative_prob:.12f}")
    results = {
        "modes": sorted(register.labels),
        "coincidence_probability": register.cumulative_prob,
    }
    if not args.recipe:
        fidelity = recipe_fidelity(register)
        print(f"fidelity with the six-qubit resource graph: {fidelity:.12f}")
        results["fidelity"] = fidelity
    if sweep is not None:
        print("measurement-outcome branches (step index: outcome):")
        branches = []
        for overrides, prob in sweep:
            text = ",".join(f"{k}:{v}" for k, v in sorted(overrides.items()))
            print(f"  {text or '(none)'} -> {prob:.12f}")
            branches.append({"outcomes": text, "probability": prob})
        results["sweep"] = branches
    inputs = {"recipe": args.recipe or "built-in", "sweep": bool(args.sweep_outcomes)}
    return _finish(args, ["optics", "run"], inputs, results)


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
        p.add_argument("--variant", choices=VARIANT_KINDS, required=True)
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
    success.add_argument("--variant", choices=VARIANT_KINDS, required=True)
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
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
