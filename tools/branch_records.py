"""Print one line per measurement branch, to compare two checkouts byte for byte.

Each line names a case, the outcome bits, the branch probability in
``float.hex`` form and two SHA-256 digests of the final amplitudes: of
their raw ``tobytes``, so signed zeros and last bits count, and of
``(amps + 0.0).tobytes()``, which maps -0.0 to +0.0 in the real and the
imaginary part. Lines that differ between two checkouts in the raw
digest alone, with the same zero-sign-normalised digest, differ only in
the signs of zeros. Every amplitude digest below (branch, graph state,
engine and run lines) comes as such a pair. Cases:

* ``mbqc.enumerate_branches`` on every uniformity case of
  ``toffoli.verify_branch_uniformity``: six, seven and eight at theta = pi
  and six at theta in {pi/2, 3pi/2, pi/4, pi/3}, every accepted sx and
  sz, the same three logical inputs, and the maximum deviation that
  ``verify_branch_uniformity`` reports for each case;
* ``mbqc.enumerate_branches`` on the ``large-graphs`` benchmark documents
  of the given seeds;
* ``toffoli.branch_outputs`` for the same variants and linking cases, on
  the identity plus two random inputs;
* ``toffoli.predicted_sigma`` for six, seven and eight at theta in
  {pi, pi/2, -pi/2, 3pi/2, pi/3, pi/4}, every sx (unrecoverable ones
  included), every sz and every outcome assignment: the words, the global
  phase in ``float.hex`` form, the non-local label and the SHA-256 of the
  non-local factor, or the exception's type and message;
* ``basis`` lines: for the same variants and theta values and every sx,
  each step of ``toffoli.measurement_program`` resolved after every
  outcome prefix of the steps before it, with the SHA-256 of both kets
  from ``mbqc.basis_states`` (or the exception an unrecoverable sx
  raises);
* ``resource`` lines: the SHA-256 of ``graphstate.to_json`` of
  ``toffoli.build_resource`` for the same variants and theta values;
* ``run`` lines: one ``toffoli.run_gate`` call for the same variants and
  theta values, every accepted sx, sz in {000, 111}, every outcome
  assignment and the three logical inputs: the probability in
  ``float.hex`` form, the SHA-256 of the output amplitudes, the success
  flag and ``sigma.describe()`` (or ``None``), or the exception's type
  and message.

The script uses only names that every checkout since the spec table
(``ResourceVariant.spec``) has, so one copy of it runs on both sides of
a comparison.

Run it from a checkout and compare the outputs of two checkouts::

    PYTHONPATH=src python tools/branch_records.py --seeds 1 2 3 > a.txt
    cmp a.txt b.txt

The record groups are the seven families above, in that order, named
``uniformity``, ``graphs``, ``engine``, ``frame``, ``basis``,
``resource`` and ``run``. With
``--digests`` the script prints, in place of the records, the numpy and
BLAS build and one line per group: its name, the SHA-256 of its lines
and its line count. ``tests/golden/branch.txt`` holds that output for
seeds 1, 2 and 3, and ``--check tests/golden/branch.txt`` recomputes the
digests at the seeds the file names, prints each group that differs and
exits 1 if any does, or if the file comes from another numpy or BLAS
build. One run takes tens of seconds, so the check is not a test. The
golden-file reader and ``numpy_build`` come from ``cli_records.py`` next
to this script.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
from cli_records import build_mismatch, numpy_build, read_golden

from wgtoffoli import graphstate, mbqc, toffoli
from wgtoffoli.qstate import StateVector, basis_state

VARIANTS = [
    toffoli.ResourceVariant("six"),
    toffoli.ResourceVariant("seven"),
    toffoli.ResourceVariant("eight"),
] + [toffoli.ResourceVariant("six", Fraction(n, d)) for n, d in ((1, 2), (3, 2), (1, 4), (1, 3))]


def digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def amplitude_digests(amps: np.ndarray) -> str:
    """The raw digest, then the digest with every -0.0 read as +0.0."""
    return f"{digest(amps)} {digest(amps + 0.0)}"


def linking_cases(variant):
    for sx in itertools.product((0, 1), repeat=3):
        if sx not in variant.spec.prefactors:
            continue
        for sz in itertools.product((0, 1), repeat=3):
            yield toffoli.LinkingByproducts(sx, sz)


def logical_inputs():
    rng = np.random.default_rng(20250810)
    out = [basis_state(3, 0)]
    for _ in range(2):
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        out.append(StateVector(3, amps / np.linalg.norm(amps)))
    return out


def branch_lines(case: str, branches):
    for outcomes, probability, final in branches:
        bits = ",".join(f"{v}:{b}" for v, b in outcomes.items())
        yield f"{case} {bits} {probability.hex()} {amplitude_digests(final.amplitudes)}"


def uniformity_records():
    inputs = logical_inputs()
    for variant in VARIANTS:
        for linking in linking_cases(variant):
            pattern = toffoli.measurement_program(variant, linking)
            for index, psi in enumerate(inputs):
                state = toffoli.encoded_state(variant, psi, linking)
                case = f"{variant.kind}@{variant.theta}:{linking.sx}{linking.sz}:in{index}"
                branches = mbqc.enumerate_branches(state, pattern)
                yield from branch_lines(case.replace(" ", ""), branches)
            worst = toffoli.verify_branch_uniformity(variant, linking)
            case = f"{variant.kind}@{variant.theta}:{linking.sx}{linking.sz}"
            yield f"uniformity {case.replace(' ', '')} {worst.hex()}"


def large_graph_records(seeds):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    for seed in seeds:
        for index, op in enumerate(workloads.build("large-graphs", seed)):
            state, branches = op.run()
            yield f"graph{seed}.{index} state {amplitude_digests(state.amplitudes)}"
            yield from branch_lines(f"graph{seed}.{index}", branches)


def engine_records():
    batch = np.vstack([np.eye(8)] + [psi.amplitudes for psi in logical_inputs()[1:]])
    for variant in VARIANTS:
        for linking in linking_cases(variant):
            for bits, out in toffoli.branch_outputs(variant, linking, batch).items():
                bits = "".join(map(str, bits))
                case = f"{variant.kind}@{variant.theta}:{linking.sx}{linking.sz}"
                yield f"engine {case.replace(' ', '')} {bits} {amplitude_digests(out)}"


FRAME_THETAS = [Fraction(n, d) for n, d in ((1, 1), (1, 2), (-1, 2), (3, 2), (1, 3), (1, 4))]


def frame_text(variant, outcomes, linking) -> str:
    try:
        sigma = toffoli.predicted_sigma(variant, outcomes, linking)
    except ValueError as exc:  # UnrecoverableLinkingError, FrameUnavailable
        return f"raises {type(exc).__name__}: {exc}"
    phase = complex(sigma.global_phase)
    text = f"{sigma.describe()} phase {phase.real.hex()},{phase.imag.hex()}"
    if sigma.nonlocal_factor is not None:
        text += f" factor {digest(sigma.nonlocal_factor)}"
    return text


def frame_records():
    for kind, theta in itertools.product(toffoli.VARIANT_KINDS, FRAME_THETAS):
        variant = toffoli.ResourceVariant(kind, theta)
        for sx, sz in itertools.product(itertools.product((0, 1), repeat=3), repeat=2):
            linking = toffoli.LinkingByproducts(sx, sz)
            for bits in itertools.product((0, 1), repeat=len(variant.measured_vertices)):
                outcomes = dict(zip(variant.measured_vertices, bits))
                case = f"{kind}@{theta}:{sx}{sz}".replace(" ", "")
                bits = "".join(map(str, bits))
                yield f"frame {case} {bits} {frame_text(variant, outcomes, linking)}"


def basis_records():
    for kind, theta in itertools.product(toffoli.VARIANT_KINDS, FRAME_THETAS):
        variant = toffoli.ResourceVariant(kind, theta)
        for sx in itertools.product((0, 1), repeat=3):
            case = f"{kind}@{theta}:{sx}".replace(" ", "")
            try:
                pattern = toffoli.measurement_program(variant, toffoli.LinkingByproducts(sx))
            except toffoli.UnrecoverableLinkingError as exc:
                yield f"basis {case} raises {type(exc).__name__}: {exc}"
                continue
            for depth, step in enumerate(pattern.steps):
                for prefix in itertools.product((0, 1), repeat=depth):
                    seen = dict(zip(pattern.vertices, prefix))
                    basis = step.basis(seen) if callable(step.basis) else step.basis
                    kets = " ".join(digest(ket) for ket in mbqc.basis_states(basis))
                    bits = "".join(map(str, prefix)) or "-"
                    yield f"basis {case} {bits} v{step.vertex} {kets}"


def resource_records():
    for kind, theta in itertools.product(toffoli.VARIANT_KINDS, FRAME_THETAS):
        doc = graphstate.to_json(toffoli.build_resource(toffoli.ResourceVariant(kind, theta)))
        yield f"resource {kind}@{theta} {hashlib.sha256(doc).hexdigest()}"


def run_records():
    inputs = logical_inputs()
    for kind, theta in itertools.product(toffoli.VARIANT_KINDS, FRAME_THETAS):
        variant = toffoli.ResourceVariant(kind, theta)
        for sx, sz in itertools.product(sorted(variant.spec.prefactors), [(0, 0, 0), (1, 1, 1)]):
            linking = toffoli.LinkingByproducts(sx, sz)
            case = f"{kind}@{theta}:{sx}{sz}".replace(" ", "")
            for bits in itertools.product((0, 1), repeat=len(variant.measured_vertices)):
                outcomes = dict(zip(variant.measured_vertices, bits))
                for index, psi in enumerate(inputs):
                    try:
                        run = toffoli.run_gate(variant, psi, linking, outcomes)
                    except ValueError as exc:
                        text = f"raises {type(exc).__name__}: {exc}"
                    else:
                        sigma = run.sigma.describe() if run.sigma else None
                        text = (
                            f"{run.probability.hex()} {amplitude_digests(run.output.amplitudes)} "
                            f"{run.success} {sigma}"
                        )
                    yield f"run {case} {''.join(map(str, bits))} in{index} {text}"


def record_groups(seeds):
    """The record generators by group name, in output order."""
    return {
        "uniformity": uniformity_records(),
        "graphs": large_graph_records(seeds),
        "engine": engine_records(),
        "frame": frame_records(),
        "basis": basis_records(),
        "resource": resource_records(),
        "run": run_records(),
    }


DIGEST_HEADER = """\
# SHA-256 of the lines of each record group of `tools/branch_records.py`,
# then the group's line count.
# Float bits depend on the numpy and BLAS build named below. On another
# build `--check` fails and says so; it does not compare.
# Regenerate (every changed digest needs a reason in CHANGES.md):
#   PYTHONPATH=src python tools/branch_records.py --seeds 1 2 3 --digests \\
#       > tests/golden/branch.txt
"""


def group_digests(seeds) -> dict:
    """``{group: "sha256 lines"}`` over every record group."""
    out = {}
    for name, records in record_groups(seeds).items():
        sha, count = hashlib.sha256(), 0
        for line in records:
            sha.update(line.encode() + b"\n")
            count += 1
        out[name] = f"{sha.hexdigest()} {count}"
    return out


def check(golden: Path) -> int:
    """Compare every group digest with ``golden``; 1 names each group that differs."""
    build, body = read_golden(golden)
    problem = build_mismatch(golden, build)
    if problem:
        print(problem)
        return 1
    fields = dict(line.split(" ", 1) for line in body)
    seeds = [int(seed) for seed in fields["seeds"].split()]
    digests = group_digests(seeds)
    differ = [name for name, value in digests.items() if fields.get(name) != value]
    for name in differ:
        print(f"differs: {name} (golden {fields.get(name)}, here {digests[name]})")
    if differ:
        return 1
    print(f"branch records match {golden}: {len(digests)} groups")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="*", default=[1, 2, 3])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--digests",
        action="store_true",
        help="print the numpy/BLAS build and one digest per record group, not the records",
    )
    mode.add_argument(
        "--check",
        type=Path,
        metavar="GOLDEN",
        help="compare the group digests, at GOLDEN's seeds, with GOLDEN; exit 1 if any differs",
    )
    args = parser.parse_args(argv)
    if args.check:
        return check(args.check)
    if args.digests:
        print(DIGEST_HEADER, end="")
        for key, value in numpy_build().items():
            print(f"{key} {value}")
        print("seeds", *args.seeds)
        for name, value in group_digests(args.seeds).items():
            print(f"{name} {value}")
        return 0
    count = 0
    for line in itertools.chain(*record_groups(args.seeds).values()):
        print(line)
        count += 1
    print(f"records {count}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
