"""Print every record of a checkout, to compare two checkouts byte for byte.

The records come in eight groups, in this order: ``cli`` and the seven
branch groups ``uniformity``, ``graphs``, ``engine``, ``frame``,
``basis``, ``resource`` and ``run``.

``cli`` prints one line per CLI invocation. Each case runs
``wgtoffoli.cli.main(argv)`` in this process and prints, tab-separated:
the argv, the exit code, ``returned`` or ``raised`` (the code came back
from ``main`` or as ``SystemExit``; any other exception prints ``-`` and
``raised`` with its type), and the SHA-256 digests of the ``--json``
report (``-`` when none was written), of stdout and of stderr. The group
ends with its count line. The cases cover every subcommand and every
documented exit code:

* ``verify all``;
* ``toffoli success`` for six, seven and eight with both linking models,
  six off theta = pi, and the ``FrameUnavailable`` errors off the table;
* ``toffoli enumerate`` for each variant at sx = 000 and at sx = 111,
  sz = 110, off theta = pi, an unrecoverable sx and ``FrameUnavailable``;
* ``toffoli run`` on bit and file inputs, off theta = pi, with explicit
  and default outcomes, an unrecoverable sx, and bad input files (two
  qubits, all zero, underflowing, NaN, overflowing, not JSON, missing);
* usage errors: bad bits, a wrong outcome count, an unknown variant, an
  unparsable theta, a theta of 0, 2pi or -4pi, an unknown subcommand;
* ``graph build`` on a weighted graph with a Hadamard input, a bad
  edge, 13 vertices, invalid JSON, non-UTF-8 bytes and a missing file;
* ``optics run`` with the built-in recipe (plain, ``--sweep-outcomes``
  and ``--json``), the built-in recipe read from a file, zero-probability
  measure and fuse recipes, recipes that use a mode they never created or
  create one twice, too many live modes, unparsable recipes and a
  missing file;
* ``optics run --recipe`` on recipes with one bad field: a ``rotate``
  without an angle, a string ``mode``, ``modes`` that is not a list and
  an ``op`` that is not a string (these cases come last);
* a ``--json`` path that cannot be written (a missing directory, a
  directory).

Input files are written to a fresh temporary directory that becomes the
working directory, and argv names them relative to it, so no line
depends on where the directory is.

A branch line names a case, the outcome bits, the branch probability in
``float.hex`` form and two SHA-256 digests of the final amplitudes: of
their raw ``tobytes``, so signed zeros and last bits count, and of
``(amps + 0.0).tobytes()``, which maps -0.0 to +0.0 in the real and the
imaginary part. Lines that differ between two checkouts in the raw
digest alone, with the same zero-sign-normalised digest, differ only in
the signs of zeros. Every amplitude digest below (branch, graph state,
engine and run lines) comes as such a pair. The branch groups:

* ``uniformity``: ``mbqc.enumerate_branches`` on every uniformity case
  of ``toffoli.verify_branch_uniformity``: six, seven and eight at
  theta = pi and six at theta in {pi/2, 3pi/2, pi/4, pi/3}, every
  accepted sx and sz, the same three logical inputs, and the maximum
  deviation that ``verify_branch_uniformity`` reports for each case;
* ``graphs``: ``mbqc.enumerate_branches`` on the ``large-graphs``
  benchmark documents of the given seeds;
* ``engine``: ``toffoli.branch_outputs`` for the same variants and
  linking cases, on the identity plus two random inputs;
* ``frame``: ``toffoli.predicted_sigma`` for six, seven and eight at
  theta in {pi, pi/2, -pi/2, 3pi/2, pi/3, pi/4}, every sx (unrecoverable
  ones included), every sz and every outcome assignment: the words, the
  global phase in ``float.hex`` form, the non-local label and the SHA-256
  of the non-local factor, or the exception's type and message;
* ``basis``: for the same variants and theta values and every sx, each
  step of ``toffoli.measurement_program`` resolved after every outcome
  prefix of the steps before it, with the SHA-256 of both kets from
  ``mbqc.basis_states`` (or the exception an unrecoverable sx raises);
* ``resource``: the SHA-256 of ``graphstate.to_json`` of
  ``toffoli.build_resource`` for the same variants and theta values;
* ``run``: one ``toffoli.run_gate`` call for the same variants and theta
  values, every accepted sx, sz in {000, 111}, every outcome assignment
  and the three logical inputs: the probability in ``float.hex`` form,
  the SHA-256 of the output amplitudes, the success flag and
  ``sigma.describe()`` (or ``None``), or the exception's type and
  message.

The script uses only names and return types that every checkout since
the array branch table (``toffoli.branch_outputs`` returning one
``(2**m, 8, B)`` array per linking case) has, so one copy of it runs on
both sides of a comparison. With no flag it prints every record::

    PYTHONPATH=src python tools/records.py > a.txt
    PYTHONPATH=../other/src python tools/records.py > b.txt
    cmp a.txt b.txt

``--seeds`` names the ``large-graphs`` seeds of ``graphs`` (1, 2 and 3
by default). ``--golden`` prints the golden file
``tests/golden/records.txt``: a header, the numpy and BLAS build, the
seeds, one line per branch group (its name, the SHA-256 of its lines and
its line count) and the ``cli`` records. Three tier-1 tests read it: one
recomputes the ``cli`` records in process and names each argv that
differs, one compares the ``verify all`` record with two
fresh-interpreter runs, and one recomputes the cheap branch groups
``engine``, ``graphs``, ``basis`` and ``resource`` (under a second in
all) and names each that differs. ``--check GOLDEN`` recomputes the
golden file at the seeds GOLDEN names, prints each branch group and each
``cli`` argv that differs and exits 1 if any does, or if GOLDEN comes
from another numpy or BLAS build. One run takes tens of seconds, most of
it the ``run`` group, so the whole check is not a test.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import shlex
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np

from wgtoffoli import cli, graphstate, mbqc, optics, toffoli
from wgtoffoli.qstate import StateVector

REPORT = "report.json"

GRAPHS = {
    "weighted.json": {
        "vertices": 6,
        "edges": [
            [0, 1, {"pi_num": 1, "pi_den": 2}],
            [0, 3, {"pi_num": -1, "pi_den": 2}],
            [0, 5, {"pi_num": 1, "pi_den": 2}],
            [1, 2, 1.0],
            [2, 3, {"pi_num": 1, "pi_den": 1}],
            [2, 5, {"pi_num": 1, "pi_den": 1}],
            [3, 4, {"pi_num": 1, "pi_den": 1}],
            [4, 5, {"pi_num": 1, "pi_den": 1}],
        ],
        "inputs": {"0": {"role": "c2"}, "1": {"role": "t", "basis": "hadamard"}},
    },
    "self_loop.json": {"vertices": 2, "edges": [[0, 0, 1.0]]},
    "thirteen.json": {"vertices": 13, "edges": [[0, 1, 1.0]]},
}

INPUTS = {
    "mixed.json": [[0.1, 0.2], [0.3, -0.1], [0.0, 0.5], [0.2, 0.2], [-0.4, 0.0], [0.1, 0.1], [0.0, -0.3], [0.25, 0.0]],
    "two_qubit.json": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
    "zero.json": [[0.0, 0.0]] * 8,
    "tiny.json": [[1e-170, 0.0]] * 8,
    "nan.json": [[float("nan"), 0.0]] + [[0.0, 0.0]] * 7,
    "huge.json": [[1e308, 1e308]] + [[0.0, 0.0]] * 7,
    "not_pairs.json": {"amplitudes": [1, 0]},
}

PLUS_MINUS = {"alpha": 0.0, "hadamard": False}


def _heralded(mode, partner, outcome):
    """Leave ``mode`` in |H> (outcome 0) or |V> (outcome 1) by measuring a fused partner."""
    return [
        {"op": "reset", "mode": mode},
        {"op": "reset", "mode": partner},
        {"op": "fuse", "modes": [mode, partner], "h_on": partner},
        {"op": "measure", "mode": partner, "basis": PLUS_MINUS, "outcome": outcome},
    ]


RECIPES = {
    "zero_measure.json": {
        "steps": [
            {"op": "reset", "mode": 1},
            {"op": "measure", "mode": 1, "basis": PLUS_MINUS, "outcome": 1},
        ]
    },
    "zero_fuse.json": {
        "steps": _heralded(1, 2, 0) + _heralded(3, 4, 1) + [{"op": "fuse", "modes": [1, 3], "h_on": 1}]
    },
    "sweep_zero.json": {
        "steps": [
            {"op": "reset", "mode": 1},
            {"op": "reset", "mode": 2},
            {"op": "fuse", "modes": [1, 2], "h_on": 2},
            {"op": "measure", "mode": 2, "basis": PLUS_MINUS, "outcome": 0},
            {"op": "reset", "mode": 3},
            {"op": "measure", "mode": 3, "basis": PLUS_MINUS, "outcome": 0},
        ]
    },
    "fuse_uncreated.json": {
        "steps": [{"op": "reset", "mode": 2}, {"op": "fuse", "modes": [1, 2], "h_on": 2}]
    },
    "measure_uncreated.json": {"steps": [{"op": "reset", "mode": 1}, {"op": "measure", "mode": 9}]},
    "rotate_uncreated.json": {"steps": [{"op": "rotate", "mode": 5, "angle": 0.5}]},
    "duplicate_mode.json": {"steps": [{"op": "reset", "mode": 1}, {"op": "reset", "mode": 1}]},
    "too_many_modes.json": {
        "steps": [{"op": "source", "modes": [2 * k, 2 * k + 1], "gamma": 1.0} for k in range(7)]
    },
    "unknown_op.json": {"steps": [{"op": "warp", "mode": 1}]},
    "bad_outcome.json": {"steps": [{"op": "reset", "mode": 1}, {"op": "measure", "mode": 1, "outcome": 2}]},
}

# Recipes with one bad field. Their cases come after all the others, so
# the earlier records keep their places.
FIELD_RECIPES = {
    "rotate_no_angle.json": {"steps": [{"op": "reset", "mode": 1}, {"op": "rotate", "mode": 1}]},
    "mode_string.json": {"steps": [{"op": "reset", "mode": "1"}]},
    "modes_not_list.json": {"steps": [{"op": "source", "modes": 12, "gamma": 1.0}]},
    "op_not_string.json": {"steps": [{"op": ["reset"], "mode": 1}]},
}

RAW_FILES = {
    "broken.json": b'{"vertices": 2,',
    "latin1.json": b'{"vertices": 2, "edges": [], "note": "\xe9"}',
}


def write_fixtures():
    for name, doc in {**GRAPHS, **INPUTS, **RECIPES, **FIELD_RECIPES}.items():
        with open(name, "w") as handle:
            json.dump(doc, handle)
    for name, data in RAW_FILES.items():
        with open(name, "wb") as handle:
            handle.write(data)
    with open("builtin.json", "wb") as handle:
        handle.write(optics.steps_to_json(optics.six_qubit_recipe()))


def _variant_cases():
    for kind in ("six", "seven", "eight"):
        for linking in ("none", "uniform"):
            yield ["toffoli", "success", "--variant", kind, "--linking", linking]
        yield ["toffoli", "enumerate", "--variant", kind]
        yield ["toffoli", "enumerate", "--variant", kind, "--sx", "111", "--sz", "110"]
        yield ["toffoli", "run", "--variant", kind]
    for theta in ("1/2", "3/2"):
        for linking in ("none", "uniform"):
            yield ["toffoli", "success", "--variant", "six", "--theta", theta, "--linking", linking]
    for kind, theta in (("six", "1/3"), ("six", "1/4"), ("seven", "1/2"), ("eight", "1/3")):
        yield ["toffoli", "success", "--variant", kind, "--theta", theta]
        yield ["toffoli", "enumerate", "--variant", kind, "--theta", theta]


CASES = [
    ["verify", "all"],
    *_variant_cases(),
    ["toffoli", "enumerate", "--variant", "six", "--theta", "1/2", "--sx", "010"],
    ["toffoli", "enumerate", "--variant", "seven", "--sx", "010"],
    ["toffoli", "enumerate", "--variant", "six", "--sx", "001"],
    ["toffoli", "enumerate", "--variant", "seven", "--sx", "100"],
    ["toffoli", "run", "--variant", "six", "--input", "110"],
    ["toffoli", "run", "--variant", "six", "--input", "110", "--outcomes", "000"],
    ["toffoli", "run", "--variant", "seven", "--theta", "1/2"],
    ["toffoli", "run", "--variant", "six", "--sx", "111", "--sz", "101"],
    ["toffoli", "run", "--variant", "eight", "--sx", "011", "--input", "mixed.json"],
    ["toffoli", "run", "--variant", "six", "--theta", "1/3", "--outcomes", "010"],
    ["toffoli", "run", "--variant", "eight", "--theta", "1/2"],
    ["toffoli", "run", "--variant", "seven", "--input", "110", "--outcomes", "1011"],
    ["toffoli", "run", "--variant", "eight", "--sx", "101", "--sz", "011", "--input", "011", "--outcomes", "10110"],
    ["toffoli", "run", "--variant", "seven", "--theta", "1/2", "--input", "111", "--outcomes", "0110"],
    ["toffoli", "run", "--variant", "six", "--theta", "1/3", "--sx", "111", "--input", "101", "--outcomes", "011"],
    ["toffoli", "run", "--variant", "six", "--input", "000", "--sx", "001"],
    ["toffoli", "run", "--variant", "seven", "--sx", "110", "--input", "mixed.json"],
    *(["toffoli", "run", "--variant", "six", "--input", name] for name in INPUTS if name != "mixed.json"),
    ["toffoli", "run", "--variant", "six", "--input", "missing.json"],
    ["toffoli", "run", "--variant", "six", "--outcomes", "01"],
    ["toffoli", "run", "--variant", "six", "--outcomes", "0a0"],
    ["toffoli", "run", "--variant", "six", "--sx", "0101"],
    ["toffoli", "enumerate", "--variant", "seven", "--sz", "2"],
    ["toffoli", "run", "--variant", "four"],
    ["toffoli", "run", "--variant", "six", "--theta", "0"],
    ["toffoli", "run", "--variant", "six", "--theta", "half"],
    ["toffoli", "success", "--variant", "six", "--theta", "2"],
    ["toffoli", "enumerate", "--variant", "seven", "--theta", "-4"],
    ["toffoli", "success", "--variant", "eight", "--linking", "sometimes"],
    ["toffoli"],
    ["teleport"],
    [],
    ["graph", "build", "weighted.json"],
    *(["graph", "build", name] for name in ("self_loop.json", "thirteen.json", "broken.json", "latin1.json", "missing.json")),
    ["optics", "run"],
    ["optics", "run", "--sweep-outcomes"],
    ["optics", "run", "--recipe", "builtin.json", "--sweep-outcomes"],
    *(["optics", "run", "--recipe", name] for name in RECIPES),
    ["optics", "run", "--recipe", "sweep_zero.json", "--sweep-outcomes"],
    ["optics", "run", "--recipe", "measure_uncreated.json", "--sweep-outcomes"],
    ["optics", "run", "--recipe", "broken.json"],
    ["optics", "run", "--recipe", "missing.json"],
    ["toffoli", "success", "--variant", "six", "--json", "no_such_dir/report.json"],
    ["toffoli", "run", "--variant", "six", "--json", "."],
    *(["optics", "run", "--recipe", name] for name in FIELD_RECIPES),
]


def digest(data) -> str:
    """SHA-256 of ``bytes``, or of an array's bytes in C order."""
    if isinstance(data, np.ndarray):
        data = np.ascontiguousarray(data).tobytes()
    return hashlib.sha256(data).hexdigest()


def run_case(argv) -> str:
    """Run one command and return its line.

    A command with a subcommand and no ``--json`` of its own gets ``--json REPORT``.
    """
    if os.path.exists(REPORT):
        os.remove(REPORT)
    full = list(argv) + (["--json", REPORT] if len(argv) >= 2 and "--json" not in argv else [])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code, how = cli.main(full), "returned"
        except SystemExit as exc:
            code, how = exc.code, "raised"
        except Exception as exc:  # an escaped error is a record, not the end of the run
            code, how = "-", f"raised {type(exc).__name__}"
    report = "-"
    if os.path.exists(REPORT):
        with open(REPORT, "rb") as handle:
            report = digest(handle.read())
    return "\t".join(
        [
            shlex.join(full),
            str(code),
            how,
            report,
            digest(out.getvalue().encode()),
            digest(err.getvalue().encode()),
        ]
    )


def run_all() -> list[str]:
    """Every case's line, then the count, in a fresh temporary working directory."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            write_fixtures()
            return [run_case(argv) for argv in CASES] + [f"records {len(CASES)}"]
        finally:
            os.chdir(home)


VARIANTS = [
    toffoli.ResourceVariant("six"),
    toffoli.ResourceVariant("seven"),
    toffoli.ResourceVariant("eight"),
] + [toffoli.ResourceVariant("six", Fraction(n, d)) for n, d in ((1, 2), (3, 2), (1, 4), (1, 3))]


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
    """|000> and the seeded random states: the rows of ``toffoli.UNIFORMITY_INPUTS``."""
    return [StateVector(3, row) for row in toffoli.UNIFORMITY_INPUTS]


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
        m = len(variant.measured_vertices)
        for linking in linking_cases(variant):
            case = f"{variant.kind}@{variant.theta}:{linking.sx}{linking.sz}".replace(" ", "")
            for row, out in enumerate(toffoli.branch_outputs(variant, linking, batch)):
                yield f"engine {case} {row:0{m}b} {amplitude_digests(out)}"


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
        yield f"resource {kind}@{theta} {digest(doc)}"


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
    """The records by group name, in output order: a list for ``cli``, generators after it."""
    return {
        "cli": run_all(),
        "uniformity": uniformity_records(),
        "graphs": large_graph_records(seeds),
        "engine": engine_records(),
        "frame": frame_records(),
        "basis": basis_records(),
        "resource": resource_records(),
        "run": run_records(),
    }


# The keyed lines of a golden file: the build, the seeds and one per branch group.
KEYS = ("numpy", "blas", "seeds", "uniformity", "graphs", "engine", "frame", "basis", "resource", "run")


def numpy_build() -> dict:
    """The numpy version and BLAS build, which float bits depend on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        name = "unknown"
    return {"numpy": np.__version__, "blas": name}


GOLDEN_HEADER = """\
# The records of `tools/records.py` at the numpy and BLAS build named
# below: the seeds of the graphs group, one line per branch group (the
# SHA-256 of its lines, then its line count) and every cli record (the
# argv, the exit code, how it ended and the SHA-256 of the --json report,
# stdout and stderr). The verify all record also backs the
# fresh-interpreter test in tests/test_acceptance.py.
# Float bits depend on the build. On another build the golden tests and
# `--check` fail and say so; they do not compare.
# Regenerate (every changed line needs a reason in CHANGES.md):
#   PYTHONPATH=src python tools/records.py --golden > tests/golden/records.txt
"""


def group_digest(records) -> str:
    """A branch group's value in the golden file: the SHA-256 of its lines, then their count."""
    records = [f"{line}\n" for line in records]
    return f"{digest(''.join(records).encode())} {len(records)}"


def golden_lines(seeds) -> list[str]:
    """The golden file's lines after its header, at ``seeds``."""
    groups = record_groups(seeds)
    lines = [f"{key} {value}" for key, value in numpy_build().items()]
    lines.append(" ".join(["seeds", *map(str, seeds)]))
    cli_lines = groups.pop("cli")
    lines += [f"{name} {group_digest(records)}" for name, records in groups.items()]
    return lines + cli_lines


def parse_golden(lines) -> tuple[dict, list[str]]:
    """``(fields, cli)`` of golden-file lines.

    ``#`` lines and empty lines are skipped. ``fields`` maps the first word
    of each build, seeds and branch-group line to the rest of it; ``cli``
    is every other line, in order.
    """
    fields, cli_lines = {}, []
    for line in lines:
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition(" ")
        if key in KEYS and key not in fields:
            fields[key] = value
        else:
            cli_lines.append(line)
    return fields, cli_lines


def read_golden(path) -> tuple[dict, list[str]]:
    """``parse_golden`` of the file at ``path``."""
    return parse_golden(Path(path).read_text().splitlines())


def build_mismatch(path, fields: dict, here: dict | None = None) -> str | None:
    """Why digests made on the build in ``fields`` cannot be compared with ``here``
    (by default this build), or None if they can."""
    here = here or numpy_build()
    if all(fields.get(key) == here.get(key) for key in ("numpy", "blas")):
        return None
    return (
        f"{Path(path).name} holds digests from numpy {fields.get('numpy')} with BLAS "
        f"{fields.get('blas')}, but this is numpy {here.get('numpy')} with BLAS {here.get('blas')}: "
        "float bits may differ between builds, so the digests cannot be compared"
    )


def cli_differences(golden: list[str], here: list[str]) -> list[str]:
    """The argv of each ``cli`` record that differs, then a note if the counts differ."""
    differ = [there.split("\t")[0] for there, line in zip(golden, here) if line != there]
    if len(golden) != len(here):
        differ.append(f"{len(here)} records here, {len(golden)} golden")
    return differ


def compare(path, golden, here) -> int:
    """Print what differs between the golden file ``path`` and ``here``; 1 if anything does.

    Both are ``(fields, cli)`` as ``parse_golden`` gives them. The build
    message, each branch group and each ``cli`` argv that differs get a
    line.
    """
    (fields, cli_lines), (here_fields, here_cli) = golden, here
    problems = [build_mismatch(path, fields, here_fields)] + [
        f"differs: {name} (golden {fields.get(name)}, here {here_fields.get(name)})"
        for name in KEYS[2:]
        if fields.get(name) != here_fields.get(name)
    ]
    problems += [f"differs: {argv}" for argv in cli_differences(cli_lines, here_cli)]
    problems = [problem for problem in problems if problem]
    for problem in problems:
        print(problem)
    if not problems:
        print(f"records match {path}: {len(KEYS) - 3} branch groups, {len(cli_lines)} cli lines")
    return 1 if problems else 0


def check(golden: Path) -> int:
    """Recompute ``golden`` at its seeds and ``compare``; 1 at once on another build."""
    fields, cli_lines = read_golden(golden)
    problem = build_mismatch(golden, fields)
    if problem:
        print(problem)
        return 1
    seeds = [int(seed) for seed in fields["seeds"].split()]
    return compare(golden, (fields, cli_lines), parse_golden(golden_lines(seeds)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--seeds", type=int, nargs="*", default=[1, 2, 3], help="the large-graphs seeds of the graphs group"
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--golden",
        action="store_true",
        help="print the golden file: the build, one digest per branch group, the cli records",
    )
    mode.add_argument(
        "--check",
        type=Path,
        metavar="GOLDEN",
        help="recompute GOLDEN at its seeds; exit 1 if it comes from another build or anything differs",
    )
    args = parser.parse_args(argv)
    if args.check:
        return check(args.check)
    if args.golden:
        print(GOLDEN_HEADER, end="")
        lines = golden_lines(args.seeds)
    else:
        lines = itertools.chain(*record_groups(args.seeds).values())
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
