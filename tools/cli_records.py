"""Print one line per CLI invocation, to compare two checkouts byte for byte.

Each case runs ``wgtoffoli.cli.main(argv)`` in this process and prints,
tab-separated: the argv, the exit code, ``returned`` or ``raised`` (the
code came back from ``main`` or as ``SystemExit``; any other exception
prints ``-`` and ``raised`` with its type), and the SHA-256 digests of
the ``--json`` report (``-`` when none was written), of stdout and of
stderr.

The cases cover every subcommand and every documented exit code:

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
* a ``--json`` path that cannot be written (a missing directory, a
  directory).

Input files are written to a fresh temporary directory that becomes the
working directory, and argv names them relative to it, so no line
depends on where the directory is. The script uses only names that every
checkout since the spec table has, so one copy of it runs on both sides
of a comparison::

    PYTHONPATH=src python tools/cli_records.py > a.txt
    PYTHONPATH=../other/src python tools/cli_records.py > b.txt
    cmp a.txt b.txt

``--golden`` prints the lines under the header of ``tests/golden/cli.txt``,
which a tier-1 test compares line by line. The golden-file reader and
``numpy_build`` below are shared with that test, the ``verify all`` digest
test and ``tools/branch_records.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
import tempfile
from pathlib import Path

import numpy as np

from wgtoffoli import cli, optics

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

RAW_FILES = {
    "broken.json": b'{"vertices": 2,',
    "latin1.json": b'{"vertices": 2, "edges": [], "note": "\xe9"}',
}


def write_fixtures():
    for name, doc in {**GRAPHS, **INPUTS, **RECIPES}.items():
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
]


def digest(data: bytes) -> str:
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
    """Write the fixtures to the working directory; every case's line, then the count."""
    write_fixtures()
    return [run_case(argv) for argv in CASES] + [f"records {len(CASES)}"]


def numpy_build() -> dict:
    """The numpy version and BLAS build, which float bits depend on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        name = "unknown"
    return {"numpy": np.__version__, "blas": name}


def read_golden(path) -> tuple[dict, list[str]]:
    """``(build, body)`` of a golden file.

    ``#`` lines and empty lines are skipped. ``build`` holds the header's ``numpy`` and
    ``blas`` lines as ``numpy_build`` gives them; ``body`` is every other
    line, in order.
    """
    build, body = {}, []
    for line in Path(path).read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition(" ")
        if key in ("numpy", "blas") and key not in build:
            build[key] = value
        else:
            body.append(line)
    return build, body


def build_mismatch(path, build: dict) -> str | None:
    """Why digests made on ``build`` cannot be compared here, or None if they can."""
    here = numpy_build()
    if build == here:
        return None
    return (
        f"{Path(path).name} holds digests from numpy {build.get('numpy')} with BLAS "
        f"{build.get('blas')}, but this is numpy {here['numpy']} with BLAS {here['blas']}: "
        "float bits may differ between builds, so the digests cannot be compared"
    )


GOLDEN_HEADER = """\
# One line per `tools/cli_records.py` case: the argv, the exit code, how
# it ended and the SHA-256 of the --json report, stdout and stderr.
# Float bits depend on the numpy and BLAS build named below. On another
# build tests/test_cli.py fails and says so; it does not compare.
# Regenerate (every changed line needs a reason in CHANGES.md):
#   PYTHONPATH=src python tools/cli_records.py --golden > tests/golden/cli.txt
"""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--golden", action="store_true", help="print the numpy/BLAS header of tests/golden/cli.txt first"
    )
    args = parser.parse_args(argv)
    if args.golden:
        print(GOLDEN_HEADER, end="")
        for key, value in numpy_build().items():
            print(f"{key} {value}")
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            lines = run_all()
        finally:
            os.chdir(home)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
