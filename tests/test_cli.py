import json
import subprocess
import sys
from pathlib import Path

import pytest

from wgtoffoli import cli, graphstate
from wgtoffoli.mbqc import MAX_PATTERN_QUBITS
from wgtoffoli.toffoli import ResourceVariant, build_resource


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_success_six_uniform(capsys):
    code, out, _ = run_cli(
        ["toffoli", "success", "--variant", "six", "--linking", "uniform"], capsys
    )
    assert code == 0
    assert "= 1/4 =" in out


def test_success_eight_uniform(capsys):
    code, out, _ = run_cli(
        ["toffoli", "success", "--variant", "eight", "--linking", "uniform"], capsys
    )
    assert code == 0
    assert "= 1 =" in out


def test_run_toffoli_truth_table(capsys):
    code, out, _ = run_cli(
        ["toffoli", "run", "--variant", "six", "--input", "110"], capsys
    )
    assert code == 0
    assert "success (tensor-product residual): True" in out
    line = [l for l in out.splitlines() if l.startswith("|111>")][0]
    assert "1.00000000" in line


def test_run_unrecoverable_linking_exit_code(capsys):
    code, _, err = run_cli(
        ["toffoli", "run", "--variant", "six", "--input", "000", "--sx", "001"], capsys
    )
    assert code == 2
    assert "guaranteed failure" in err


def test_enumerate_reports_locality(capsys):
    code, out, _ = run_cli(["toffoli", "enumerate", "--variant", "six"], capsys)
    assert code == 0
    rows = [l for l in out.splitlines() if l.strip() and l.strip()[0] in "01"]
    assert len(rows) == 8
    assert sum("False" in row for row in rows) == 4  # s3=1 branches


def test_enumerate_off_pi_compares_branches_with_the_theta_gate(tmp_path, capsys):
    # At theta = pi/2 and sx = 000 every corrected branch is logical_target, not the Toffoli.
    path = tmp_path / "report.json"
    args = ["toffoli", "enumerate", "--variant", "six", "--theta", "1/2", "--json", str(path)]
    code, _, _ = run_cli(args, capsys)
    assert code == 0
    branches = json.loads(path.read_text())["results"]["branches"]
    assert len(branches) == 8
    assert all(branch["matches_prediction"] for branch in branches)
    assert min(branch["fidelity"] for branch in branches) >= 1 - 1e-15


def test_bad_usage_exit_code(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["toffoli", "run", "--variant", "four"])
    assert err.value.code == 1


def test_bad_outcome_bits(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["toffoli", "run", "--variant", "six", "--outcomes", "01"])
    assert err.value.code == 1


@pytest.mark.parametrize(
    "first,problem",
    [
        ([float("nan"), 0.0], "must be finite"),
        ([1e308, 1e308], "norm overflows"),  # finite amplitudes, infinite norm
    ],
)
def test_run_rejects_non_finite_input(tmp_path, capsys, first, problem):
    path = tmp_path / "input.json"
    path.write_text(json.dumps([first] + [[0.0, 0.0]] * 7))
    with pytest.raises(SystemExit) as err:
        cli.main(["toffoli", "run", "--variant", "six", "--input", str(path)])
    assert err.value.code == 1
    assert problem in capsys.readouterr().err


@pytest.mark.parametrize("amplitude", [0.0, 1e-170])  # 1e-170 squared underflows to 0
def test_run_rejects_zero_norm_input(tmp_path, capsys, amplitude):
    path = tmp_path / "input.json"
    path.write_text(json.dumps([[amplitude, 0.0]] * 8))
    with pytest.raises(SystemExit) as err:
        cli.main(["toffoli", "run", "--variant", "six", "--input", str(path)])
    assert err.value.code == 1
    assert "zero norm" in capsys.readouterr().err


def test_graph_build(tmp_path, capsys):
    path = tmp_path / "graph.json"
    path.write_bytes(graphstate.to_json(build_resource(ResourceVariant("six"))))
    code, out, _ = run_cli(["graph", "build", str(path)], capsys)
    assert code == 0
    assert "6 vertices, 8 edges" in out


def test_graph_build_bad_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"vertices": 2, "edges": [[0, 0, 1.0]]}')
    with pytest.raises(SystemExit) as err:
        cli.main(["graph", "build", str(path)])
    assert err.value.code == 1


def test_graph_build_rejects_a_misspelt_key(tmp_path, capsys):
    path = tmp_path / "graph.json"
    doc = {"vertices": 2, "edges": [[0, 1, 1.0]], "input": {"0": {"basis": "hadamard"}}}
    path.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as err:
        cli.main(["graph", "build", str(path)])
    assert err.value.code == 1
    assert "top level: unknown key 'input'" in capsys.readouterr().err


def test_graph_build_too_many_vertices(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"vertices": 13, "edges": [[0, 1, 1.0]]}))
    with pytest.raises(SystemExit) as err:
        cli.main(["graph", "build", str(path)])
    assert err.value.code == 1
    assert "MAX_QUBITS = 12" in capsys.readouterr().err


def test_optics_run_reports_fidelity(capsys):
    code, out, _ = run_cli(["optics", "run"], capsys)
    assert code == 0
    assert "fidelity with the six-qubit resource graph: 1.0000" in out


def test_optics_sweep_outcomes(capsys):
    code, out, _ = run_cli(["optics", "run", "--sweep-outcomes"], capsys)
    assert code == 0
    assert "measurement-outcome branches" in out
    branch_lines = [l for l in out.splitlines() if "->" in l]
    assert len(branch_lines) == 4  # two postselecting measurements


def test_zero_probability_recipe_exit_code(tmp_path, capsys):
    # measuring a fresh |+> photon in the +/- basis can never give outcome 1
    path = tmp_path / "recipe.json"
    path.write_text(
        json.dumps(
            {
                "steps": [
                    {"op": "reset", "mode": 1},
                    {
                        "op": "measure",
                        "mode": 1,
                        "basis": {"alpha": 0.0, "hadamard": False},
                        "outcome": 1,
                    },
                ]
            }
        )
    )
    code, _, err = run_cli(["optics", "run", "--recipe", str(path)], capsys)
    assert code == 3
    assert "cannot occur" in err


PLUS_MINUS = {"alpha": 0.0, "hadamard": False}

EXIT_CODE_FILES = {
    "graph.json": {"vertices": 2, "edges": [[0, 1, 1.0]]},
    "self_loop.json": {"vertices": 2, "edges": [[0, 0, 1.0]]},
    "zero_input.json": [[0.0, 0.0]] * 8,
    # a fresh |+> photon never gives outcome 1 in the +/- basis
    "zero_measure.json": {
        "steps": [
            {"op": "reset", "mode": 1},
            {"op": "measure", "mode": 1, "basis": PLUS_MINUS, "outcome": 1},
        ]
    },
    # modes 1 and 3 heralded in |H> and |V>: fusing them has no support
    "zero_fuse.json": {
        "steps": [
            {"op": "reset", "mode": 1},
            {"op": "reset", "mode": 2},
            {"op": "fuse", "modes": [1, 2], "h_on": 2},
            {"op": "measure", "mode": 2, "basis": PLUS_MINUS, "outcome": 0},
            {"op": "reset", "mode": 3},
            {"op": "reset", "mode": 4},
            {"op": "fuse", "modes": [3, 4], "h_on": 4},
            {"op": "measure", "mode": 4, "basis": PLUS_MINUS, "outcome": 1},
            {"op": "fuse", "modes": [1, 3], "h_on": 1},
        ]
    },
    "uncreated.json": {"steps": [{"op": "reset", "mode": 2}, {"op": "fuse", "modes": [1, 2], "h_on": 2}]},
    "duplicate.json": {"steps": [{"op": "reset", "mode": 1}, {"op": "reset", "mode": 1}]},
    "unknown_op.json": {"steps": [{"op": "warp", "mode": 1}]},
    # a measure step takes no angle; it measured in the computational basis
    "measure_angle.json": {
        "steps": [
            {"op": "reset", "mode": 2},
            {"op": "measure", "mode": 2, "angle": {"pi_num": 1, "pi_den": 2}, "outcome": 1},
        ]
    },
    # 17 measure steps: 2^17 branches to sweep
    "many_measures.json": {
        "steps": [{"op": "reset", "mode": 1}, {"op": "measure", "mode": 1}] * 17
    },
}


@pytest.mark.parametrize(
    "argv,code",
    [
        ("graph build graph.json", 0),
        ("graph build self_loop.json", 1),
        ("graph build missing.json", 1),
        ("toffoli run --variant six", 0),
        ("toffoli run --variant six --theta 0", 1),
        ("toffoli run --variant six --input zero_input.json", 1),
        ("toffoli run --variant six --input 11", 1),
        ("toffoli run --variant six --input 1100", 1),
        ("toffoli run --variant six --outcomes 01", 1),
        ("toffoli run --variant six --sx 001", 2),
        ("toffoli enumerate --variant six", 0),
        ("toffoli enumerate --variant seven --theta 1/2", 1),
        ("toffoli enumerate --variant seven --sx 100", 2),
        ("toffoli success --variant eight --linking uniform", 0),
        ("toffoli success --variant six --theta 1/4", 1),
        ("toffoli success --variant six --json no_such_dir/report.json", 1),
        ("optics run", 0),
        ("optics run --recipe unknown_op.json", 1),
        ("optics run --recipe uncreated.json", 1),
        ("optics run --recipe duplicate.json", 1),
        ("optics run --recipe zero_measure.json", 3),
        ("optics run --recipe zero_fuse.json", 3),
        ("optics run --recipe measure_angle.json", 1),
        ("optics run --recipe many_measures.json", 0),
        ("optics run --recipe many_measures.json --sweep-outcomes", 1),
    ],
)
def test_exit_code_table(tmp_path, monkeypatch, capsys, argv, code):
    monkeypatch.chdir(tmp_path)
    for name, doc in EXIT_CODE_FILES.items():
        (tmp_path / name).write_text(json.dumps(doc))
    try:
        got = cli.main(argv.split())
    except SystemExit as exc:  # parse-time usage errors
        got = exc.code
    assert got == code
    assert ("error:" in capsys.readouterr().err) == (code != 0)


@pytest.mark.parametrize("text", ["11", "1100", "0", ""])
def test_input_bits_of_the_wrong_length_are_a_usage_error(tmp_path, monkeypatch, capsys, text):
    # "11" was read as a file name and failed with a bare "No such file".
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(["toffoli", "run", "--variant", "six", "--input", text])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err == f"error: --input must be 3 bits (c1 c2 t) or a JSON file, got {text!r}\n"


def test_input_file_named_with_bits_is_read(tmp_path, monkeypatch, capsys):
    # Only bits that name no file are taken for a typo.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "11").write_text(json.dumps([[0, 0]] * 6 + [[1, 0], [0, 0]]))  # |110>
    code, out, _ = run_cli(["toffoli", "run", "--variant", "six", "--input", "11"], capsys)
    assert code == 0
    assert "1.00000000" in [l for l in out.splitlines() if l.startswith("|111>")][0]


@pytest.mark.parametrize("theta,given", [("0", "0"), ("2", "2pi"), ("-4", "-4pi")])
def test_zero_theta_names_the_angle_modulo_2pi(capsys, theta, given):
    code, out, err = run_cli(["toffoli", "success", "--variant", "six", "--theta", theta], capsys)
    assert code == 1 and out == ""
    assert err == f"error: theta must be nonzero modulo 2pi, got {given}\n"


HUGE = {"pi_num": 10**400, "pi_den": 1}  # float(Fraction) overflows


@pytest.mark.parametrize(
    "doc,argv,field",
    [
        (
            {"steps": [{"op": "source", "modes": [1, 2], "gamma": HUGE}]},
            "optics run --recipe file.json",
            "steps[0].gamma",
        ),
        (
            {"steps": [{"op": "reset", "mode": 1}, {"op": "rotate", "mode": 1, "angle": HUGE}]},
            "optics run --recipe file.json",
            "steps[1].angle",
        ),
        (
            {
                "steps": [
                    {"op": "reset", "mode": 1},
                    {"op": "measure", "mode": 1, "basis": {"alpha": HUGE, "hadamard": False}},
                ]
            },
            "optics run --recipe file.json",
            "steps[1].basis.alpha",
        ),
        ({"vertices": 2, "edges": [[0, 1, HUGE]]}, "graph build file.json", "edges[0].angle"),
        (None, f"toffoli success --variant six --theta {10**400}/3", "--theta"),
        (None, "toffoli run --variant six --theta 1e308", "--theta"),  # pi * 1e308 overflows
    ],
    ids=["gamma", "rotate-angle", "basis-alpha", "edge-angle", "theta", "theta-radians"],
)
def test_overflowing_rational_angle_is_a_usage_error(tmp_path, monkeypatch, capsys, doc, argv, field):
    monkeypatch.chdir(tmp_path)
    if doc is not None:
        (tmp_path / "file.json").write_text(json.dumps(doc))
    try:
        code = cli.main(argv.split())
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert f"{field}: expected a finite number" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        "graph build deep.json",
        "optics run --recipe deep.json",
        "toffoli run --variant six --input deep.json",
    ],
    ids=["graph", "recipe", "input"],
)
def test_deeply_nested_json_is_a_usage_error(tmp_path, monkeypatch, capsys, argv):
    # json gives up on this nesting with a RecursionError, which no reader may let escape.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    try:
        code = cli.main(argv.split())
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


GRAPH, RECIPE, INPUT = "graph build", "optics run --recipe", "toffoli run --variant six --input"


@pytest.mark.parametrize(
    "command,doc,fragment",
    [
        (GRAPH, b'{"vertices": 2, "vertices": 3}', "key 'vertices' appears more than once"),
        (GRAPH, b'{"vertices": 2, "edges": [[0, 1, true]]}', "edges[0].angle: expected"),
        (GRAPH, b'{"vertices": 2}\xff', "not UTF-8 text"),
        (GRAPH, b'{"vertices": 2,', "line 1, column 16: "),
        (RECIPE, b'{"steps": [{"op": "reset", "mode": 1, "mode": 2}]}', "key 'mode' appears"),
        (RECIPE, b'{"steps": [{"op": "rotate", "mode": 1, "angle": true}]}', "steps[0].angle"),
        (RECIPE, b'{"steps": []}\xff', "not UTF-8 text"),
        (RECIPE, b'{"steps": [', "line 1, column 12: "),
        (INPUT, b'[[1, 0], {"re": 0, "re": 1}]', "key 're' appears more than once"),
        (INPUT, b"[[1, 0], [0, true]]", "numbers, not true or false"),
        (INPUT, b"[[1, 0]]\xff", "not UTF-8 text"),
        (INPUT, b"[[1, 0],", "line 1, column 9: "),
    ],
    ids=[
        f"{reader}-{defect}"
        for reader in ("graph", "recipe", "input")
        for defect in ("repeated-key", "boolean", "bad-utf8", "syntax")
    ],
)
def test_malformed_json_is_a_usage_error(tmp_path, monkeypatch, capsys, command, doc, fragment):
    # Every reader goes through one loader: one error line that names the
    # file (a --input file once went unnamed), never a traceback.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.json").write_bytes(doc)
    try:
        code = cli.main(command.split() + ["bad.json"])
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("error: bad.json: ") and err.count("\n") == 1 and fragment in err
    assert "Traceback" not in err


def test_failing_sweep_prints_nothing_to_stdout(tmp_path, capsys):
    # The sweep-limit error used to follow the recipe's first lines on stdout.
    path = tmp_path / "recipe.json"
    pairs = [{"op": "reset", "mode": 1}, {"op": "measure", "mode": 1}] * (MAX_PATTERN_QUBITS + 1)
    path.write_text(json.dumps({"steps": pairs}))
    code, out, err = run_cli(["optics", "run", "--recipe", str(path), "--sweep-outcomes"], capsys)
    assert code == 1 and out == ""
    assert err.count("error: ") == 1 and "exceed the sweep limit" in err


def test_run_rejects_oversized_integer_amplitude(tmp_path, capsys):
    # complex() cannot take an integer beyond the float range.
    path = tmp_path / "input.json"
    path.write_text("[[1" + "0" * 400 + ", 0]" + ", [0, 0]" * 7 + "]")
    with pytest.raises(SystemExit) as err:
        cli.main(["toffoli", "run", "--variant", "six", "--input", str(path)])
    assert err.value.code == 1
    out, err_text = capsys.readouterr()
    assert out == "" and "input amplitude overflows a float" in err_text


def test_run_rejects_boolean_amplitudes(tmp_path, capsys):
    # complex(True, False) is 1, so this file once ran as |000>.
    path = tmp_path / "input.json"
    path.write_text(json.dumps([[True, False]] + [[False, False]] * 7))
    with pytest.raises(SystemExit) as err:
        cli.main(["toffoli", "run", "--variant", "six", "--input", str(path)])
    assert err.value.code == 1
    out, err_text = capsys.readouterr()
    expected = f"error: {path}: input amplitudes must be numbers, not true or false\n"
    assert out == "" and err_text == expected


def test_json_reports_are_deterministic(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code, _, _ = run_cli(
            [
                "toffoli",
                "enumerate",
                "--variant",
                "seven",
                "--sx",
                "010",
                "--json",
                str(path),
            ],
            capsys,
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_entry_point_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "wgtoffoli.cli", "toffoli", "success", "--variant", "seven"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "= 1 =" in result.stdout


# numpy imports numpy.random lazily, on first use. No command draws random
# numbers (verify all replays recorded draws), so none of them may pay for it.
NO_RANDOM_COMMANDS = [
    "toffoli run --variant eight",
    "toffoli enumerate --variant eight",
    "toffoli success --variant eight --linking uniform",
    "optics run",
    "verify all",
]
NO_RANDOM_SCRIPT = """
import contextlib, io, sys
from wgtoffoli import cli
for argv in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv.split())
    if code != 0:
        sys.exit(f"{argv!r} exited {code}")
    if "numpy.random" in sys.modules:
        sys.exit(f"{argv!r} imported numpy.random")
"""


def test_one_shot_commands_do_not_import_numpy_random():
    # One fresh interpreter runs every command in turn and names the first
    # that leaves numpy.random in sys.modules.
    result = subprocess.run(
        [sys.executable, "-c", NO_RANDOM_SCRIPT, *NO_RANDOM_COMMANDS],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr


GOLDEN = Path(__file__).parent / "golden" / "records.txt"


def test_cli_records_match_golden(records):
    # Byte identity of every tools/records.py cli record with the checked-in lines.
    fields, golden = records.read_golden(GOLDEN)
    problem = records.build_mismatch(GOLDEN, fields)
    if problem:
        pytest.fail(problem)
    differ = records.cli_differences(golden, records.run_all())
    assert not differ, f"{GOLDEN.name} differs for: " + "; ".join(differ)


def test_cheap_branch_groups_match_golden(records):
    # The branch groups that take under a second, recomputed and compared with
    # their digest lines: engine holds branch_outputs, graphs enumerate_branches,
    # uniformity the walks of every resource's adaptive programs.
    fields, _ = records.read_golden(GOLDEN)
    problem = records.build_mismatch(GOLDEN, fields)
    if problem:
        pytest.fail(problem)
    seeds = [int(seed) for seed in fields["seeds"].split()]
    groups = {
        "uniformity": records.uniformity_records(),
        "engine": records.engine_records(),
        "graphs": records.large_graph_records(seeds),
        "basis": records.basis_records(),
        "resource": records.resource_records(),
    }
    here = {name: records.group_digest(lines) for name, lines in groups.items()}
    differ = [
        f"{name} (golden {fields[name]}, here {here[name]})" for name in groups if here[name] != fields[name]
    ]
    assert not differ, f"{GOLDEN.name} differs for: " + "; ".join(differ)


def test_records_compare_names_each_difference(records, tmp_path, capsys):
    # The gate of tools/records.py --check, on golden lines alone: no record is recomputed.
    lines = GOLDEN.read_text().splitlines()
    here = tmp_path / "here.txt"
    here.write_text("\n".join(lines) + "\n")
    argv = "toffoli success --variant six --linking none --json report.json"
    changed = []
    for line in lines:
        key = line.split(" ")[0]
        if key == "numpy":
            line = "numpy 0.0"
        elif key == "frame":
            line = f"frame {'0' * 64} 1"
        elif line.startswith(argv + "\t"):
            line = line.replace("\treturned\t", "\traised\t")
        changed.append(line)
    golden = tmp_path / "golden.txt"
    golden.write_text("\n".join(changed) + "\n")
    assert records.compare(here, records.read_golden(here), records.read_golden(here)) == 0
    capsys.readouterr()
    code = records.compare(golden, records.read_golden(golden), records.read_golden(here))
    out = capsys.readouterr().out
    assert code == 1
    assert "golden.txt holds digests from numpy 0.0" in out
    assert "differs: frame" in out
    assert f"differs: {argv}\n" in out
    assert out.count("differs:") == 2
    # --check stops at the build line before it recomputes anything.
    assert records.check(golden) == 1
    assert "cannot be compared" in capsys.readouterr().out
