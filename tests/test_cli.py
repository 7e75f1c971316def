import json
import subprocess
import sys

import pytest

from wgtoffoli import cli, graphstate
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


def test_bad_usage_exit_code(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["toffoli", "run", "--variant", "four"])
    assert err.value.code == 1


def test_bad_outcome_bits(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["toffoli", "run", "--variant", "six", "--outcomes", "01"])
    assert err.value.code == 1


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
