"""Acceptance suite: one test per criterion, plus report determinism.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion; the same checks back ``wgtoffoli verify all``.
"""

import hashlib
import io
import subprocess
import sys
from collections import Counter
from fnmatch import fnmatch
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import reference

from wgtoffoli import acceptance, toffoli
from wgtoffoli.graphstate import build_state_with_input
from wgtoffoli.mbqc import MeasurementBasis, Pattern, PatternStep, enumerate_branches
from wgtoffoli.qstate import StateVector, kron_all

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "records.txt"


@pytest.fixture(scope="module")
def checks():
    return {check["id"]: check for check in acceptance.run_checks()}


def _report(check):
    flag = "PASS" if check["passed"] else "FAIL"
    print(f"\n{flag}  criterion {check['id']}: {check['name']}")
    assert check["passed"], check["details"]


def test_criterion_1_six_qubit_success_probabilities(checks):
    _report(checks[1])
    assert checks[1]["details"]["none"] == "1/2"
    assert checks[1]["details"]["uniform"] == "1/4"


def test_criterion_2_seven_eight_success_probabilities(checks):
    _report(checks[2])
    details = checks[2]["details"]
    assert details["seven/none"] == "1"
    assert details["seven/uniform"] == "1/2"
    assert details["eight/none"] == "1"
    assert details["eight/uniform"] == "1"


def test_criterion_3_gate_correctness(checks):
    _report(checks[3])
    assert checks[3]["details"]["worst_process_fidelity"] >= 1 - 1e-10
    # six: 4 sx x 4 local outcomes; seven: 4 x 16; eight: 8 x 32
    assert checks[3]["details"]["branches_checked"] == 16 + 64 + 256


def test_criterion_4_sigma_formula_fidelity(checks):
    _report(checks[4])
    assert checks[4]["details"]["branches_checked"] == (32 + 64 + 256) * 2


@pytest.mark.parametrize(
    "check,cases_per_sx,rows_per_case",
    [
        (acceptance.check_gate_correctness, 1, 8 + 5),  # basis columns and random inputs
        (acceptance.check_sigma_formulas, 2, 8),  # two sz cases of the basis columns
    ],
    ids=["criterion_3", "criterion_4"],
)
def test_criteria_3_and_4_walk_once_per_resource(monkeypatch, check, cases_per_sx, rows_per_case):
    # Called on its own, outside a run_checks pass, each check walks everything it reads.
    walks = []
    original = toffoli.outcome_tree_leaves

    def spy(patterns, tensor):
        walks.append((len(patterns), tensor.shape[0]))
        return original(patterns, tensor)

    monkeypatch.setattr(toffoli, "outcome_tree_leaves", spy)
    assert check()["passed"]
    # One walk per resource, with one block of rows per linking case.
    cases = [len(spec.prefactors) * cases_per_sx for spec in toffoli.VARIANT_SPECS.values()]
    assert walks == [(count, count * rows_per_case) for count in cases]
    assert acceptance._pass_table is None


def test_one_pass_walks_each_pi_resource_once_per_sz(monkeypatch):
    # Within run_checks, check 4 reads check 3's sz = 000 walk and walks only sz = 110.
    walks, cases, running = [], [], [None]
    walk, encode = toffoli.outcome_tree_leaves, toffoli._encode_rows

    def spy_encode(variant, linking_cases, inputs):
        cases.append((variant, [linking.sz for linking in linking_cases]))
        return encode(variant, linking_cases, inputs)

    def spy_walk(patterns, tensor):
        variant, sz = cases[-1]  # each walk embeds its rows just before it starts
        assert len(sz) == len(patterns)
        walks.append((running[0], variant.kind, variant.theta, sz, tensor.shape[0] // len(sz)))
        return walk(patterns, tensor)

    def during(index, check):
        def run():
            running[0] = index
            return check()

        return run

    monkeypatch.setattr(toffoli, "_encode_rows", spy_encode)
    monkeypatch.setattr(toffoli, "outcome_tree_leaves", spy_walk)
    monkeypatch.setattr(
        acceptance, "CHECKS", [during(i, check) for i, check in enumerate(acceptance.CHECKS, 1)]
    )
    acceptance.run_checks()
    assert acceptance._pass_table is None
    pi = Fraction(1)
    sx_count = {kind: len(spec.prefactors) for kind, spec in toffoli.VARIANT_SPECS.items()}
    assert [w for w in walks if w[0] == 3] == [
        (3, kind, pi, [(0, 0, 0)] * sx_count[kind], 8 + 5) for kind in toffoli.VARIANT_KINDS
    ]
    assert [w for w in walks if w[0] == 4] == [
        (4, kind, pi, [(1, 1, 0)] * sx_count[kind], 8) for kind in toffoli.VARIANT_KINDS
    ]
    # Every walk of the pass, by check: success accounting (1, 2) and check 7's off-pi thetas.
    assert Counter(w[0] for w in walks) == {1: 2, 2: 4, 3: 3, 4: 3, 7: 4}
    one_pass = list(walks)
    walks.clear()
    acceptance.build_report()
    assert walks == one_pass * 2
    assert acceptance._pass_table is None



def test_a_report_builds_each_frame_table_and_program_once(monkeypatch):
    # Frame tables and programs depend on the spec, theta and the linking bits
    # alone, so both passes of a report share them and a second report builds
    # none; the walks above still run in every pass. Clearing the caches puts
    # them in the state of a fresh process.
    built = Counter()
    init = toffoli._FrameTable.__init__

    def counted(self, variant, linking, spec):
        built[variant, linking] += 1
        init(self, variant, linking, spec)

    monkeypatch.setattr(toffoli._FrameTable, "__init__", counted)
    for cache in (toffoli._frame_table, toffoli._program):
        cache.cache_clear()
    acceptance.build_report()
    assert len(built) == 36 and set(built.values()) == {1}
    programs = toffoli._program.cache_info()
    assert programs.misses == programs.currsize == 20
    acceptance.build_report()
    assert sum(built.values()) == 36
    assert toffoli._program.cache_info().misses == 20

def test_criterion_5_batch_equals_one_state_per_angle():
    # The per-state path check 5 used before its 20 angles were walked as one batch.
    thetas, psis, leaves, probabilities = acceptance._gadget_branches(acceptance.RecordedDraws(5))
    assert len(thetas) == 20 and leaves.shape == (2, 20, 4) and probabilities.shape == (2, 20)
    for index, theta in enumerate(thetas):
        state = build_state_with_input(acceptance.GADGET_CHAIN, StateVector(2, psis[index]), (2, 0))
        pattern = Pattern([PatternStep(1, MeasurementBasis(theta / 2, hadamard=True))])
        branches = enumerate_branches(state, pattern)
        assert [outcomes for outcomes, _, _ in branches] == [{1: 0}, {1: 1}]
        for (_, probability, out), leaf, batched in zip(
            branches, leaves[:, index], probabilities[:, index]
        ):
            assert out.amplitudes.tobytes() == leaf.tobytes()
            assert np.float64(probability).tobytes() == batched.tobytes()


def test_criterion_5_gadget_identity(checks):
    _report(checks[5])


def test_criterion_6_x_propagation(checks):
    _report(checks[6])
    assert checks[6]["details"]["max_error"] <= 1e-12


def test_criterion_7_ccz_generalisation(checks):
    _report(checks[7])
    assert checks[7]["details"]["theta_over_pi"] == ["1/4", "1/3", "1/2", "2/3"]


def test_criterion_8_optics_recipe(checks):
    _report(checks[8])
    details = checks[8]["details"]
    assert details["final_fidelity"] >= 1 - 1e-10
    assert details["fixture_error"] <= 1e-10
    assert abs(details["coincidence_probability"] - details["one_shot_probability"]) <= 1e-12


def test_criterion_9_locality_classifier(checks):
    _report(checks[9])
    assert checks[9]["details"]["randomised_operators"] == 200


def test_criterion_9_draws_equal_one_draw_per_matrix():
    # The one-shot draw and the stacked qr against the loop they replace:
    # per operator pair, three random 2x2 matrices and then six unitaries.
    rng = np.random.default_rng(acceptance.SEED + 9)
    singles, unitaries = acceptance._random_factors(rng, 100)
    loop = np.random.default_rng(acceptance.SEED + 9)

    def random_single(unitary=False):
        mat = loop.normal(size=(2, 2)) + 1j * loop.normal(size=(2, 2))
        if unitary:
            mat, _ = np.linalg.qr(mat)
        return mat

    for index in range(100):
        for mat in singles[index]:
            assert mat.tobytes() == random_single().tobytes()
        for mat in unitaries[index]:
            assert mat.tobytes() == random_single(True).tobytes()
    assert rng.normal() == loop.normal()
    # The stacked Kronecker product multiplies in kron_all's order.
    stacked = acceptance._kron_stack(*unitaries[:, :3].transpose(1, 0, 2, 3))
    for index, product in enumerate(stacked):
        assert product.tobytes() == kron_all(*unitaries[index, :3]).tobytes()


def test_criterion_9_stacked_factorisation_equals_per_matrix_form():
    rng = np.random.default_rng(acceptance.SEED + 9)
    local_ops, nonlocal_ops = acceptance._random_operators(rng, 100)
    ops = np.concatenate([local_ops, nonlocal_ops])
    expected = [reference.factorisation_local(op) for op in ops]
    assert expected == [True] * 100 + [False] * 100
    assert acceptance._factorisation_local(ops).tolist() == expected
    # A local operator pushed off the product set along a non-local
    # direction, by residuals just under and just over the tolerance.
    base, direction = local_ops[0], nonlocal_ops[0]
    base = base / np.abs(base).max()
    pair = np.stack([base + eps * direction for eps in (1e-8, 2e-8)])
    expected = [reference.factorisation_local(op) for op in pair]
    assert expected == [True, False]
    assert acceptance._factorisation_local(pair).tolist() == expected


def test_record_holds_the_seeded_generator_stream():
    # The checks, run on default_rng(SEED + check), draw exactly the record's
    # numbers: a change to a check's draw sizes, order or arguments fails here.
    recorded = reference.acceptance_draws()
    assert {check: len(values) for check, values in recorded.items()} == acceptance.DRAW_COUNTS
    stream = io.BytesIO()
    np.save(stream, np.concatenate(list(recorded.values())))
    assert stream.getvalue() == Path(acceptance.DRAWS_PATH).read_bytes()
    for check, values in recorded.items():
        replay = acceptance.RecordedDraws(check)
        assert replay.normal(size=len(values)).tobytes() == values.tobytes()


def test_each_seeded_check_replays_exactly_its_slice(monkeypatch):
    replays = []

    class Counted(acceptance.RecordedDraws):
        def __init__(self, check):
            super().__init__(check)
            replays.append((check, self))

    monkeypatch.setattr(acceptance, "RecordedDraws", Counted)
    acceptance.run_checks()
    assert [check for check, _ in replays] == list(acceptance.DRAW_COUNTS)
    for check, replay in replays:
        assert replay.drawn == len(replay.values) == acceptance.DRAW_COUNTS[check]


def test_replay_raises_on_an_overdraw():
    replay = acceptance.RecordedDraws(6)
    assert replay.uniform(0, 2 * np.pi, size=(4, 5)).shape == (4, 5)
    with pytest.raises(RuntimeError, match="drew past the 20 recorded numbers"):
        replay.normal(size=1)
    with pytest.raises(ValueError):  # the record is read-only
        replay.values[0] = 0


def test_every_data_file_is_package_data():
    # An installed wheel holds only the data files a package-data glob names.
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text())
    globs = pyproject["tool"]["setuptools"]["package-data"]["wgtoffoli"]
    package = ROOT / "src" / "wgtoffoli"
    files = [path.relative_to(package).as_posix() for path in (package / "data").rglob("*") if path.is_file()]
    assert files
    assert [name for name in files if not any(fnmatch(name, glob) for glob in globs)] == []


@pytest.fixture(scope="module")
def verify_runs(tmp_path_factory):
    """Two ``verify all --json`` subprocess runs, as (report bytes, stdout) pairs."""
    directory = tmp_path_factory.mktemp("verify")
    runs = []
    for path in (directory / "first.json", directory / "second.json"):
        result = subprocess.run(
            [sys.executable, "-m", "wgtoffoli.cli", "verify", "all", "--json", str(path)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        runs.append((path.read_bytes(), result.stdout))
    return runs


def test_criterion_10_reports_byte_identical(verify_runs):
    first, second = (report for report, _ in verify_runs)
    assert first == second
    print("\nPASS  criterion 10: repeated runs produce byte-identical reports")


def test_verify_all_matches_golden_digests(verify_runs, records):
    # Byte identity with the digests of the verify all record, not only between two runs.
    fields, lines = records.read_golden(GOLDEN)
    problem = records.build_mismatch(GOLDEN, fields)
    if problem:
        pytest.fail(problem)
    record = next(line for line in lines if line.startswith("verify all --json")).split("\t")
    report, stdout = verify_runs[0]
    digests = {"report": (report, record[3]), "stdout": (stdout.encode(), record[4])}
    differ = [
        name for name, (data, golden) in digests.items() if hashlib.sha256(data).hexdigest() != golden
    ]
    assert not differ, f"verify all differs from {GOLDEN.name} in: {', '.join(differ)}"
