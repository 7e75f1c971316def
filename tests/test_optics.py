import dataclasses
import itertools
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wgtoffoli import optics
from wgtoffoli import qstate as qs
from wgtoffoli.acceptance import _one_shot_probability, _quoted_fixture, check_optics_recipe
from wgtoffoli.graphstate import WeightedGraph, build_state
from wgtoffoli.mbqc import MAX_PATTERN_QUBITS
from wgtoffoli.toffoli import ResourceVariant, build_resource

H = np.array([1, 0], dtype=complex)
V = np.array([0, 1], dtype=complex)
MINUS = np.array([1, -1], dtype=complex) / np.sqrt(2)
PLUS_MINUS = optics.MeasurementBasis(alpha=Fraction(0), hadamard=False)


def tilted(theta):
    return np.array([1, np.exp(1j * theta)], dtype=complex) / np.sqrt(2)


# --- sources ---


def test_pdc_pair_extremes():
    np.testing.assert_allclose(optics.pdc_pair(Fraction(0)).amplitudes, [1, 0, 0, 0], atol=1e-15)
    np.testing.assert_allclose(optics.pdc_pair(Fraction(2)).amplitudes, [0, 0, 0, 1], atol=1e-15)


def test_pdc_pair_at_pi():
    expected = np.array([(1 - 1j) / 2, 0, 0, (1 + 1j) / 2])
    np.testing.assert_allclose(optics.pdc_pair(Fraction(1)).amplitudes, expected, atol=1e-15)


def test_source_amplitudes_normalised():
    for gamma in (Fraction(1, 3), Fraction(1, 2), 2.1717):
        plus, minus_amp = optics.pdc_pair(gamma).amplitudes[[0, 3]]
        assert abs(abs(plus) ** 2 + abs(minus_amp) ** 2 - 1) < 1e-14


@pytest.mark.parametrize("gamma", [Fraction(1), Fraction(1, 2), Fraction(0)])
def test_weighted_pair_matches_graph_builder(gamma):
    pair = optics.to_weighted_pair(optics.pdc_pair(gamma), gamma)
    if gamma == 0:
        expected = qs.kron_all(qs.KET_PLUS, qs.KET_PLUS)
    else:
        expected = build_state(WeightedGraph(2, [(0, 1, gamma)])).amplitudes
    overlap = abs(np.vdot(expected, pair.amplitudes))
    assert abs(overlap - 1) < 1e-12


def test_weighted_pair_random_angles():
    rng = np.random.default_rng(71)
    for gamma in rng.uniform(0.05, 2 * np.pi - 0.05, size=20):
        pair = optics.to_weighted_pair(optics.pdc_pair(float(gamma)), float(gamma))
        expected = build_state(WeightedGraph(2, [(0, 1, float(gamma))])).amplitudes
        assert abs(abs(np.vdot(expected, pair.amplitudes)) - 1) < 1e-12


# --- fuse ---


def fresh_register(amplitudes, labels):
    state = qs.from_amplitudes(amplitudes)
    return optics.PhotonRegister(list(labels), state)


def test_fuse_on_hh():
    register = fresh_register(np.kron(H, H), (1, 2))  # qubit1=mode2, qubit0=mode1
    fused = optics.fuse(register, 1, 2, h_on=1)
    expected = np.kron(H, qs.KET_PLUS)  # H still on mode 2, |+> on mode 1
    np.testing.assert_allclose(fused.state.amplitudes, expected, atol=1e-12)
    assert abs(fused.cumulative_prob - 1) < 1e-12


def test_fuse_on_plus_plus():
    register = fresh_register(np.kron(qs.KET_PLUS, qs.KET_PLUS), (1, 2))
    fused = optics.fuse(register, 1, 2, h_on=2)
    # projector keeps (|HH> + |VV>)/sqrt(2); H on mode 2 gives the 2-vertex graph
    expected = np.array([0.5, 0.5, 0.5, -0.5])
    np.testing.assert_allclose(fused.state.amplitudes, expected, atol=1e-12)
    assert abs(fused.cumulative_prob - 0.5) < 1e-12


def test_fuse_rejects_outside_h_target():
    register = fresh_register(np.kron(H, H), (1, 2))
    with pytest.raises(optics.RecipeError):
        optics.fuse(register, 1, 2, h_on=7)


def test_fuse_zero_support():
    register = fresh_register(np.kron(H, V), (1, 2))
    with pytest.raises(optics.RecipeError):
        optics.fuse(register, 1, 2, h_on=1)


def test_fuse_repeat_after_undoing_h_changes_nothing():
    rng = np.random.default_rng(72)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    register = fresh_register(amps / np.linalg.norm(amps), (1, 2))
    once = optics.fuse(register, 1, 2, h_on=2)
    undone = optics.PhotonRegister(
        list(once.labels),
        qs.apply_operator(once.state, (once.qubit_of(2),), qs.HADAMARD),
        once.cumulative_prob,
    )
    twice = optics.fuse(undone, 1, 2, h_on=2)
    np.testing.assert_allclose(twice.state.amplitudes, once.state.amplitudes, atol=1e-12)
    assert abs(twice.cumulative_prob - once.cumulative_prob) < 1e-12


# --- recipes ---


def test_zero_fuse_recipe_probability_one():
    steps = [optics.RecipeStep("source", (1, 2), gamma=Fraction(1))]
    assert abs(optics.run_recipe(steps).cumulative_prob - 1) < 1e-15


def test_single_fuse_probability_half():
    steps = [
        optics.RecipeStep("reset", (1,)),
        optics.RecipeStep("reset", (2,)),
        optics.RecipeStep("fuse", (1, 2), h_on=2),
    ]
    assert abs(optics.run_recipe(steps).cumulative_prob - 0.5) < 1e-12


def quoted_intermediate(prefix, terms):
    register = optics.run_recipe(optics.six_qubit_recipe()[:prefix])
    expected = _quoted_fixture(register.labels, terms)
    got = register.state.amplitudes / np.linalg.norm(register.state.amplitudes)
    return abs(np.vdot(expected, got))


def test_first_fusion_fixture():
    overlap = quoted_intermediate(
        3,
        [
            {2: qs.KET_PLUS, 1: H, 6: qs.KET_PLUS, 7: qs.KET_PLUS},
            {2: tilted(np.pi / 2), 1: V, 6: MINUS, 7: tilted(np.pi / 2)},
        ],
    )
    assert abs(overlap - 1) < 1e-10


def test_second_fusion_fixture():
    overlap = quoted_intermediate(
        5,
        [
            {2: qs.KET_PLUS, 1: H, 6: H, 4: qs.KET_PLUS, 7: qs.KET_PLUS},
            {2: qs.KET_PLUS, 1: H, 6: V, 4: MINUS, 7: qs.KET_PLUS},
            {2: tilted(np.pi / 2), 1: V, 6: H, 4: qs.KET_PLUS, 7: tilted(np.pi / 2)},
            {2: tilted(np.pi / 2), 1: V, 6: V, 4: -MINUS, 7: tilted(np.pi / 2)},
        ],
    )
    assert abs(overlap - 1) < 1e-10


def test_tilted_measurement_fixture():
    overlap = quoted_intermediate(
        8,
        [
            {2: qs.KET_PLUS, 1: H, 4: qs.KET_PLUS, 7: qs.KET_PLUS},
            {2: tilted(np.pi / 2), 1: V, 4: tilted(-np.pi / 2), 7: tilted(np.pi / 2)},
        ],
    )
    assert abs(overlap - 1) < 1e-10


def register_bits(register):
    return (
        register.labels,
        register.state.amplitudes.tobytes(),
        register.cumulative_prob.hex(),
    )


def test_check_8_reads_every_register_from_one_run(monkeypatch):
    seen = []
    apply_step = optics.apply_step

    def recorded(register, step, outcome=None):
        out = apply_step(register, step, outcome)
        seen.append((step, out))
        return out

    monkeypatch.setattr(optics, "apply_step", recorded)
    assert check_optics_recipe()["passed"]
    monkeypatch.undo()
    steps = optics.six_qubit_recipe()
    assert [step for step, _ in seen] == steps
    for index, (_, register) in enumerate(seen):
        assert register_bits(register) == register_bits(optics.run_recipe(steps[: index + 1]))


def test_full_recipe_builds_the_six_qubit_resource():
    register = optics.run_recipe(optics.six_qubit_recipe())
    assert sorted(register.labels) == [1, 2, 3, 4, 5, 6]
    target = build_state(build_resource(ResourceVariant("six")))
    final = optics.sorted_state(register)
    fidelity = abs(np.vdot(target.amplitudes, final.amplitudes)) ** 2
    assert fidelity >= 1 - 1e-10


def test_stepwise_probability_matches_one_shot_oracle():
    steps = optics.six_qubit_recipe()
    stepwise = optics.run_recipe(steps).cumulative_prob
    assert abs(stepwise - _one_shot_probability(steps)) < 1e-12
    # derived value for the default-outcome branch: nine postselections at 1/2
    assert abs(stepwise - 0.5**9) < 1e-12


def test_commuting_fuses_reorder_freely():
    steps = optics.six_qubit_recipe()
    assert steps[9].op == "fuse" and set(steps[9].modes) == {6, 2}
    assert steps[11].op == "fuse" and set(steps[11].modes) == {4, 3}
    # the (6,2) fusion touches neither the (3,5) source nor the (4,3) fusion
    swapped = steps[:9] + [steps[10], steps[11], steps[9]] + steps[12:]
    a = optics.run_recipe(steps)
    b = optics.run_recipe(swapped)
    fa = optics.sorted_state(a).amplitudes
    fb = optics.sorted_state(b).amplitudes
    assert abs(abs(np.vdot(fa, fb)) - 1) < 1e-12
    assert abs(a.cumulative_prob - b.cumulative_prob) < 1e-12


def test_sweep_outcomes_covers_all_branches():
    steps = [
        optics.RecipeStep("reset", (1,)),
        optics.RecipeStep("reset", (2,)),
        optics.RecipeStep("fuse", (1, 2), h_on=2),
        optics.RecipeStep("measure", (1,), basis=optics.COMPUTATIONAL, outcome=0),
    ]
    sweep = optics.sweep_measure_outcomes(steps)
    assert len(sweep) == 2
    assert abs(sum(p for _, p in sweep) - 0.5) < 1e-12  # fuse costs 1/2


def test_zero_support_raises_postselection_error():
    with pytest.raises(optics.PostselectionError, match="zero success probability"):
        optics.fuse(fresh_register(np.kron(H, V), (1, 2)), 1, 2, h_on=1)
    steps = [
        optics.RecipeStep("reset", (1,)),
        optics.RecipeStep("measure", (1,), basis=PLUS_MINUS, outcome=1),
    ]
    with pytest.raises(optics.PostselectionError, match="cannot occur"):
        optics.run_recipe(steps)


@pytest.mark.parametrize(
    "steps",
    [
        [optics.RecipeStep("reset", (2,)), optics.RecipeStep("fuse", (1, 2), h_on=2)],
        [optics.RecipeStep("reset", (1,)), optics.RecipeStep("reset", (1,))],
    ],
)
def test_malformed_recipe_is_not_a_postselection_failure(steps):
    with pytest.raises(optics.RecipeError) as err:
        optics.run_recipe(steps)
    assert not isinstance(err.value, optics.PostselectionError)


def test_sweep_outcomes_propagates_malformed_recipe():
    steps = [
        optics.RecipeStep("reset", (1,)),
        optics.RecipeStep("measure", (9,), basis=optics.COMPUTATIONAL),
    ]
    with pytest.raises(optics.RecipeError, match="mode 9 is not in the register"):
        optics.sweep_measure_outcomes(steps)


def test_sweep_outcomes_records_zero_support_as_zero():
    steps = [
        optics.RecipeStep("reset", (1,)),
        optics.RecipeStep("measure", (1,), basis=PLUS_MINUS, outcome=0),
    ]
    (zero, p_zero), (one, p_one) = optics.sweep_measure_outcomes(steps)
    assert (zero, one, p_one) == ({1: 0}, {1: 1}, 0.0)
    assert abs(p_zero - 1) < 1e-12


def test_builtin_sweep_runs_each_step_once_per_tree_node(monkeypatch):
    calls = []
    apply_step = optics.apply_step
    steps = optics.six_qubit_recipe()
    index = {id(step): i for i, step in enumerate(steps)}

    def counted(register, step, outcome=None):
        calls.append(index[id(step)])
        return apply_step(register, step, outcome)

    monkeypatch.setattr(optics, "apply_step", counted)
    sweep = optics.sweep_measure_outcomes(steps)
    assert [list(outcomes.items()) for outcomes, _ in sweep] == [
        [(5, a), (15, b)] for a, b in itertools.product((0, 1), repeat=2)
    ]
    # Steps 0-4 once, 5-14 per outcome of step 5, step 15 per branch: 29, not 4 x 16.
    assert calls == list(range(5)) + (list(range(5, 15)) + [15, 15]) * 2


def test_sweep_rejects_more_measure_steps_than_the_limit(monkeypatch):
    def no_step(*args):
        raise AssertionError("a step ran")

    monkeypatch.setattr(optics, "apply_step", no_step)
    measures = MAX_PATTERN_QUBITS + 1
    steps = [optics.RecipeStep("reset", (1,))] + [
        optics.RecipeStep("measure", (1,), basis=optics.COMPUTATIONAL)
    ] * measures
    limit = f"{measures} measure steps exceed the sweep limit of {MAX_PATTERN_QUBITS}"
    with pytest.raises(optics.RecipeError, match=limit):
        optics.sweep_measure_outcomes(steps)


def test_recipe_json_round_trip():
    steps = optics.six_qubit_recipe()
    again = optics.steps_from_json(optics.steps_to_json(steps))
    assert steps == again


def test_shipped_fixture_matches_builtin():
    from importlib import resources

    data = resources.files("wgtoffoli").joinpath("data/six_qubit_recipe.json").read_bytes()
    assert optics.steps_from_json(data) == optics.six_qubit_recipe()


def test_recipe_json_errors():
    with pytest.raises(optics.RecipeError):
        optics.steps_from_json(b'{"steps": [{"op": "warp", "mode": 1}]}')
    with pytest.raises(optics.RecipeError):
        optics.steps_from_json(b'{"steps": [{"op": "fuse", "modes": [1]}]}')


@pytest.mark.parametrize(
    "doc,key",
    [
        (b'{"steps": [{"op": "reset", "mode": 1}], "steps": []}', "steps"),
        (b'{"steps": [{"op": "reset", "mode": 1, "mode": 2}]}', "mode"),
    ],
    ids=["steps", "mode"],
)
def test_recipe_repeated_json_keys_are_rejected(doc, key):
    # json.loads alone keeps the last value of a repeated key.
    with pytest.raises(optics.RecipeError, match=f"key '{key}' appears more than once"):
        optics.steps_from_json(doc)


@pytest.mark.parametrize(
    "doc,message",
    [
        ([], "top level must be an object"),
        ({"steps": {"op": "reset"}}, "'steps' must be a list"),
        ({"steps": ["reset"]}, "steps[0]: expected an object"),
        ({"steps": [{"op": "reset", "mode": "a"}]}, "steps[0]: mode must be an integer, got 'a'"),
        ({"steps": [{"op": "reset", "mode": True}]}, "steps[0]: mode must be an integer, got True"),
        (
            {"steps": [{"op": "source", "modes": [1, 2.0], "gamma": 1.0}]},
            "steps[0]: modes[1] must be an integer, got 2.0",
        ),
        ({"steps": [{"op": "source", "modes": "ab", "gamma": 1.0}]}, "steps[0].modes: expected a list"),
        ({"steps": [{"op": "fuse", "modes": 3, "h_on": 3}]}, "steps[0].modes: expected a list"),
        ({"steps": [{"op": "fuse", "modes": [1, 2], "h_on": "2"}]}, "steps[0]: h_on must be an integer, got '2'"),
        ({"steps": [{"op": "measure", "mode": 1, "outcome": 2}]}, "steps[0]: outcome must be 0 or 1, got 2"),
        (
            {"steps": [{"op": "measure", "mode": 1, "outcome": True}]},
            "steps[0]: outcome must be 0 or 1, got True",
        ),
        (
            {"steps": [{"op": "measure", "mode": 1, "basis": 3}]},
            'steps[0].basis: expected "computational" or an object',
        ),
        (
            {"steps": [{"op": "measure", "mode": 1, "basis": {"hadamard": 1}}]},
            "steps[0].basis.hadamard: expected true or false",
        ),
        ({"steps": [{"op": "rotate", "mode": 1}]}, "steps[0]: rotate needs angle"),
        ({"steps": [{"op": "rotate", "angle": 1.0}]}, "steps[0]: rotate needs one mode"),
        (
            {"steps": [{"op": "rotate", "mode": 1, "angle": "x"}]},
            "steps[0].angle: expected {pi_num, pi_den} or a number",
        ),
        (
            {"steps": [{"op": "source", "modes": [1, 2], "gamma": [1]}]},
            "steps[0].gamma: expected {pi_num, pi_den} or a number",
        ),
        ({"steps": [{"op": ["reset"], "mode": 1}]}, "steps[0]: unknown op ['reset']"),
    ],
    # The docN ids are the ones pytest generated when each case asserted a fragment.
    ids=["doc0-top level must be an object", "doc1-'steps' must be a list",
         "doc2-steps[0]: expected an object", "doc3-steps[0].mode: expected an integer",
         "doc4-steps[0].mode: expected an integer", "doc5-steps[0].modes[1]",
         "doc6-needs two modes", "modes-int", "doc7-steps[0].h_on", "doc8-steps[0].outcome",
         "doc9-steps[0].outcome", "doc10-steps[0].basis", "doc11-steps[0].basis.hadamard",
         "doc12-steps[0]: rotate needs an angle", "rotate-no-mode", "doc13-steps[0].angle",
         "doc14-steps[0].gamma", "op-list"],
)
def test_recipe_json_field_errors(doc, message):
    # Each message is RecipeStep's own, after the step index, or the reader's
    # for a JSON shape; an op that is not a string once reached a dict lookup.
    with pytest.raises(optics.RecipeError) as err:
        optics.steps_from_json(json.dumps(doc))
    assert str(err.value) == message


@pytest.mark.parametrize(
    "doc,message",
    [
        ({"step": []}, "top level: unknown key 'step'"),
        ({"steps": [{"op": "measure", "mode": 1, "outcom": 1}]}, "steps[0]: unknown key 'outcom'"),
        (
            {"steps": [{"op": "measure", "mode": 1, "basis": {"alpha": 0, "hadamrd": True}}]},
            "steps[0].basis: unknown key 'hadamrd'",
        ),
        ({"steps": [{"op": "fuse", "modes": [1, 2], "mode": 1}]}, "steps[0]: unknown key 'mode'"),
        ({"steps": [{"op": "reset", "mode": 1, "modes": [1]}]}, "steps[0]: unknown key 'modes'"),
        ({"steps": [{"op": "rotate", "mode": 1, "angle": 1.0, "basis": {}}]}, "'basis'"),
        (
            {"steps": [{"op": "source", "modes": [1, 2], "gamma": {"pi_num": 1, "pi_den": 2, "x": 0}}]},
            "steps[0].gamma: unknown key 'x'",
        ),
    ],
    ids=["top", "outcome", "basis", "fuse-mode", "reset-modes", "rotate-basis", "angle"],
)
def test_recipe_json_rejects_unknown_keys(doc, message):
    # A misspelt "outcome" ran as outcome 0.
    with pytest.raises(optics.RecipeError) as err:
        optics.steps_from_json(json.dumps(doc))
    assert message in str(err.value)


@pytest.mark.parametrize(
    "step,key",
    [
        ({"op": "measure", "mode": 2, "angle": {"pi_num": 1, "pi_den": 2}, "outcome": 1}, "angle"),
        ({"op": "measure", "mode": 2, "h_on": 2}, "h_on"),
        ({"op": "measure", "mode": 2, "gamma": 1.0}, "gamma"),
        ({"op": "fuse", "modes": [1, 2], "h_on": 2, "outcome": 1}, "outcome"),
        ({"op": "fuse", "modes": [1, 2], "h_on": 2, "gamma": 1.0}, "gamma"),
        ({"op": "source", "modes": [1, 2], "gamma": 1.0, "h_on": 1}, "h_on"),
        ({"op": "rotate", "mode": 1, "angle": 1.0, "outcome": 0}, "outcome"),
        ({"op": "reset", "mode": 1, "angle": 1.0}, "angle"),
    ],
    ids=["measure-angle", "measure-h_on", "measure-gamma", "fuse-outcome", "fuse-gamma",
         "source-h_on", "rotate-outcome", "reset-angle"],
)
def test_recipe_json_rejects_fields_the_op_ignores(step, key):
    # Each of these ran and ignored the field: a measure with an angle
    # measured in the computational basis.
    doc = {"steps": [{"op": "reset", "mode": 2}, step]}
    with pytest.raises(optics.RecipeError) as err:
        optics.steps_from_json(json.dumps(doc))
    assert str(err.value) == f"steps[1]: unknown key '{key}'"


@pytest.mark.parametrize(
    "make,message",
    [
        (lambda: optics.RecipeStep("warp", (1,)), "unknown op 'warp'"),
        (lambda: optics.RecipeStep("reset", (1, 2)), "reset needs one mode"),
        (lambda: optics.RecipeStep("measure", ()), "measure needs one mode"),
        (lambda: optics.RecipeStep("fuse", (1,), h_on=1), "fuse needs two modes"),
        (lambda: optics.RecipeStep("source", (1, 2)), "source needs gamma"),
        (lambda: optics.RecipeStep("fuse", (1, 2)), "fuse needs h_on"),
        (lambda: optics.RecipeStep("rotate", (1,)), "rotate needs angle"),
        (lambda: optics.RecipeStep("measure", (1,), outcome=2), "outcome must be 0 or 1, got 2"),
        (lambda: optics.RecipeStep("measure", (1,), outcome=True), "outcome must be 0 or 1"),
        (lambda: optics.RecipeStep("measure", (1,), basis="computational"), "MeasurementBasis"),
        (lambda: optics.RecipeStep("reset", ("a",)), "mode must be an integer, got 'a'"),
        (lambda: optics.RecipeStep("reset", (True,)), "mode must be an integer, got True"),
        (lambda: optics.RecipeStep("reset", (1.0,)), "^mode must be an integer, got 1.0"),
        (lambda: optics.RecipeStep("fuse", (1, "b"), h_on=1), r"modes\[1\] must be an integer"),
        (lambda: optics.RecipeStep("fuse", (1, 2), h_on="2"), "h_on must be an integer, got '2'"),
        (lambda: optics.RecipeStep("fuse", (1, 2), h_on=True), "h_on must be an integer, got True"),
        (lambda: optics.RecipeStep("rotate", (1,), angle=float("inf")), "angle must be a finite"),
        (lambda: optics.RecipeStep("rotate", (1,), angle=float("nan")), "angle must be a finite"),
        (lambda: optics.RecipeStep("source", (1, 2), gamma=float("nan")), "gamma must be a finite"),
        (lambda: optics.RecipeStep("source", (1, 2), gamma=Fraction(10**400)), "gamma must be a"),
        (lambda: optics.RecipeStep("source", (1, 2), gamma="a"), "gamma must be a finite number"),
        (lambda: optics.RecipeStep("source", (1, 2), gamma=[1]), r"got \[1\]"),
    ],
    ids=["unknown-op", "reset-two-modes", "measure-no-mode", "fuse-one-mode", "source-gamma",
         "fuse-h_on", "rotate-angle", "outcome-2", "outcome-bool", "basis-str", "mode-str",
         "mode-bool", "mode-float", "second-mode-str", "h_on-str", "h_on-bool", "angle-inf",
         "angle-nan", "gamma-nan", "gamma-overflows", "gamma-str", "gamma-list"],
)
def test_recipe_step_rejects_a_step_its_op_cannot_run(make, message):
    # These once failed later and badly: steps_to_json raised KeyError for
    # the unknown op, run_recipe a TypeError for the rotate, an IndexError
    # for the outcome and a bare unpacking ValueError for the reset. A mode
    # of "a" ran, and steps_to_json wrote a document steps_from_json rejects.
    with pytest.raises(optics.RecipeError, match=message):
        make()


@pytest.mark.parametrize(
    "step,message",
    [
        ({"op": "source", "modes": [1, 2]}, "steps[1]: source needs gamma"),
        ({"op": "fuse", "modes": [1, 2]}, "steps[1]: fuse needs h_on"),
    ],
)
def test_recipe_json_names_the_step_without_a_needed_field(step, message):
    doc = {"steps": [{"op": "reset", "mode": 3}, step]}
    with pytest.raises(optics.RecipeError) as err:
        optics.steps_from_json(json.dumps(doc))
    assert str(err.value) == message


def test_register_capped_at_max_qubits():
    steps = [optics.RecipeStep("source", (2 * k, 2 * k + 1), gamma=Fraction(1)) for k in range(7)]
    with pytest.raises(optics.RecipeError, match="MAX_QUBITS = 12"):
        optics.run_recipe(steps)
    assert len(optics.run_recipe(steps[:6]).labels) == qs.MAX_QUBITS


def test_source_needs_distinct_modes():
    with pytest.raises(optics.RecipeError, match="not distinct"):
        optics.run_recipe([optics.RecipeStep("source", (3, 3), gamma=Fraction(1))])


json_scalars = st.none() | st.booleans() | st.integers(-2, 3) | st.floats() | st.text(max_size=3)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


pi_angles = st.fixed_dictionaries({"pi_num": st.integers(-4, 4), "pi_den": st.integers(1, 4)})
angles_ok = pi_angles | st.floats(-10, 10)
few_modes = st.integers(0, 7)
pair = st.lists(few_modes, min_size=2, max_size=2)
# Well-typed steps over a few modes reach run_recipe; noisy ones probe the parser.
typed_step = st.one_of(
    st.fixed_dictionaries({"op": st.just("source"), "modes": pair, "gamma": angles_ok}),
    st.fixed_dictionaries({"op": st.just("fuse"), "modes": pair, "h_on": few_modes}),
    st.fixed_dictionaries({"op": st.just("rotate"), "mode": few_modes, "angle": angles_ok}),
    st.fixed_dictionaries({"op": st.just("reset"), "mode": few_modes}),
    st.fixed_dictionaries(
        {"op": st.just("measure"), "mode": few_modes, "outcome": st.integers(0, 1)},
        optional={
            "basis": st.just("computational")
            | st.fixed_dictionaries({"alpha": angles_ok, "hadamard": st.booleans()})
        },
    ),
)
noisy_mode = st.integers(-1, 14) | json_values
noisy_angle = pi_angles | st.floats() | json_values
noisy_step = st.fixed_dictionaries(
    {"op": st.sampled_from(("source", "fuse", "rotate", "measure", "reset")) | json_values},
    optional={
        "mode": noisy_mode,
        "modes": st.lists(noisy_mode, min_size=2, max_size=2) | json_values,
        "gamma": noisy_angle,
        "angle": noisy_angle,
        "h_on": noisy_mode,
        "outcome": st.integers(-1, 2) | json_values,
        "basis": st.just("computational")
        | st.fixed_dictionaries({}, optional={"alpha": noisy_angle, "hadamard": json_values})
        | json_values,
    },
)
recipe_json = (
    st.fixed_dictionaries({"steps": st.lists(typed_step, max_size=14)})
    | st.fixed_dictionaries(
        {},
        optional={
            "steps": st.lists(typed_step | noisy_step | json_values, max_size=6) | json_values
        },
    )
    | json_values
)


@settings(max_examples=300, deadline=None)
@given(doc=recipe_json)
def test_recipe_parser_and_runner_fuzz(doc):
    # Parsing may only fail with RecipeError; a parsed recipe either runs
    # or fails with RecipeError.
    try:
        steps = optics.steps_from_json(json.dumps(doc))
    except optics.RecipeError:
        return
    try:
        register = optics.run_recipe(steps)
    except optics.RecipeError:
        return
    assert len(register.labels) <= qs.MAX_QUBITS


step_angles = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4)) | st.floats(-10, 10)
bases = st.sampled_from((optics.COMPUTATIONAL, PLUS_MINUS)) | st.builds(
    optics.MeasurementBasis, alpha=step_angles, hadamard=st.booleans()
)


@st.composite
def live_recipes(draw, max_steps=10, max_measures=4):
    """Typed recipe steps, each on modes that its register can supply.

    One mode in 32 is drawn from all six instead, so a recipe may also
    fail with a ``RecipeError``.
    """
    live, steps = set(), []

    def pick(pool):
        if draw(st.integers(0, 31)) == 0:
            return draw(st.integers(0, 5))
        return draw(st.sampled_from(sorted(pool)))

    for _ in range(draw(st.integers(0, max_steps))):
        fresh = set(range(6)) - live
        measures = sum(step.op == "measure" for step in steps)
        possible = (
            ("source", len(fresh) >= 2),
            ("reset", len(fresh) >= 1),
            ("fuse", len(live) >= 2),
            ("rotate", len(live) >= 1),
            ("measure", len(live) >= 1 and measures < max_measures),
        )
        op = draw(st.sampled_from([op for op, ok in possible if ok]))
        if op == "source":
            a = pick(fresh)
            step = optics.RecipeStep(op, (a, pick(fresh - {a})), gamma=draw(step_angles))
        elif op == "reset":
            step = optics.RecipeStep(op, (pick(fresh),))
        elif op == "fuse":
            a = pick(live)
            b = pick(live - {a})
            step = optics.RecipeStep(op, (a, b), h_on=draw(st.sampled_from((a, b))))
        elif op == "rotate":
            step = optics.RecipeStep(op, (pick(live),), angle=draw(step_angles))
        else:
            outcome = draw(st.integers(0, 1))
            step = optics.RecipeStep(op, (pick(live),), basis=draw(bases), outcome=outcome)
        live = live - set(step.modes) if op == "measure" else live | set(step.modes)
        steps.append(step)
    return steps


def sweep_by_branch(steps):
    """The sweep as one ``run_recipe`` per branch, outcomes set on the steps."""
    measure_steps = [i for i, step in enumerate(steps) if step.op == "measure"]
    results = []
    for bits in itertools.product((0, 1), repeat=len(measure_steps)):
        outcomes = dict(zip(measure_steps, bits))
        branch = [
            dataclasses.replace(step, outcome=outcomes[i]) if i in outcomes else step
            for i, step in enumerate(steps)
        ]
        try:
            results.append((outcomes, optics.run_recipe(branch).cumulative_prob))
        except optics.PostselectionError:
            results.append((outcomes, 0.0))
    return results


@settings(max_examples=100, deadline=None)
@given(steps=live_recipes())
def test_sweep_equals_one_run_per_branch(steps):
    try:
        expected = sweep_by_branch(steps)
    except optics.RecipeError as exc:
        with pytest.raises(optics.RecipeError) as err:
            optics.sweep_measure_outcomes(steps)
        assert (type(err.value), str(err.value)) == (type(exc), str(exc))
        return
    got = optics.sweep_measure_outcomes(steps)
    assert [(list(o.items()), p.hex()) for o, p in got] == [
        (list(o.items()), p.hex()) for o, p in expected
    ]


# The fields of a RecipeStep each op runs with; it ignores the others.
USED_FIELDS = {
    "source": {"gamma"},
    "fuse": {"h_on"},
    "rotate": {"angle"},
    "reset": set(),
    "measure": {"basis", "outcome"},
}
spare_fields = st.fixed_dictionaries(
    {},
    optional={
        "gamma": step_angles,
        "h_on": st.integers(0, 5),
        "angle": step_angles,
        "basis": bases,
        "outcome": st.integers(0, 1),
    },
)


@st.composite
def recipes_with_ignored_fields(draw):
    """``live_recipes`` steps that also carry fields their ops ignore."""
    steps = []
    for step in draw(live_recipes(max_steps=6)):
        extra = {k: v for k, v in draw(spare_fields).items() if k not in USED_FIELDS[step.op]}
        steps.append(dataclasses.replace(step, **extra))
    return steps


def run_bits(steps):
    """Labels, ``float.hex`` probability and amplitude bytes of a run, or its error."""
    try:
        register = optics.run_recipe(steps)
    except optics.RecipeError as exc:
        return type(exc), str(exc)
    return register.labels, register.cumulative_prob.hex(), register.state.amplitudes.tobytes()


@settings(max_examples=40, deadline=None)
@given(steps=recipes_with_ignored_fields())
def test_recipe_json_round_trip_keeps_document_and_run(steps):
    # steps_to_json once wrote a fuse's gamma, which steps_from_json rejects.
    text = optics.steps_to_json(steps)
    again = optics.steps_from_json(text)
    assert optics.steps_to_json(again) == text
    assert run_bits(again) == run_bits(steps)


@pytest.mark.parametrize(
    "alpha", [Fraction(2), 2 * np.pi, 1e-16], ids=["two-pi", "two-pi-float", "tiny"]
)
def test_recipe_json_keeps_a_hadamard_basis_with_nonzero_alpha(alpha):
    # Written as "computational", these read back as alpha 0: another phase.
    basis = optics.MeasurementBasis(alpha=alpha, hadamard=True)
    steps = [optics.RecipeStep("reset", (1,)), optics.RecipeStep("measure", (1,), basis=basis)]
    again = optics.steps_from_json(optics.steps_to_json(steps))
    assert again[1].basis == basis
