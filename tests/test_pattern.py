"""Open-graph patterns, flow validation, corrections, interactive runs."""

import re
from math import pi
from pathlib import Path

import numpy as np
import pytest
from fuzzing import READER_FUZZ, apply_line_edits, line_edits
from hypothesis import given, settings, strategies as st

from qfhesim.circuit import final_state
from qfhesim.cli import main
from qfhesim.compiler import compile_qfhe_to_circuit
from qfhesim.harness import reference_pattern
from qfhesim.pattern import (
    CANONICAL_ANGLE_KS,
    FlowError,
    FlowMap,
    MeasurementPattern,
    OpenGraph,
    PatternFormatError,
    corrected_angle,
    flow_order_from_partial,
    j_alpha_pattern,
    j_branch_states,
    load_pattern,
    random_pattern,
    run_interactive,
    save_pattern,
    validate_flow,
    z_dependency_set,
)
from qfhesim.protocol import deferred_corrections, enumerate_branches, run_qfhe_detailed
from qfhesim.statevec import GATES_1Q, trace_distance_pure


def chain(n):
    nodes = tuple(range(1, n + 1))
    edges = tuple((i, i + 1) for i in range(1, n))
    graph = OpenGraph(nodes, edges, (1,), (n,))
    f = {i: i + 1 for i in range(1, n)}
    return graph, FlowMap(f, tuple(range(1, n)))


# -- graph/type validation --------------------------------------------------


def test_open_graph_rejects_bad_structure():
    with pytest.raises(ValueError):
        OpenGraph((1, 2), ((1, 1),), (1,), (2,))
    with pytest.raises(ValueError):
        OpenGraph((1, 2), ((1, 3),), (1,), (2,))
    with pytest.raises(ValueError):
        OpenGraph((1, 2), ((1, 2),), (3,), (2,))


def test_open_graph_rejects_repeated_edge_or_io_node():
    # Two CZs on one edge cancel, so the graph state would not be the one named.
    with pytest.raises(ValueError, match=r"edge \(1, 2\) repeated"):
        OpenGraph((1, 2, 3), ((1, 2), (2, 3), (2, 1)), (1,), (3,))
    with pytest.raises(ValueError, match=r"an input node is listed twice: \(1, 1\)"):
        OpenGraph((1, 2), ((1, 2),), (1, 1), (2,))
    with pytest.raises(ValueError, match=r"an output node is listed twice: \(2, 2\)"):
        OpenGraph((1, 2), ((1, 2),), (1,), (2, 2))


def test_pattern_requires_angles_for_measured_nodes():
    graph, flow = chain(2)
    with pytest.raises(ValueError):
        MeasurementPattern(graph, flow, {})
    with pytest.raises(ValueError):
        MeasurementPattern(graph, flow, {1: 9})


# -- flow validation ----------------------------------------------------------


def test_two_node_flow_valid():
    graph, flow = chain(2)
    ok, violations = validate_flow(graph, flow)
    assert ok and not violations


def test_flow_to_self_is_invalid():
    graph, _ = chain(2)
    # f(1) = 1 maps into the input set and is not a neighbour of itself.
    flow = FlowMap({1: 1}, (1,))
    ok, violations = validate_flow(graph, flow)
    assert not ok and violations


def test_four_partition_grid_has_flow():
    # Two rows by four columns, flow rightward, partitions = columns.
    nodes = tuple(range(1, 9))
    edges = ((1, 3), (3, 5), (5, 7), (2, 4), (4, 6), (6, 8), (5, 6))
    graph = OpenGraph(nodes, edges, (1, 2), (7, 8))
    f = {1: 3, 2: 4, 3: 5, 4: 6, 5: 7, 6: 8}
    order = flow_order_from_partial(graph, f)
    ok, violations = validate_flow(graph, FlowMap(f, order))
    assert ok, violations


def test_flow_structural_errors_raise():
    graph, flow = chain(3)
    with pytest.raises(FlowError):
        validate_flow(graph, FlowMap({1: 2}, (1, 2)))  # not total
    with pytest.raises(FlowError):
        validate_flow(graph, FlowMap({1: 9, 2: 3}, (1, 2)))  # unknown node


def test_flow_condition_mutations_rejected():
    # Start from a valid two-chain pattern and break each condition.
    nodes = (1, 2, 3, 4, 5, 6)
    edges = ((1, 3), (3, 5), (2, 4), (4, 6), (3, 4))
    graph = OpenGraph(nodes, edges, (1, 2), (5, 6))
    f = {1: 3, 2: 4, 3: 5, 4: 6}
    order = flow_order_from_partial(graph, f)
    ok, _ = validate_flow(graph, FlowMap(f, order))
    assert ok

    # Condition 1: f(x) no longer a neighbour.
    bad = dict(f)
    bad[1] = 4
    ok1, v1 = validate_flow(graph, FlowMap(bad, order))
    assert not ok1 and any("neighbour of 1" in s for s in v1)

    # Condition 2: x measured after f(x).
    ok2, v2 = validate_flow(graph, FlowMap({1: 3, 2: 4, 3: 5, 4: 3}, (1, 2, 4, 3)))
    assert not ok2

    # Condition 3: a neighbour of f(x) measured before x.
    ok3, v3 = validate_flow(graph, FlowMap(f, (3, 1, 2, 4)))
    assert not ok3 and any("precede" in s for s in v3)


def test_flow_order_builder_detects_cycles():
    nodes = (1, 2, 3, 4)
    edges = ((1, 2), (2, 3), (3, 4), (1, 4))
    graph = OpenGraph(nodes, edges, (1,), (4,))
    # f forces 1 before 2's neighbours and 2 before 1's, which cycles with
    # the ring edges.
    f = {1: 2, 2: 1, 3: 4}
    with pytest.raises(FlowError):
        flow_order_from_partial(graph, f)


def test_random_patterns_validate():
    rng = np.random.default_rng(21)
    for _ in range(25):
        pat = random_pattern(rng, max_measured=5)
        ok, violations = validate_flow(pat.graph, pat.flow)
        assert ok, violations
        assert len(pat.flow.order) <= 5
        assert set(pat.angles.values()) <= set(CANONICAL_ANGLE_KS)


# -- z-dependency sets ---------------------------------------------------------


def test_zdeps_on_three_chain():
    graph, flow = chain(3)
    assert z_dependency_set(graph, flow, 3) == {1}
    assert z_dependency_set(graph, flow, 2) == set()


def test_zdeps_isolated_pair():
    graph = OpenGraph((1, 2, 3, 4), ((1, 2), (3, 4)), (1, 3), (2, 4))
    flow = FlowMap({1: 2, 3: 4}, (1, 3))
    assert z_dependency_set(graph, flow, 4) == set()
    assert z_dependency_set(graph, flow, 2) == set()


# -- the per-pattern plan --------------------------------------------------------


def test_plan_of_reference_pattern():
    ref = reference_pattern()
    plan = ref.plan
    assert plan is ref.plan
    for v in ref.graph.nodes:
        assert plan.pred[v] == ref.flow.predecessor(v)
        assert plan.zdeps[v] == z_dependency_set(ref.graph, ref.flow, v)
    assert list(plan.wire_of) == [*range(1, 10), ("companion", 4), ("companion", 6)]
    assert list(plan.wire_of.values()) == list(range(11))
    assert plan.family == {1: "z", 2: "pred", 3: "z", 4: "gadget", 5: "pred", 6: "gadget"}


def test_plan_prep_is_graph_state_with_companion_copies():
    # Oracle: the amplitude of a basis state is +-2^(-n/2) by the parity of
    # its set edges when every companion copies its node, and 0 otherwise.
    ref = reference_pattern()
    wire_of = ref.plan.wire_of
    amps = final_state(ref.plan.prep).amps
    scale = 2.0 ** (-len(ref.graph.nodes) / 2)
    for idx in range(len(amps)):
        bit = {label: (idx >> w) & 1 for label, w in wire_of.items()}
        copied = all(bit[("companion", v)] == bit[v] for v in ref.quarter_nodes)
        parity = sum(bit[a] & bit[b] for a, b in ref.graph.edges) % 2
        want = (-1) ** parity * scale if copied else 0.0
        assert abs(amps[idx] - want) < 1e-12


def test_plan_validates_once_across_runs(monkeypatch):
    graph, flow = chain(3)
    pat = MeasurementPattern(graph, flow, {1: 1, 2: 2})
    calls = []
    real = MeasurementPattern.validate
    monkeypatch.setattr(
        MeasurementPattern, "validate", lambda self: calls.append(1) or real(self)
    )
    rng = np.random.default_rng(3)
    for _ in range(3):
        run_interactive(pat, [1], rng)
        run_qfhe_detailed(pat, [1], rng)
        enumerate_branches(pat, [1], mode="qfhe")
        compile_qfhe_to_circuit(pat, [1])
    assert len(calls) == 1


def test_plan_of_broken_flow_raises_every_time():
    graph, flow = chain(3)
    pat = MeasurementPattern(graph, FlowMap(flow.f, (2, 1)), {1: 0, 2: 0})
    for _ in range(2):
        with pytest.raises(FlowError):
            pat.plan
    with pytest.raises(FlowError):
        run_interactive(pat, [0], np.random.default_rng(0))


def test_plan_accepts_angles_without_a_deferred_rule():
    pat = j_alpha_pattern(pi / 4)  # measured at -pi/4, angle multiple 7
    assert pat.angles == {1: 7}
    assert pat.plan.family == {1: None}
    run_interactive(pat, [0], np.random.default_rng(0))
    with pytest.raises(ValueError, match="no deferred-correction rule"):
        deferred_corrections(pat, {1: 0, 2: 0}, {}, [0])


# -- corrected angles -----------------------------------------------------------


@pytest.mark.parametrize(
    "phi,s_x,z,want",
    [
        (pi / 4, 0, 0, pi / 4),
        (pi / 4, 1, 0, 7 * pi / 4),
        (pi / 2, 1, 1, pi / 2),
        (0.0, 0, 1, pi),
        (3 * pi / 2, 1, 0, pi / 2),
    ],
)
def test_corrected_angle_values(phi, s_x, z, want):
    assert abs(corrected_angle(phi, s_x, z) - want) < 1e-12


def test_corrected_angle_rejects_off_grid():
    with pytest.raises(ValueError):
        corrected_angle(0.3, 0, 0)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.sampled_from([0.0, pi]), st.integers(0, 1), st.integers(0, 1))
def test_corrected_angle_sign_invariant_on_half_turns(phi, s_x, z):
    # Flipping the X dependency never moves angles 0 or pi.
    assert abs(corrected_angle(phi, 0, z) - corrected_angle(phi, s_x, z)) < 1e-12


# -- J(alpha) ----------------------------------------------------------------


def test_j_pattern_shape():
    pat = j_alpha_pattern(pi / 2)
    assert pat.graph.inputs == (1,) and pat.graph.outputs == (2,)
    assert pat.angles == {1: 6}  # measured at -pi/2


def test_j_zero_realizes_hadamard():
    rng = np.random.default_rng(22)
    for _ in range(10):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        branches = j_branch_states(0.0, v)
        want = GATES_1Q["h"] @ v
        for p, state in branches:
            assert trace_distance_pure(state, want) < 1e-9
            assert abs(p - 0.5) < 1e-12


def test_j_branches_agree_for_all_allowed_angles():
    rng = np.random.default_rng(23)
    for alpha in (0.0, pi / 4, pi / 2, pi, 3 * pi / 2):
        for _ in range(5):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            v /= np.linalg.norm(v)
            (p0, s0), (p1, s1) = j_branch_states(alpha, v)
            assert abs(p0 + p1 - 1.0) < 1e-12
            assert trace_distance_pure(s0, s1) < 1e-9


def test_j_zero_chain_realizes_identity():
    # Two J(0) steps compose to the identity on the hidden-input encoding.
    graph, flow = chain(3)
    pat = MeasurementPattern(graph, flow, {1: 0, 2: 0})
    rng = np.random.default_rng(24)
    for bit in (0, 1):
        for _ in range(4):
            _, out_state = run_interactive(pat, [bit], rng, keep_quantum_output=True)
            want = np.array([1, (-1) ** bit], dtype=complex) / np.sqrt(2)
            assert trace_distance_pure(out_state.amps, want) < 1e-9


# -- interactive execution ------------------------------------------------------


def test_j0_gives_deterministic_zero_output():
    graph, flow = chain(2)
    pat = MeasurementPattern(graph, flow, {1: 0})
    rng = np.random.default_rng(25)
    for _ in range(20):
        _, bits = run_interactive(pat, [0], rng)
        assert bits == [0]


def test_j0_transports_the_input_bit():
    graph, flow = chain(2)
    pat = MeasurementPattern(graph, flow, {1: 0})
    rng = np.random.default_rng(26)
    for bit in (0, 1):
        for _ in range(20):
            _, bits = run_interactive(pat, [bit], rng)
            assert bits == [bit]


def test_all_zero_angles_deterministic_outputs():
    graph, flow = chain(4)
    pat = MeasurementPattern(graph, flow, {1: 0, 2: 0, 3: 0})
    rng = np.random.default_rng(27)
    seen = {tuple(run_interactive(pat, [0], rng)[1]) for _ in range(20)}
    assert len(seen) == 1


def test_run_interactive_validates_inputs():
    graph, flow = chain(2)
    pat = MeasurementPattern(graph, flow, {1: 0})
    rng = np.random.default_rng(28)
    with pytest.raises(ValueError):
        run_interactive(pat, [0, 1], rng)
    bad_flow = FlowMap({1: 1}, (1,))
    bad = MeasurementPattern(graph, bad_flow, {1: 0})
    with pytest.raises(FlowError):
        run_interactive(bad, [0], rng)


# -- pattern files -----------------------------------------------------------


def test_pattern_file_round_trip(tmp_path):
    rng = np.random.default_rng(29)
    pat = random_pattern(rng, max_measured=5)
    path = tmp_path / "pattern.txt"
    save_pattern(pat, path)
    loaded = load_pattern(path)
    assert loaded.graph == pat.graph
    assert loaded.flow.f == pat.flow.f
    assert loaded.angles == pat.angles


def test_pattern_file_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("node 1\nnode 2\nedge 1 2\nangle 1 3\n", encoding="utf-8")
    with pytest.raises(PatternFormatError, match=r"bad.txt:4"):
        load_pattern(path)
    path.write_text("node 1\nwhatever 3\n", encoding="utf-8")
    with pytest.raises(PatternFormatError, match=r"bad.txt:2"):
        load_pattern(path)


def test_pattern_file_rejects_seven_quarters(tmp_path):
    # -pi/4 style angles are not accepted by the loader.
    path = tmp_path / "seven.txt"
    path.write_text(
        "node 1\nnode 2\nedge 1 2\ninput 1\noutput 2\nangle 1 7\nflow 1 2\n",
        encoding="utf-8",
    )
    with pytest.raises(PatternFormatError):
        load_pattern(path)


def test_pattern_file_comments_and_multi_ids(tmp_path):
    path = tmp_path / "ok.txt"
    path.write_text(
        "# a comment\n"
        "node 1\nnode 2\nnode 3\nnode 4\n"
        "edge 1 3\nedge 2 4\n"
        "input 1 2\noutput 3 4\n"
        "angle 1 0  # trailing comment\nangle 2 2\n"
        "flow 1 3\nflow 2 4\n",
        encoding="utf-8",
    )
    pat = load_pattern(path)
    assert pat.graph.inputs == (1, 2)
    assert pat.angles == {1: 0, 2: 2}


@pytest.mark.parametrize(
    "data, where",
    [
        (
            b"node 1\nnode 2\nedge 1 2\ninput 1\noutput 2\nflow 1 2\nflow 2 1\n",
            ": flow from 2, which is not a measured node",
        ),
        (b"node 1\nnode 2 # \xff\n", ":2: 'utf-8' codec can't decode"),
        (b"node 1\nnode 2\ninput 1\ninput 1\n", ":4: input node 1 given twice"),
        (b"node 1\nnode 1\n", ":2: node 1 given twice"),
        (b"node 1\nnode 2\noutput 2 2\n", ":3: output node 2 given twice"),
    ],
)
def test_pattern_reader_errors_name_path_and_line(tmp_path, data, where):
    path = tmp_path / "pattern.txt"
    path.write_bytes(data)
    with pytest.raises(PatternFormatError) as err:
        load_pattern(path)
    assert str(err.value).startswith(f"{path}{where}")


REFERENCE_FILE = Path(__file__).resolve().parents[1] / "patterns" / "reference.txt"
PATTERN_RECORDS = ["node", "edge", "input", "output", "angle", "flow", "x"]
PATTERN_ARGS = ["1", "4", "7", "9", "10", "0", "-1", "2.5", "x", "#", "\xff"]


@READER_FUZZ
@given(line_edits(PATTERN_RECORDS, PATTERN_ARGS))
def test_pattern_reader_fuzz(tmp_path, capsys, edits):
    # Mutated copies of a shipped pattern file either parse or fail with
    # path:line (path: for whole-file errors), and `run` exits 2 on them.
    path = tmp_path / "pattern.txt"
    path.write_bytes(apply_line_edits(REFERENCE_FILE.read_bytes(), edits))
    try:
        load_pattern(path)
    except PatternFormatError as exc:
        assert re.match(rf"{re.escape(str(path))}:([1-9][0-9]*:)? ", str(exc)), exc
        argv = ["run", "--mode", "interactive", "--pattern", str(path)]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:") and "Traceback" not in err


@pytest.mark.parametrize(
    "line, message",
    [
        ("edge 5 4", "edge between 4 and 5 given twice"),
        ("angle 4 0", "angle of node 4 given twice"),
        ("flow 1 4", "flow from 1 given twice"),
        ("node 4", "node 4 given twice"),
        ("input 2", "input node 2 given twice"),
        ("output 9", "output node 9 given twice"),
    ],
)
def test_repeated_pattern_record_names_its_line(tmp_path, capsys, line, message):
    path = tmp_path / "pattern.txt"
    data = REFERENCE_FILE.read_bytes()
    path.write_bytes(data + line.encode() + b"\n")
    lineno = len(data.splitlines()) + 1
    argv = ["run", "--mode", "interactive", "--pattern", str(path)]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {path}:{lineno}: {message}\n"
