"""Coupling maps, greedy routing, and the protocol compiler."""

import hashlib
import re
from pathlib import Path

import numpy as np
import pytest
from fuzzing import READER_FUZZ, apply_line_edits, line_edits
from hypothesis import given

from qfhesim.circuit import (
    CircuitFormatError,
    CouplingMap,
    RoutingError,
    _emit_cnot,
    _emit_cz,
    _emit_swap,
    check_conformance,
    circuit,
    exact_readout_distribution,
    gate,
    ladder16,
    load_coupling,
    measure,
    rewrite_cz_to_cnot,
    ring,
    route,
    save_coupling,
    unitary_of,
    verify_equivalence,
)
from qfhesim import compiler, protocol
from qfhesim.cli import main
from qfhesim.compiler import CompileError, compile_qfhe_to_circuit
from qfhesim.harness import default_placement, input_bits_of, reference_pattern
from qfhesim.pattern import FlowMap, MeasurementPattern, OpenGraph
from qfhesim.protocol import enumerate_branches, total_variation

from test_circuit import SWAP_MATRIX, random_circuit

LADDER_FILE = Path(__file__).resolve().parents[1] / "couplings" / "ladder16.txt"


def induced_submap(coupling, keep):
    keep = sorted(keep)
    remap = {v: i for i, v in enumerate(keep)}
    edges = {
        (remap[c], remap[t])
        for c, t in coupling.edges
        if c in keep and t in keep
    }
    return CouplingMap(len(keep), frozenset(edges))


# -- coupling maps -----------------------------------------------------------


def test_coupling_validation():
    with pytest.raises(ValueError):
        CouplingMap(2, frozenset({(0, 2)}))
    with pytest.raises(ValueError):
        CouplingMap(2, frozenset({(1, 1)}))
    for num_nodes in (0, -3):
        with pytest.raises(ValueError, match=f"node count {num_nodes} is below 1"):
            CouplingMap(num_nodes, frozenset())


def test_ladder16_shape_and_connectivity():
    lad = ladder16()
    assert lad.num_nodes == 16
    assert len(lad.edges) == 22
    assert lad.is_connected()


def test_shipped_ladder_file_matches_builder(tmp_path):
    loaded = load_coupling(LADDER_FILE)
    assert loaded == ladder16()
    out = tmp_path / "roundtrip.txt"
    save_coupling(loaded, out)
    assert load_coupling(out) == loaded


@pytest.mark.parametrize(
    "data, where",
    [
        (b"2\nedge 0 \xff\n", ":2: 'utf-8' codec can't decode"),
        (b"2\nlink 0 1\n", ":2: unknown record 'link'"),
        (b"2 3\n", ":1: too many values to unpack"),
        (b"# no data\n", ": missing node count"),
        (b"2\nedge 0 2\n", ": edge (0, 2) references unknown node"),
        (b"-3\n", ": node count -3 is below 1"),
        (b"2\nedge 0 1\nedge 1 0\nedge 0 1\n", ":4: edge 0 1 given twice"),
    ],
)
def test_coupling_errors_name_path_and_line(tmp_path, data, where):
    path = tmp_path / "coupling.txt"
    path.write_bytes(data)
    with pytest.raises(CircuitFormatError) as err:
        load_coupling(path)
    assert str(err.value).startswith(f"{path}{where}")


COUPLING_RECORDS = ["edge", "16", "x"]
COUPLING_ARGS = ["0", "1", "15", "16", "-1", "2.5", "x", "#", "\xff"]


@READER_FUZZ
@given(line_edits(COUPLING_RECORDS, COUPLING_ARGS))
def test_coupling_reader_fuzz(tmp_path, capsys, edits):
    # Mutated copies of the shipped map either load or fail with path: or
    # path:line:, and `run` exits 2 on them with one error line.
    path = tmp_path / "coupling.txt"
    path.write_bytes(apply_line_edits(LADDER_FILE.read_bytes(), edits))
    try:
        load_coupling(path)
    except CircuitFormatError as exc:
        assert re.match(rf"{re.escape(str(path))}:([1-9][0-9]*:)? ", str(exc)), exc
        argv = ["run", "--mode", "qfhe-circuit", "--pattern", "reference"]
        assert main([*argv, "--coupling", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("count", [b"0\n", b"-3\n"])
def test_run_rejects_a_node_count_below_one(tmp_path, capsys, count):
    path = tmp_path / "coupling.txt"
    path.write_bytes(count)
    argv = ["run", "--mode", "qfhe-circuit", "--pattern", "reference", "--inputs", "0"]
    argv += ["--shots", "2", "--coupling", str(path), "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: {path}: node count {int(count)} is below 1\n"


def test_run_rejects_a_huge_edgeless_map_before_any_adjacency(
    tmp_path, capsys, monkeypatch
):
    calls = []
    undirected = CouplingMap.undirected
    monkeypatch.setattr(
        CouplingMap, "undirected", lambda self: calls.append(1) or undirected(self)
    )
    path = tmp_path / "coupling.txt"
    path.write_bytes(b"200000\n")
    argv = ["run", "--mode", "qfhe-circuit", "--pattern", "reference", "--inputs", "0"]
    argv += ["--shots", "2", "--coupling", str(path), "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: coupling map is not connected\n"
    assert calls == []


def test_disconnected_map_rejected():
    disco = CouplingMap(4, frozenset({(0, 1), (2, 3)}))
    assert not disco.is_connected()
    c = circuit(2, [gate("cnot", 0, 1)])
    with pytest.raises(RoutingError):
        route(c, disco, {0: 0, 1: 2})


# -- routing ------------------------------------------------------------------


def test_route_conformant_circuit_unchanged():
    lad = ladder16()
    c = circuit(3, [gate("cnot", 0, 1), gate("h", 2)])
    routed, final = route(c, lad, {0: 0, 1: 1, 2: 2})
    assert [i.gate for i in routed.instructions] == ["cnot", "h"]
    assert final == {0: 0, 1: 1, 2: 2}


def test_route_inserts_swap_on_path():
    # CNOT 0->2 on a 3-node directed path needs one swap step.
    path3 = CouplingMap(3, frozenset({(0, 1), (1, 2)}))
    c = circuit(3, [gate("cnot", 0, 2)])
    routed, final = route(c, path3, {0: 0, 1: 1, 2: 2})
    check_conformance(routed, path3)
    assert len(routed.instructions) > 1
    ok, dev = verify_equivalence(
        c, routed, up_to_global_phase=True,
        wire_perm=final, input_perm={0: 0, 1: 1, 2: 2},
    )
    assert ok, dev


def test_route_fixes_direction_with_h_conjugation():
    one_way = CouplingMap(2, frozenset({(0, 1)}))
    c = circuit(2, [gate("cnot", 1, 0)])
    routed, final = route(c, one_way, {0: 0, 1: 1})
    check_conformance(routed, one_way)
    ok, dev = verify_equivalence(c, routed, wire_perm=final, input_perm={0: 0, 1: 1})
    assert ok, dev


def test_route_requires_sane_placement():
    lad = ladder16()
    c = circuit(2, [gate("cnot", 0, 1)])
    with pytest.raises(RoutingError):
        route(c, lad, {0: 0})
    with pytest.raises(RoutingError):
        route(c, lad, {0: 0, 1: 0})
    with pytest.raises(RoutingError):
        route(c, lad, {0: 0, 1: 99})


@pytest.mark.parametrize("seed", range(10))
def test_routing_equivalence_on_ring_and_ladder_submaps(seed):
    rng = np.random.default_rng(200 + seed)
    c = random_circuit(rng, 5, 12)
    maps = [
        ring(5),
        induced_submap(ladder16(), [0, 1, 2, 8, 9, 10]),
        induced_submap(ladder16(), [3, 4, 5, 11, 12, 13]),
    ]
    for coupling in maps:
        init = {w: w for w in range(5)}
        routed, final = route(c, coupling, init)
        check_conformance(routed, coupling)
        ok, dev = verify_equivalence(
            c, routed, up_to_global_phase=True, wire_perm=final, input_perm=init
        )
        assert ok, (seed, dev)


# Every two-node lowering, recorded before CZ and SWAP went through the one
# CNOT emitter: (edge set, gate, a, b) -> gate list or RoutingError message.
TWO_NODE_EDGES = {
    "both": {(0, 1), (1, 0)},
    "0>1": {(0, 1)},
    "1>0": {(1, 0)},
    "none": set(),
}
TWO_NODE_LOWERINGS = {
    ("both", "cnot", 0, 1): "cnot 0 1",
    ("both", "cnot", 1, 0): "cnot 1 0",
    ("both", "cz", 0, 1): "h 1, cnot 0 1, h 1",
    ("both", "cz", 1, 0): "h 0, cnot 1 0, h 0",
    ("both", "swap", 0, 1): "cnot 0 1, cnot 1 0, cnot 0 1",
    ("both", "swap", 1, 0): "cnot 1 0, cnot 0 1, cnot 1 0",
    ("0>1", "cnot", 0, 1): "cnot 0 1",
    ("0>1", "cnot", 1, 0): "h 0, h 1, cnot 0 1, h 1, h 0",
    ("0>1", "cz", 0, 1): "h 1, cnot 0 1, h 1",
    ("0>1", "cz", 1, 0): "h 1, cnot 0 1, h 1",
    ("0>1", "swap", 0, 1): "cnot 0 1, h 0, h 1, cnot 0 1, h 1, h 0, cnot 0 1",
    ("0>1", "swap", 1, 0): "cnot 0 1, h 0, h 1, cnot 0 1, h 1, h 0, cnot 0 1",
    ("1>0", "cnot", 0, 1): "h 1, h 0, cnot 1 0, h 0, h 1",
    ("1>0", "cnot", 1, 0): "cnot 1 0",
    ("1>0", "cz", 0, 1): "h 0, cnot 1 0, h 0",
    ("1>0", "cz", 1, 0): "h 0, cnot 1 0, h 0",
    ("1>0", "swap", 0, 1): "cnot 1 0, h 1, h 0, cnot 1 0, h 0, h 1, cnot 1 0",
    ("1>0", "swap", 1, 0): "cnot 1 0, h 1, h 0, cnot 1 0, h 0, h 1, cnot 1 0",
    ("none", "cnot", 0, 1): "RoutingError: no coupling between adjacent nodes 0 and 1",
    ("none", "cnot", 1, 0): "RoutingError: no coupling between adjacent nodes 1 and 0",
    ("none", "cz", 0, 1): "RoutingError: no coupling between adjacent nodes 0 and 1",
    ("none", "cz", 1, 0): "RoutingError: no coupling between adjacent nodes 1 and 0",
    ("none", "swap", 0, 1): "RoutingError: no coupling between adjacent nodes 0 and 1",
    ("none", "swap", 1, 0): "RoutingError: no coupling between adjacent nodes 1 and 0",
}
EMITTERS = {"cnot": _emit_cnot, "cz": _emit_cz, "swap": _emit_swap}


def gate_text(instructions):
    return ", ".join(f"{i.gate} {' '.join(map(str, i.wires))}" for i in instructions)


@pytest.mark.parametrize("edges, kind, a, b", list(TWO_NODE_LOWERINGS))
def test_two_node_lowerings_match_the_table(edges, kind, a, b):
    out = []
    try:
        EMITTERS[kind](out, TWO_NODE_EDGES[edges], a, b)
        got = gate_text(out)
    except RoutingError as exc:
        got = f"RoutingError: {exc}"
    assert got == TWO_NODE_LOWERINGS[edges, kind, a, b]


@pytest.mark.parametrize("edge", [(0, 1), (1, 0)])
def test_one_way_swap_uses_only_h_and_the_allowed_cnot(edge):
    out = []
    _emit_swap(out, {edge}, 0, 1)
    assert np.max(np.abs(unitary_of(circuit(2, out)) - SWAP_MATRIX)) < 1e-12
    assert {i.gate for i in out} == {"cnot", "h"}
    assert all(i.wires == edge for i in out if i.gate == "cnot")


def random_directed_map(rng, n):
    """A random tree on n nodes plus n // 2 random pairs, each pair allowed
    in one direction, the other or both."""
    pairs = {(int(rng.integers(v)), v) for v in range(1, n)}
    for _ in range(n // 2):
        pairs.add(tuple(sorted(int(v) for v in rng.choice(n, 2, replace=False))))
    edges = set()
    for u, v in sorted(pairs):
        way = int(rng.integers(3))
        edges |= {(u, v)} if way == 0 else {(v, u)} if way == 1 else {(u, v), (v, u)}
    return CouplingMap(n, frozenset(edges))


def routing_transcript():
    """One line per routed, and one per CZ-rewritten, seeded random circuit."""
    rng = np.random.default_rng(1712)
    maps = [ladder16(), ring(5)]
    maps += [random_directed_map(rng, int(rng.integers(2, 9))) for _ in range(20)]
    lines = []
    for coupling in maps:
        for _ in range(6):
            wires = int(rng.integers(2, coupling.num_nodes + 1))
            c = random_circuit(rng, wires, 16)
            spots = rng.permutation(coupling.num_nodes)[:wires]
            routed, final = route(c, coupling, {w: int(p) for w, p in enumerate(spots)})
            lines.append(f"{gate_text(routed.instructions)} -> {sorted(final.items())}")
            lines.append(gate_text(rewrite_cz_to_cnot(c).instructions))
    return lines


ROUTE_DIGEST = "5ef9d00682c71ebf102064944eb0f014160ccd08abb211cbc2e92d5366d858cb"


def test_routes_match_the_recorded_digest():
    # Recorded before CZ and SWAP went through the one CNOT emitter and the
    # paths through one breadth-first search.
    text = "\n".join(routing_transcript())
    assert hashlib.sha256(text.encode()).hexdigest() == ROUTE_DIGEST


# -- compiler ------------------------------------------------------------------


def test_compiled_reference_matches_protocol_exactly():
    ref = reference_pattern()
    for value in range(8):
        bits = input_bits_of(ref, value)
        comp = compile_qfhe_to_circuit(ref, bits)
        dist = exact_readout_distribution(comp.circuit)
        agg = {}
        for s, p in dist.items():
            key = "".join(s[comp.output_positions[o]] for o in ref.graph.outputs)
            agg[key] = agg.get(key, 0.0) + p
        want = enumerate_branches(ref, bits, mode="qfhe")
        for k in set(agg) | set(want):
            assert abs(agg.get(k, 0.0) - want.get(k, 0.0)) < 1e-9, (value, k)


def test_compiled_routed_reference_matches_protocol():
    ref = reference_pattern()
    lad = ladder16()
    bits = input_bits_of(ref, 6)
    comp = compile_qfhe_to_circuit(
        ref, bits, placement=default_placement(ref), coupling=lad
    )
    check_conformance(comp.circuit, lad)
    assert comp.num_instructions > 100
    dist = exact_readout_distribution(comp.circuit)
    agg = {}
    for s, p in dist.items():
        key = "".join(s[comp.output_positions[o]] for o in ref.graph.outputs)
        agg[key] = agg.get(key, 0.0) + p
    want = enumerate_branches(ref, bits, mode="qfhe")
    assert total_variation(agg, want) < 1e-9


def test_compile_without_quarter_nodes_has_no_controlled_sdg():
    graph = OpenGraph((1, 2, 3), ((1, 2), (2, 3)), (1,), (3,))
    pat = MeasurementPattern(graph, FlowMap({1: 2, 2: 3}, (1, 2)), {1: 0, 2: 2})
    comp = compile_qfhe_to_circuit(pat, [0])
    assert comp.num_controlled_sdg == 0
    # and with quarter angles present the template appears once per node
    ref = reference_pattern()
    comp = compile_qfhe_to_circuit(ref, [0, 0, 0])
    assert comp.num_controlled_sdg == 2


def test_compile_requires_placement_for_routing():
    ref = reference_pattern()
    with pytest.raises(CompileError):
        compile_qfhe_to_circuit(ref, [0, 0, 0], coupling=ladder16())


@pytest.mark.parametrize("label", [99, ("companion", 5)])
def test_compile_rejects_a_placement_label_naming_no_wire(label):
    # Node 5 has angle pi/2, so no companion; physical node 15 is free.
    ref = reference_pattern()
    placement = {**default_placement(ref), label: 15}
    with pytest.raises(CompileError, match=re.escape(repr(label))):
        compile_qfhe_to_circuit(ref, [0, 0, 0], placement=placement, coupling=ladder16())


@pytest.mark.parametrize("tamper", ["constant", "drop-predecessor", "extra-symbol"])
def test_symbolic_check_rejects_a_wrong_wire_value(monkeypatch, tamper):
    # Node 5 (angle pi/2) fans in its predecessor 2; spoil what its wire is
    # tracked to hold and the check must refuse the circuit.
    ref = reference_pattern()
    w5, w2 = ref.plan.wire_of[5], ref.plan.wire_of[2]
    real = compiler._assert_corrected_values

    def tampered(pattern, keys, value):
        value = dict(value)
        value[w5] ^= {
            "constant": compiler._ONE,
            "drop-predecessor": value[w2],
            "extra-symbol": frozenset({("s", 7)}),
        }[tamper]
        real(pattern, keys, value)

    monkeypatch.setattr(compiler, "_assert_corrected_values", tampered)
    with pytest.raises(CompileError, match="node 5"):
        compile_qfhe_to_circuit(ref, [0, 1, 0])


def test_symbolic_check_follows_the_protocol_rule(monkeypatch):
    # Corrupt the rule, not the circuit: the check reads the rule, so it
    # must now refuse the unchanged circuit.
    rule = protocol._corrected_bit

    def without_pred(pattern, node, s, b, alpha, keys, drop_pred_term=False):
        return rule(pattern, node, s, b, alpha, keys, True)

    monkeypatch.setattr(protocol, "_corrected_bit", without_pred)
    with pytest.raises(CompileError, match="node 5"):
        compile_qfhe_to_circuit(reference_pattern(), [0, 0, 0])


def test_compiled_masks_recover_server_raw_bits():
    # The raw (pre-correction) server readout of each output equals the
    # XOR of the output wire with its fan-in source, so the server masks
    # must reproduce the uncorrected marginal of one half exactly.
    ref = reference_pattern()
    bits = input_bits_of(ref, 5)
    comp = compile_qfhe_to_circuit(ref, bits)
    dist = exact_readout_distribution(comp.circuit)
    for k, o in enumerate(ref.graph.outputs):
        p_raw = 0.0
        for s, p in dist.items():
            acc = 0
            for pos in comp.server_masks[k]:
                acc ^= int(s[pos])
            p_raw += p * acc
        assert abs(p_raw - 0.5) < 1e-9, (o, p_raw)


def test_compiled_circuit_is_terminal_and_named():
    ref = reference_pattern()
    comp = compile_qfhe_to_circuit(ref, [1, 0, 1])
    comp.circuit.require_terminal_measurements()
    names = [m.bit for m in comp.circuit.measurements]
    assert names == comp.bit_names
    assert "n7" in names and "c4" in names and "c6" in names


def test_compiled_circuit_starts_with_the_plan_preparation():
    ref = reference_pattern()
    prep = ref.plan.prep.instructions
    for v in (0, 5):
        got = compile_qfhe_to_circuit(ref, input_bits_of(ref, v)).circuit.instructions
        assert got[: len(prep)] == prep
