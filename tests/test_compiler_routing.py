"""Coupling maps, greedy routing, and the protocol compiler."""

import numpy as np
import pytest

from qfhesim.circuit import (
    CouplingMap,
    RoutingError,
    check_conformance,
    circuit,
    exact_readout_distribution,
    gate,
    ladder16,
    load_coupling,
    measure,
    ring,
    route,
    save_coupling,
    verify_equivalence,
)
from qfhesim import compiler, protocol
from qfhesim.compiler import CompileError, compile_qfhe_to_circuit
from qfhesim.harness import default_placement, input_bits_of, reference_pattern
from qfhesim.pattern import FlowMap, MeasurementPattern, OpenGraph
from qfhesim.protocol import enumerate_branches, total_variation

from test_circuit import random_circuit


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


def test_ladder16_shape_and_connectivity():
    lad = ladder16()
    assert lad.num_nodes == 16
    assert len(lad.edges) == 22
    assert lad.is_connected()


def test_shipped_ladder_file_matches_builder(tmp_path):
    from pathlib import Path

    repo_file = Path(__file__).resolve().parents[1] / "couplings" / "ladder16.txt"
    loaded = load_coupling(repo_file)
    assert loaded == ladder16()
    out = tmp_path / "roundtrip.txt"
    save_coupling(loaded, out)
    assert load_coupling(out) == loaded


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
