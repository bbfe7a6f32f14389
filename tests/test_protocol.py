"""Delegated execution: key updates, corrections, oracle equivalences."""

from math import pi

import numpy as np
import pytest

from qfhesim import protocol
from qfhesim.harness import input_bits_of, reference_pattern
from qfhesim.pattern import (
    FlowError,
    FlowMap,
    MeasurementPattern,
    OpenGraph,
    _with_input_flips,
    flow_order_from_partial,
    input_keys,
)
from qfhesim.protocol import (
    client_basis,
    deferred_corrections,
    encode_input,
    enumerate_branches,
    key_update_T,
    run_qfhe,
    run_qfhe_detailed,
    server_output_marginals_exact,
    total_variation,
)
from qfhesim.statevec import GATES_1Q, BranchBatch, StateVector, gate_matrix


def equal_up_to_phase(a, b, tol=1e-12):
    k = np.argmax(np.abs(b))
    if abs(b.flat[k]) < tol:
        return np.allclose(a, b, atol=tol)
    phase = a.flat[k] / b.flat[k]
    return abs(abs(phase) - 1) < tol and np.allclose(a, phase * b, atol=tol)


# -- input hiding ------------------------------------------------------------


def test_encode_input_examples():
    assert encode_input([1, 0, 1]) == [1, 0, 1]
    assert encode_input([0, 0, 0]) == [0, 0, 0]
    assert encode_input([1, 1, 1]) == [1, 1, 1]
    with pytest.raises(ValueError):
        encode_input([2])


def test_hiding_matches_minus_plus_preparation():
    # key 1 on |+> is exactly the |-> preparation it hides.
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    minus = GATES_1Q["z"] @ plus
    assert np.allclose(minus, np.array([1, -1]) / np.sqrt(2), atol=1e-15)


# -- T-gate key update ---------------------------------------------------------


@pytest.mark.parametrize(
    "a,b,want",
    [
        (0, 0, (0, 0, 0)),
        (0, 1, (0, 1, 0)),
        (1, 0, (1, 1, 1)),
        (1, 1, (1, 0, 1)),
    ],
)
def test_key_update_truth_table(a, b, want):
    assert key_update_T(a, b) == want


def test_key_update_matches_operator_identity():
    # T X^a Z^b equals X^a Z^{a xor b} S^a T up to a global phase.
    t, x, z, s = (gate_matrix(n) for n in ("t", "x", "z", "s"))
    for a in (0, 1):
        for b in (0, 1):
            xa, zb = np.linalg.matrix_power(x, a), np.linalg.matrix_power(z, b)
            lhs = t @ xa @ zb
            x_k, z_k, s_k = key_update_T(a, b)
            rhs = (
                np.linalg.matrix_power(x, x_k)
                @ np.linalg.matrix_power(z, z_k)
                @ np.linalg.matrix_power(s, s_k)
                @ t
            )
            assert equal_up_to_phase(lhs, rhs), (a, b)


def test_key_update_composes_to_z_bookkeeping():
    # Two T layers: the two S flags share the X key and collapse to one Z.
    for a in (0, 1):
        for b in (0, 1):
            x1, z1, s1 = key_update_T(a, b)
            x2, z2, s2 = key_update_T(x1, z1)
            assert (x2, z2) == (a, b)
            assert s1 == s2 == a  # S^a twice = Z^a


# -- basis selection ------------------------------------------------------------


def test_client_basis():
    assert client_basis(0) == "X"
    assert client_basis(1) == "Y"
    assert client_basis(0) == client_basis(0)
    with pytest.raises(ValueError):
        client_basis(2)


# -- deferred corrections --------------------------------------------------------


def three_chain(angles):
    graph = OpenGraph((1, 2, 3), ((1, 2), (2, 3)), (1,), (3,))
    flow = FlowMap({1: 2, 2: 3}, (1, 2))
    return MeasurementPattern(graph, flow, angles)


def test_correction_case_without_predecessor_term():
    # angle 0: b = s xor key xor z-parity; the chain has no z deps.
    pat = three_chain({1: 0, 2: 0})
    b = deferred_corrections(pat, {1: 1, 2: 0, 3: 0}, {}, [0])
    assert b[1] == 1
    b = deferred_corrections(pat, {1: 1, 2: 0, 3: 0}, {}, [1])
    assert b[1] == 0


def test_correction_case_with_predecessor_term():
    pat = three_chain({1: 0, 2: 2})
    b = deferred_corrections(pat, {1: 1, 2: 0, 3: 0}, {}, [0])
    assert b[2] == 0 ^ b[1]
    assert b[3] == 0 ^ b[2]


def test_correction_case_quarter_uses_companion():
    pat = three_chain({1: 0, 2: 1})
    b = deferred_corrections(pat, {1: 0, 2: 1, 3: 0}, {2: 1}, [0])
    assert b[2] == 1 ^ 1  # s xor alpha, no z deps on this chain
    with pytest.raises(ValueError):
        deferred_corrections(pat, {1: 0, 2: 1, 3: 0}, {}, [0])


def test_corrections_reject_unsupported_angles():
    pat = three_chain({1: 0, 2: 3})
    with pytest.raises(ValueError):
        deferred_corrections(pat, {1: 0, 2: 0, 3: 0}, {}, [0])


def test_corrections_zdep_parity():
    ref = reference_pattern()
    s = {n: 0 for n in ref.graph.nodes}
    s[1] = 1
    b = deferred_corrections(ref, s, {4: 0, 6: 0}, [0, 0, 0])
    # node 5's correction cone contains node 1 through the middle rung
    assert b[5] == s[5] ^ b[2] ^ b[1] ^ b[3]
    assert b[7] == s[7] ^ b[4]


def test_corrected_bit_leaves_array_inputs_unchanged():
    # Batched shots hold one bit array per node; correcting must not write
    # through to the raw outcomes or the corrected bits it reads.
    ref = reference_pattern()
    rng = np.random.default_rng(35)
    s = {v: rng.integers(0, 2, size=6) for v in ref.graph.nodes}
    alpha = {v: rng.integers(0, 2, size=6) for v in ref.quarter_nodes}
    keys = {1: 1, 2: 1, 3: 0}
    before = {v: bits.copy() for v, bits in s.items()}
    b = {}
    for i in ref.flow.order:
        b[i] = protocol._corrected_bit(ref, i, s, b, alpha, keys)
    assert all(np.array_equal(s[v], before[v]) for v in s)
    for row in range(6):
        scalar = deferred_corrections(
            ref,
            {v: int(bits[row]) for v, bits in s.items()},
            {v: int(bits[row]) for v, bits in alpha.items()},
            [1, 1, 0],
        )
        assert all(scalar[i] == b[i][row] for i in ref.flow.order)


# -- protocol runs ----------------------------------------------------------------


def test_run_qfhe_surfaces():
    ref = reference_pattern()
    rng = np.random.default_rng(31)
    bits, view, transcript = run_qfhe(ref, [1, 0, 1], rng)
    assert len(bits) == 3 and all(v in (0, 1) for v in bits)
    assert set(view.raw_outcomes) == set(ref.flow.order)
    assert set(view.raw_output_bits) == set(ref.graph.outputs)
    text = transcript.serialize()
    assert "c2s nodes" in text and "s2c outcome" in text
    assert "companion-return" in text


def test_one_protocol_run_keys_its_input_bits_once(monkeypatch):
    calls = []
    monkeypatch.setattr(
        protocol, "input_keys", lambda *a: calls.append(1) or input_keys(*a)
    )
    run_qfhe_detailed(reference_pattern(), [1, 0, 1], np.random.default_rng(31))
    assert len(calls) == 1


def test_server_view_carries_no_client_data():
    ref = reference_pattern()
    rng = np.random.default_rng(32)
    run = run_qfhe_detailed(ref, [1, 1, 0], rng)
    fields = set(vars(run.server_view))
    assert fields == {
        "nodes",
        "edges",
        "default_angles",
        "raw_outcomes",
        "raw_output_bits",
    }


def test_client_state_invariants():
    ref = reference_pattern()
    rng = np.random.default_rng(33)
    for value in (0, 3, 6):
        bits = input_bits_of(ref, value)
        run = run_qfhe_detailed(ref, bits, rng)
        client = run.client
        assert client.z_keys == dict(zip(ref.graph.inputs, bits))
        for node, basis in client.basis_choices.items():
            prev = ref.flow.predecessor(node)
            want = "Y" if run.client.ledger.b[prev] else "X"
            assert basis == want


def test_transcript_reproducible_for_fixed_seed():
    ref = reference_pattern()
    t1 = run_qfhe(ref, [1, 0, 1], np.random.default_rng(99))[2].serialize()
    t2 = run_qfhe(ref, [1, 0, 1], np.random.default_rng(99))[2].serialize()
    t3 = run_qfhe(ref, [1, 0, 1], np.random.default_rng(100))[2].serialize()
    assert t1 == t2
    assert t1 != t3  # different stream almost surely differs


def test_pattern_without_quarter_angles_has_no_companions():
    pat = three_chain({1: 0, 2: 2})
    rng = np.random.default_rng(34)
    run = run_qfhe_detailed(pat, [1], rng)
    assert run.client.alpha == {}
    assert "companion" not in run.transcript.serialize()
    # corrections depend only on raw outcomes and the input
    b = deferred_corrections(pat, run.client.ledger.s, {}, [1])
    assert b == run.client.ledger.b


def test_deferred_corrections_rejects_broken_flow():
    pat = three_chain({1: 0, 2: 2})
    broken = MeasurementPattern(pat.graph, FlowMap(pat.flow.f, (2, 1)), pat.angles)
    with pytest.raises(FlowError):
        deferred_corrections(broken, {1: 0, 2: 0, 3: 0}, {}, [0])


# -- oracle equivalences ------------------------------------------------------


def test_enumeration_normalises():
    ref = reference_pattern()
    dist = enumerate_branches(ref, [0, 1, 0], mode="qfhe")
    assert abs(sum(dist.values()) - 1.0) < 1e-9


def chain_pattern(nodes):
    """A straight chain 1 - 2 - ... - nodes with every measured angle 0."""
    graph = OpenGraph(
        tuple(range(1, nodes + 1)),
        tuple((i, i + 1) for i in range(1, nodes)),
        (1,),
        (nodes,),
    )
    f = {i: i + 1 for i in range(1, nodes)}
    order = flow_order_from_partial(graph, f)
    return MeasurementPattern(graph, FlowMap(f, order), {i: 0 for i in range(1, nodes)})


def test_enumeration_guard():
    # 14 branch points: the branch walk's rows hold the register's 2^15
    # amplitudes, and both runs of the protocol give one law.
    pat = chain_pattern(15)
    interactive = enumerate_branches(pat, [1], mode="interactive")
    qfhe = enumerate_branches(pat, [1], mode="qfhe")
    assert abs(sum(interactive.values()) - 1.0) < 1e-9
    assert total_variation(interactive, qfhe) < 1e-9
    # 21 qubits are past the width every state vector checks before it
    # allocates.
    with pytest.raises(ValueError, match="qubit count 21 outside supported range"):
        enumerate_branches(chain_pattern(21), [0], mode="interactive")


def test_j0_distribution():
    graph = OpenGraph((1, 2), ((1, 2),), (1,), (2,))
    pat = MeasurementPattern(graph, FlowMap({1: 2}, (1,)), {1: 0})
    dist = enumerate_branches(pat, [0], mode="interactive")
    assert abs(dist.get("0", 0.0) - 1.0) < 1e-12
    dist = enumerate_branches(pat, [1], mode="qfhe")
    assert abs(dist.get("1", 0.0) - 1.0) < 1e-12


def test_deferred_equals_interactive_reference_all_inputs():
    ref = reference_pattern()
    for value in range(8):
        bits = input_bits_of(ref, value)
        di = enumerate_branches(ref, bits, mode="interactive")
        dq = enumerate_branches(ref, bits, mode="qfhe")
        keys = set(di) | set(dq)
        for k in keys:
            assert abs(di.get(k, 0.0) - dq.get(k, 0.0)) < 1e-9, (value, k)


def test_one_time_pad_equals_direct_preparation():
    ref = reference_pattern()
    for value in (1, 4, 7):
        bits = input_bits_of(ref, value)
        for mode in ("interactive", "qfhe"):
            hidden = enumerate_branches(ref, bits, mode=mode)
            direct = enumerate_branches(ref, bits, mode=mode, direct_input_prep=True)
            assert total_variation(hidden, direct) < 1e-9


def test_server_marginals_exactly_half_on_reference():
    ref = reference_pattern()
    for value in (0, 6):
        marg = server_output_marginals_exact(ref, input_bits_of(ref, value))
        for o, p in marg.items():
            assert abs(p - 0.5) < 1e-9, (value, o, p)


def test_server_marginals_measure_server_wires_before_companions(monkeypatch):
    # The server's readouts come before the client touches a companion: the
    # raw-readout walk reads them off the qfhe run, which measures every
    # graph node before any companion.
    ref = reference_pattern()
    measured = []
    real = BranchBatch.measure

    def spy(self, wire, phi=None):
        measured.append(wire)
        return real(self, wire, phi)

    monkeypatch.setattr(BranchBatch, "measure", spy)
    server_output_marginals_exact(ref, [0, 0, 0])
    plan = ref.plan
    server = {plan.wire_of[v] for v in ref.graph.nodes}
    companions = {plan.wire_of[("companion", v)] for v in ref.quarter_nodes}
    assert companions and set(measured[: len(server)]) == server
    assert set(measured[len(server) :]) == companions
    assert len(measured) == len(server) + len(companions)


def test_reference_distribution_is_parity_product():
    # Hand-derived exact law: middle output equals the input parity, outer
    # outputs are unbiased and independent.
    ref = reference_pattern()
    for value in range(8):
        bits = input_bits_of(ref, value)
        parity = bits[0] ^ bits[1] ^ bits[2]
        dist = enumerate_branches(ref, bits, mode="interactive")
        for key, p in dist.items():
            if int(key[1]) == parity:
                assert abs(p - 0.25) < 1e-9
            else:
                assert p < 1e-12


def test_corrupted_predecessor_term_breaks_equivalence():
    pat = three_chain({1: 2, 2: 2})
    s = {1: 0, 2: 0, 3: 0}
    good = deferred_corrections(pat, s, {}, [1])
    bad = deferred_corrections(pat, s, {}, [1], _drop_pred_term=True)
    assert good != bad


def test_direct_input_flips_equal_minus_states_prepared_first():
    # The register's Z flips come after the plan's preparation; they commute
    # with its copies and CZs, so the amplitudes equal those of preparing
    # |-> before entangling.
    ref = reference_pattern()
    wire_of = ref.plan.wire_of
    for v in range(8):
        keys = input_keys(ref, input_bits_of(ref, v))
        want = StateVector(len(wire_of))
        for node in ref.graph.nodes:
            want.apply_gate("h", (wire_of[node],))
            if keys.get(node):
                want.apply_gate("z", (wire_of[node],))
        for node in ref.quarter_nodes:
            want.apply_gate("cnot", (wire_of[node], wire_of[("companion", node)]))
        for a, b in ref.graph.edges:
            want.apply_gate("cz", (wire_of[a], wire_of[b]))
        got = _with_input_flips(ref.plan.register, wire_of, keys)
        assert np.array_equal(got.amps, want.amps)
