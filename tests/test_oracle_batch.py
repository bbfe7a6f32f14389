"""Batched exact oracles against the column-by-column loops they replace.

``column_state`` is the per-column simulation ``unitary_of`` and
``verify_equivalence`` ran before their columns became rows of one array;
``reference_verify`` is the old column loop, global-phase rule and early
return included; ``uncompacted_readout`` simulates every wire of the
circuit.  The batched oracles must give the same numbers exactly.
"""

import importlib

import numpy as np
import pytest

from qfhesim import statevec
from qfhesim.circuit import (
    EQUIV_TOL,
    circuit,
    compact_wires,
    exact_readout_distribution,
    gate,
    ladder16,
    readout_code,
    ring,
    route,
    unitary_of,
    verify_equivalence,
)
from qfhesim.compiler import compile_qfhe_to_circuit
from qfhesim.harness import default_placement, input_bits_of, reference_pattern
from qfhesim.statevec import StateVector

from test_circuit import random_circuit
from test_compiler_routing import induced_submap

# `qfhesim.circuit` names the constructor function, not the module.
circuit_module = importlib.import_module("qfhesim.circuit")

MAPS = (
    ring(5),
    induced_submap(ladder16(), [0, 1, 2, 8, 9, 10]),
    induced_submap(ladder16(), [4, 5, 6, 12, 13, 14]),
)


def column_state(circ, col):
    sv = StateVector(circ.num_wires)
    sv.amps[0] = 0.0
    sv.amps[col] = 1.0
    for ins in circ.gates:
        sv.apply_gate(ins.gate, ins.wires, ins.param)
    return sv.amps


def reference_unitary(circ):
    dim = 1 << circ.num_wires
    u = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        u[:, col] = column_state(circ, col)
    return u


def reference_verify(c1, c2, up_to_global_phase, wire_perm, input_perm):
    out_perm, in_perm = wire_perm, input_perm
    dim1 = 1 << c1.num_wires
    idx1 = np.arange(dim1)
    idx_out = np.zeros(dim1, dtype=np.int64)
    for w in range(c1.num_wires):
        idx_out |= ((idx1 >> w) & 1) << out_perm[w]
    max_dev = 0.0
    phase = None
    for col in range(dim1):
        col2 = 0
        for w in range(c1.num_wires):
            col2 |= ((col >> w) & 1) << in_perm[w]
        expected = np.zeros(1 << c2.num_wires, dtype=complex)
        expected[idx_out] = column_state(c1, col)
        got = column_state(c2, col2)
        if up_to_global_phase:
            if phase is None:
                k = int(np.argmax(np.abs(expected)))
                if abs(got[k]) < 1e-12:
                    return False, 1.0
                phase = got[k] / expected[k]
                phase /= abs(phase)
            got = got / phase
        max_dev = max(max_dev, float(np.max(np.abs(got - expected))))
    return max_dev <= EQUIV_TOL, max_dev


def routed_cases(seed, count):
    """`count` random 5-wire circuits, each routed onto every map."""
    rng = np.random.default_rng(seed)
    init = {w: w for w in range(5)}
    for _ in range(count):
        circ = random_circuit(rng, 5, 12)
        for coupling in MAPS:
            routed, final = route(circ, coupling, init)
            yield circ, routed, final, init


def assert_oracles_match(circ, routed, final, init):
    for c in (circ, routed):
        assert unitary_of(c).tobytes() == reference_unitary(c).tobytes()
    for phase in (True, False):
        want = reference_verify(circ, routed, phase, final, init)
        got = verify_equivalence(
            circ, routed, up_to_global_phase=phase, wire_perm=final, input_perm=init
        )
        assert got == want
        assert type(got[1]) is float


def test_batched_oracles_equal_column_loops_on_routed_circuits():
    cases = list(routed_cases(seed=2024, count=100))
    assert len(cases) == 300
    for case in cases:
        assert_oracles_match(*case)
    # The early return: column 0's largest amplitude is 0 in c2.
    ident, flip = circuit(1, []), circuit(1, [gate("x", 0)])
    want = reference_verify(ident, flip, True, {0: 0}, {0: 0})
    assert verify_equivalence(ident, flip, up_to_global_phase=True) == want == (False, 1.0)


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_batched_oracles_hold_under_a_small_chunk_budget(monkeypatch, rows):
    # A budget of `rows` rows of the widest register: more chunks, same
    # numbers, and no array handed to the kernel exceeds the budget.
    budget = rows * (16 << 6)
    monkeypatch.setattr(statevec, "SHOT_CHUNK_BYTES", budget)
    seen = []

    def spy(amps, *args):
        seen.append(amps.nbytes)
        return statevec.apply_rows(amps, *args)

    monkeypatch.setattr(circuit_module, "apply_rows", spy)
    for case in routed_cases(seed=7 + rows, count=12):
        assert_oracles_match(*case)
    assert max(seen) == budget


@pytest.mark.parametrize("value", range(8))
def test_compacted_readout_equals_the_full_register_law(value):
    ref = reference_pattern()
    bits = input_bits_of(ref, value)
    routing = {"placement": default_placement(ref), "coupling": ladder16()}
    for kwargs in ({}, routing):
        circ = compile_qfhe_to_circuit(ref, bits, **kwargs).circuit
        got = exact_readout_distribution(circ)
        assert got == uncompacted_readout(circ)
    assert (circ.num_wires, compact_wires(circ)[0].num_wires) == (16, 12)


def uncompacted_readout(circ):
    amps = column_state(circ, 0)
    wires = [ins.wires[0] for ins in circ.measurements]
    width = len(wires)
    agg = np.bincount(
        readout_code(circ.num_wires, wires),
        weights=np.abs(amps) ** 2,
        minlength=1 << width,
    )
    return {format(i, f"0{width}b"): float(p) for i, p in enumerate(agg) if p > 0.0}
