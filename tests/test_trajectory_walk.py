"""Noisy trajectories by error signature against the scalar trajectory loop.

``scalar_readouts`` is the loop ``noisy_execute`` ran before signatures:
one ``StateVector`` per shot, each gate followed by its depolarizing draw,
then one draw per idling wire, then the sample and the readout flips.  The
signature pass must leave every shot's stream where that loop leaves it,
and every shot's readout string must equal the loop's.
"""

import itertools

import numpy as np
import pytest

from qfhesim import noise, statevec
from qfhesim.circuit import circuit, compact_wires, ladder16, measure
from qfhesim.compiler import compile_qfhe_to_circuit
from qfhesim.harness import default_placement, input_bits_of, reference_pattern
from qfhesim.noise import NoiseModel, noisy_execute, schedule_layers
from qfhesim.pattern import random_pattern
from qfhesim.statevec import StateVector, rows_per_chunk

from test_circuit import random_circuit

PAULIS = ("x", "y", "z")


def scalar_depolarize(sv, wires, p, rng):
    if p <= 0.0 or rng.random() >= p:
        return
    if len(wires) == 1:
        sv.apply_gate(PAULIS[int(rng.integers(3))], wires)
        return
    code = 1 + int(rng.integers(15))
    a, b = code & 3, code >> 2
    if a:
        sv.apply_gate(PAULIS[a - 1], (wires[0],))
    if b:
        sv.apply_gate(PAULIS[b - 1], (wires[1],))


def scalar_program(circ, model):
    ins_of = circ.instructions
    layers = [[ins_of[idx] for idx in layer] for layer in schedule_layers(circ)]
    measured_in = {
        ins.wires[0]: layer_no
        for layer_no, layer in enumerate(layers)
        for ins in layer
        if ins.gate == "measure"
    }
    program = []
    for layer_no, layer in enumerate(layers):
        touched = {w for ins in layer for w in ins.wires}
        gates = [
            (ins.gate, ins.wires, ins.param, model.p1 if len(ins.wires) == 1 else model.p2)
            for ins in layer
            if ins.gate != "measure"
        ]
        idle = [
            w
            for w in range(circ.num_wires)
            if w not in touched and measured_in.get(w, len(layers)) > layer_no
        ]
        program.append((gates, idle if model.p_idle > 0.0 else []))
    return program


def scalar_trajectory(circ, program, model, shot_rng):
    sv = StateVector(circ.num_wires)
    for gates, idle in program:
        for name, wires, param, p in gates:
            sv.apply_gate(name, wires, param)
            if p > 0.0:
                scalar_depolarize(sv, wires, p, shot_rng)
        for w in idle:
            if shot_rng.random() < model.p_idle:
                sv.apply_gate("z", (w,))
    return sv


def scalar_readouts(circ, model, shots, rng):
    circ, _ = compact_wires(circ)
    program = scalar_program(circ, model)
    meas_wires = [ins.wires[0] for ins in circ.measurements]
    seeds = rng.integers(0, 2**63, size=shots)
    readouts = []
    for shot in range(shots):
        shot_rng = np.random.default_rng(seeds[shot])
        sv = scalar_trajectory(circ, program, model, shot_rng)
        probs = np.abs(sv.amps) ** 2
        probs /= probs.sum()
        outcome = int(np.searchsorted(np.cumsum(probs), shot_rng.random()))
        outcome = min(outcome, len(probs) - 1)
        bits = []
        for w in meas_wires:
            bit = (outcome >> w) & 1
            if model.p_ro > 0.0:
                bit = noise.flip_readout(bit, model.p_ro, shot_rng)
            bits.append(str(bit))
        readouts.append("".join(bits))
    return readouts


def measured(circ):
    return circuit(
        circ.num_wires,
        [*circ.instructions, *(measure(w, f"m{w}") for w in range(circ.num_wires))],
    )


def test_signature_pass_leaves_each_stream_where_the_loop_does():
    # At p = 1 every site fires, so integer draws run back to back; the
    # integer draws share a buffered half of one 64-bit output, which a
    # replay that skips ahead through PCG64.advance would lose.
    gen = np.random.default_rng(61)
    levels = (0.0, 0.05, 0.5, 1.0)
    back_to_back = 0
    for trial in range(40):
        wires = int(gen.integers(1, 6))
        circ = measured(random_circuit(gen, wires, int(gen.integers(1, 25))))
        model = NoiseModel(*(float(gen.choice(levels)) for _ in range(4)))
        program = scalar_program(circ, model)
        _, sites = noise._program(circ, model)
        for shot in range(8):
            seed = [trial, shot]
            scalar_rng = np.random.default_rng(seed)
            scalar_trajectory(circ, program, model, scalar_rng)
            rng = np.random.default_rng(seed)
            events = noise._signature(sites, rng)
            assert np.array_equal(rng.random(8), scalar_rng.random(8))
            fired = dict(events)
            drawn = [step in fired and not code for step, _, _, code in sites]
            back_to_back += any(a and b for a, b in zip(drawn, drawn[1:]))
    assert back_to_back >= 10


def routed_reference(value):
    ref = reference_pattern()
    return compile_qfhe_to_circuit(
        ref,
        input_bits_of(ref, value),
        placement=default_placement(ref),
        coupling=ladder16(),
    ).circuit


def unrouted_reference():
    ref = reference_pattern()
    return compile_qfhe_to_circuit(ref, input_bits_of(ref, 0)).circuit


def assert_same_shots(circ, model, shots, seed):
    want = scalar_readouts(circ, model, shots, np.random.default_rng(seed))
    got = noise._readouts(circ, model, shots, np.random.default_rng(seed))
    assert got == want
    assert noisy_execute(circ, model, shots, np.random.default_rng(seed)) == {
        s: want.count(s) for s in set(want)
    }


@pytest.mark.parametrize("value", [0, 5])
def test_routed_reference_shots_equal_the_scalar_loop(value):
    assert_same_shots(routed_reference(value), NoiseModel(), 48, [71, value])


@pytest.mark.parametrize("p2", [0.0, 1e-3, 1e-2, 5e-2])
def test_sweep_shots_equal_the_scalar_loop(p2):
    model = NoiseModel(0.0, p2, 0.0, 0.0)
    assert_same_shots(unrouted_reference(), model, 300, [72, int(p2 * 1e6)])


def test_random_compiled_pattern_shots_equal_the_scalar_loop():
    gen = np.random.default_rng(73)
    for trial in range(20):
        pat = random_pattern(gen, max_measured=4)
        bits = [int(gen.integers(2)) for _ in pat.graph.inputs]
        circ = compile_qfhe_to_circuit(pat, bits).circuit
        model = NoiseModel(*(float(gen.choice((0.0, 0.01, 0.1, 0.3))) for _ in range(4)))
        assert_same_shots(circ, model, 40, [73, trial])


@pytest.mark.parametrize("budget", [1, 2, 3])
def test_shots_equal_the_scalar_loop_when_the_budget_is_short(monkeypatch, budget):
    # Heavy noise gives deep, branching signature trees; the walk takes its
    # cores in chunks of one to three, each chunk's rows and their
    # re-indexed copy within the budget.
    wires = 5
    monkeypatch.setattr(statevec, "SHOT_CHUNK_BYTES", budget * 16 << (wires + 1))
    assert rows_per_chunk(wires + 1) == budget
    calls = noise_apply_rows_calls(monkeypatch)
    gen = np.random.default_rng(74)
    circ = measured(random_circuit(gen, wires, 30))
    assert_same_shots(circ, NoiseModel(0.05, 0.1, 0.02, 0.05), 120, 74)
    assert max(rows for _, rows, _ in calls) == budget


def trajectory_amps(num_wires, steps, events):
    """One signature's trajectory, step by step on its own ``StateVector``."""
    sv = StateVector(num_wires)
    at = dict(events)
    for step, (name, wires, param) in enumerate(steps):
        if name is not None:
            sv.apply_gate(name, wires, param)
        elif step in at:
            for w, a in zip(wires, (at[step] & 3, at[step] >> 2)):
                if a:
                    sv.apply_gate(PAULIS[a - 1], (w,))
    return sv.amps


def noise_apply_rows_calls(monkeypatch):
    """Record ``(gate, rows, nbytes)`` of every ``apply_rows`` call in ``noise``."""
    calls = []
    real = noise.apply_rows

    def spy(rows, gate, targets, param=None):
        calls.append((gate, len(rows), rows.nbytes))
        real(rows, gate, targets, param)

    monkeypatch.setattr(noise, "apply_rows", spy)
    return calls


def assert_walk_yields_each_trajectory(num_wires, steps, signatures):
    # Byte-equal, signed zeros included: the rows compare as raw 64-bit words.
    seen = []
    for events, amps in noise._walk(num_wires, steps, signatures):
        want = trajectory_amps(num_wires, steps, events)
        assert np.array_equal(amps.view(np.uint64), want.view(np.uint64)), events
        seen.append(events)
    assert sorted(seen) == sorted(signatures)


@pytest.mark.parametrize("wires, chunk", [(16, 1 << 18), (16, 1 << 22), (20, 1 << 20)])
def test_walk_keeps_rows_within_the_budget(monkeypatch, wires, chunk):
    # Short circuits on real rows.  Under p = 1 gate noise every site fires,
    # so every signature has an event at every site.  No call may hold more
    # than one row or half the budget, so a chunk's rows and their
    # re-indexed copy fit the budget together.
    monkeypatch.setattr(statevec, "SHOT_CHUNK_BYTES", chunk)
    calls = noise_apply_rows_calls(monkeypatch)
    gen = np.random.default_rng(75)
    circ = measured(random_circuit(gen, wires, 4))
    steps, sites = noise._program(circ, NoiseModel(1.0, 1.0, 0.0, 0.0))
    signatures = {noise._signature(sites, np.random.default_rng([75, s])) for s in range(5)}
    assert len(signatures) == 5
    assert_walk_yields_each_trajectory(wires, steps, signatures)
    row = 16 << wires
    assert max(nbytes for _, _, nbytes in calls) <= max(chunk // 2, row)


@pytest.mark.parametrize("chunk_rows", [1, 2, 3, 5, 256])
def test_walk_yields_each_signature_of_a_complete_tree(monkeypatch, chunk_rows):
    # Every choice of event at four sites, among them signatures that are
    # prefixes of others: whatever the chunk, each row must be its
    # signature's trajectory.  With the whole tree in one chunk, each gate
    # runs once per distinct set of events before it.
    wires = 2
    monkeypatch.setattr(statevec, "SHOT_CHUNK_BYTES", chunk_rows * 16 << (wires + 1))
    assert rows_per_chunk(wires + 1) == chunk_rows
    calls = noise_apply_rows_calls(monkeypatch)
    steps = [step for w in (0, 1, 0, 1) for step in (("h", (w,), None), (None, (w,), None))]
    sites = [1, 3, 5, 7]
    signatures = [
        tuple((step, code) for step, code in zip(sites, codes) if code)
        for codes in itertools.product(range(4), repeat=len(sites))
    ]
    assert_walk_yields_each_trajectory(wires, steps, signatures)
    prefixes = [
        {tuple(e for e in events if e[0] < step) for events in signatures}
        for step, (name, _, _) in enumerate(steps)
        if name is not None
    ]
    if chunk_rows >= len(signatures):
        assert sum(rows for gate, rows, _ in calls if gate == "h") == sum(map(len, prefixes))
