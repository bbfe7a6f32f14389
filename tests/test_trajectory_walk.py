"""Noisy trajectories by error signature against the scalar trajectory loop.

``scalar_readouts`` is the loop ``noisy_execute`` ran before signatures:
one ``StateVector`` per shot, each gate followed by its depolarizing draw,
then one draw per idling wire, then the sample and the readout flips.  The
signature pass, which reads each shot's raw generator outputs, must draw
every shot's events and uniforms as that loop does, and every shot's
readout string must equal the loop's.
"""

import numpy as np
import pytest

from qfhesim import noise, statevec
from qfhesim.circuit import circuit, compact_wires, gate, ladder16, measure
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


def scalar_signature(sites, rng):
    """One shot's events ``((step, code), ...)``, drawn from ``rng`` in the
    scalar loop's order without simulating."""
    events = []
    for step, wires, p, fixed in sites:
        if rng.random() >= p:
            continue
        if fixed:  # dephasing: its Z fires with probability p
            events.append((step, fixed))
        else:
            events.append((step, 1 + int(rng.integers(3 if len(wires) == 1 else 15))))
    return tuple(events)


def test_signature_pass_leaves_each_stream_where_the_loop_does():
    # At p = 1 every site fires, so integer draws run back to back; the
    # integer draws share a buffered half of one 64-bit output, which a
    # replay that skips ahead through PCG64.advance would lose.  The raw
    # pass's leaf uniforms are the loop's next draws.
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
            events = scalar_signature(sites, rng)
            after = scalar_rng.random(8)
            assert np.array_equal(rng.random(8), after)
            (raw_events,), uniforms = noise._draws(sites, [np.random.PCG64(seed)], 8)
            assert raw_events == events
            assert np.array_equal(uniforms, [after])
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


@pytest.mark.parametrize(
    "circ, model",
    [
        pytest.param(
            measured(random_circuit(np.random.default_rng(75), 5, 30)),
            NoiseModel(0.05, 0.1, 1.0, 0.05),
            id="every-bit-flips",
        ),
        pytest.param(
            circuit(
                2,
                [gate("h", 0), gate("cnot", 0, 1), gate("t", 1), gate("h", 1)]
                + [measure(1, "a")],
            ),
            NoiseModel(0.1, 0.1, 0.2, 0.1),
            id="width-1",
        ),
        pytest.param(
            circuit(
                4,
                [gate("h", 3), gate("cnot", 3, 0), gate("t", 0), gate("h", 0)]
                + [gate("h", 2), measure(3, "a"), measure(0, "b"), measure(2, "c")],
            ),
            NoiseModel(0.1, 0.1, 0.2, 0.1),
            id="idle-wire",
        ),
    ],
)
def test_readout_code_edges_equal_the_scalar_loop(circ, model):
    # p_ro = 1 flips every position of the code; one measured wire is a
    # one-digit code; wire 1 is idle, so the compacted wires renumber and
    # the readout order (3, 0, 2) is not the wire order.
    assert_same_shots(circ, model, 200, 75)


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


class CountingBitGen:
    """A PCG64 that counts its ``random_raw`` calls."""

    def __init__(self, seed):
        self.bitgen = np.random.PCG64(seed)
        self.calls = 0

    def random_raw(self, size):
        self.calls += 1
        return self.bitgen.random_raw(size)


RAW_MODELS = {
    "default": NoiseModel(),
    "p2=5e-2": NoiseModel(0.0, 5e-2, 0.0, 0.0),
    "heavy": NoiseModel(0.3, 0.5, 0.1, 0.2),
    "p=1": NoiseModel(1.0, 1.0, 0.1, 0.0),
}


@pytest.mark.parametrize("model", list(RAW_MODELS.values()), ids=list(RAW_MODELS))
@pytest.mark.parametrize("routed", [True, False], ids=["routed", "unrouted"])
def test_raw_pass_equals_the_generator_draws(model, routed):
    # Per shot, the events and leaf uniforms (the readout flips' among them
    # when p_ro > 0) equal the scalar signature followed by random(leaf) on
    # the shot's own generator.  At p = 1 every one-wire and two-wire site
    # fires, so integer draws run back to back through the kept half and
    # every shot's raw array runs short.
    circ, _ = compact_wires(routed_reference(3) if routed else unrouted_reference())
    _, sites = noise._program(circ, model)
    leaf = 1 + (len(circ.measurements) if model.p_ro > 0.0 else 0)
    seeds = np.random.default_rng([62, routed]).integers(0, 2**63, size=24)
    bitgens = [CountingBitGen(seed) for seed in seeds]
    signatures, uniforms = noise._draws(sites, bitgens, leaf)
    assert uniforms.shape == (len(seeds), leaf)
    for seed, events, u in zip(seeds, signatures, uniforms):
        rng = np.random.default_rng(seed)
        assert events == scalar_signature(sites, rng)
        assert np.array_equal(u, rng.random(leaf))
    if model.p1 == 1.0:
        assert all(bitgen.calls > 1 for bitgen in bitgens)
        assert all(len(events) == len(sites) for events in signatures)


PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def pcg64_with_output(index, value, seed):
    """A PCG64 whose raw output ``index`` is ``value``: its 128-bit LCG state
    is set so that, stepped ``index + 1`` times, XSL-RR gives ``value``."""
    gen = np.random.default_rng(seed)
    hi, lo_inc, hi_inc = (int(w) for w in gen.integers(0, 2**64, size=3, dtype=np.uint64))
    inc = (hi_inc << 64 | lo_inc) | 1
    rot = hi >> 58  # output = rotr(hi ^ lo, rot)
    state = hi << 64 | hi ^ ((value << rot | value >> (64 - rot)) & (2**64 - 1))
    inverse = pow(PCG64_MULTIPLIER, -1, 2**128)
    for _ in range(index + 1):
        state = (state - inc) * inverse % 2**128
    bitgen = np.random.PCG64()
    bitgen.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return bitgen


@pytest.mark.parametrize(
    "value, wires, code",
    [
        (0xFFFFFFFF_00000000, [(0,)], 3),  # zero low half; the high half gives 3
        (0, [(0,)], None),  # both halves zero: a further output
        (0, [(0, 1)], None),
        (0x00000000_FFFFFFFF, [(0,), (0,)], 3),  # the kept half is zero
        (0x00000000_FFFFFFFF, [(0,), (0, 1)], 3),
    ],
)
def test_raw_pass_redraws_a_zero_half(value, wires, code):
    # Lemire rejects a 32-bit half of 0 for k = 3 and 15 alone (p = 2^-32
    # per draw), so crafted states put one at raw output 1, the first
    # integer draw's.  Sites at p = 1 each take one random(), then an
    # integer draw.
    sites = [(step, w, 1.0, 0) for step, w in enumerate(wires)]
    for seed in range(4):
        assert pcg64_with_output(1, value, seed).random_raw(2)[1] == value
        (events,), uniforms = noise._draws(sites, [pcg64_with_output(1, value, seed)], 3)
        rng = np.random.Generator(pcg64_with_output(1, value, seed))
        assert events == scalar_signature(sites, rng)
        assert np.array_equal(uniforms, [rng.random(3)])
        if code is not None:
            assert events[0] == (0, code)


def noise_apply_rows_calls(monkeypatch):
    """Record ``(gate, rows, nbytes)`` of every ``apply_rows`` call in ``noise``."""
    calls = []
    real = noise.apply_rows

    def spy(rows, gate, targets, param=None):
        calls.append((gate, len(rows), rows.nbytes))
        real(rows, gate, targets, param)

    monkeypatch.setattr(noise, "apply_rows", spy)
    return calls


BLOCKING = ("t", "tdg", "rz")


def core_amps(num_wires, steps, core):
    """One core's trajectory on its own ``StateVector``: an ``x`` on the wire
    of each blocking gate the core flags, just before the gate; the last
    blocking gate is bit 0.  The site steps are skipped."""
    gates = [step for step in steps if step[0] is not None]
    bit = 1 << sum(name in BLOCKING for name, _, _ in gates)
    sv = StateVector(num_wires)
    for name, wires, param in gates:
        if name in BLOCKING:
            bit >>= 1
            if core & bit:
                sv.apply_gate("x", wires)
        sv.apply_gate(name, wires, param)
    return sv.amps


def assert_walk_yields_each_trajectory(num_wires, steps, cores):
    # Byte-equal, signed zeros included: the rows compare as raw 64-bit words.
    seen = []
    for core, amps in noise._walk(num_wires, steps, cores):
        want = core_amps(num_wires, steps, core)
        assert np.array_equal(amps.view(np.uint64), want.view(np.uint64)), core
        seen.append(core)
    assert sorted(seen) == sorted(cores)


@pytest.mark.parametrize("wires, chunk", [(16, 1 << 18), (16, 1 << 22), (20, 1 << 20)])
def test_walk_keeps_rows_within_the_budget(monkeypatch, wires, chunk):
    # Short circuits on real rows, with p = 1 gate noise sites for the walk
    # to skip and three blocking gates, of which five cores flag distinct
    # sets.  No call may hold more than one row or half the budget, so a
    # chunk's rows and their re-indexed copy fit the budget together.
    monkeypatch.setattr(statevec, "SHOT_CHUNK_BYTES", chunk)
    calls = noise_apply_rows_calls(monkeypatch)
    gen = np.random.default_rng(75)
    ins = list(random_circuit(gen, wires, 4).instructions)
    for k, name in enumerate(("t", "rz", "tdg")):
        param = 0.3 if name == "rz" else None
        ins.insert(2 * k, gate(name, int(gen.integers(wires)), param=param))
    circ = measured(circuit(wires, ins))
    steps, _ = noise._program(circ, NoiseModel(1.0, 1.0, 0.0, 0.0))
    cores = [int(c) for c in gen.choice(8, size=5, replace=False)]
    assert_walk_yields_each_trajectory(wires, steps, cores)
    row = 16 << wires
    assert max(nbytes for _, _, nbytes in calls) <= max(chunk // 2, row)


@pytest.mark.parametrize("chunk_rows", [1, 2, 3, 5, 256])
def test_walk_yields_each_signature_of_a_complete_tree(monkeypatch, chunk_rows):
    # Every set of flags at four t gates, among them cores that flag a
    # prefix of others' gates: whatever the chunk, each row must be its
    # core's trajectory, and every chunk starts from the shared trunk, so
    # the s before the first t runs once.  With the whole tree in one
    # chunk, each gate runs once per distinct set of flags at or before it,
    # and each t's x once per such set that flags it, just before the t.
    wires = 2
    monkeypatch.setattr(statevec, "SHOT_CHUNK_BYTES", chunk_rows * 16 << (wires + 1))
    assert rows_per_chunk(wires + 1) == chunk_rows
    calls = noise_apply_rows_calls(monkeypatch)
    steps = [("s", (0,), None)] + [
        step
        for w in (0, 1, 0, 1)
        for step in (("h", (w,), None), (None, (w,), None), ("t", (w,), None))
    ]
    cores = list(range(16))
    assert_walk_yields_each_trajectory(wires, steps, cores)
    assert [gate for gate, _, _ in calls].count("s") == 1
    if chunk_rows >= len(cores):
        want, k = [], 0  # k: the t gates so far; a core flags t number k at bit 4 - k
        for name, _, _ in steps:
            if name == "t":
                k += 1
                want.append(("x", len({c >> (4 - k) for c in cores if c >> (4 - k) & 1})))
            if name is not None:
                want.append((name, len({c >> (4 - k) for c in cores})))
        assert [(gate, rows) for gate, rows, _ in calls] == want
