"""Noise events through a Pauli frame, against dense conjugation and the
scalar trajectory loop.

``noise._pauli_frames`` gives, for X and Z on each wire of each noise site,
the X-mask the propagated Pauli leaves on the readout and the blocking
gates (``t``, ``tdg``, ``rz``) where it puts an X on the gate's wire, just
before the gate.  Each single-gate entry is checked against G P G^dagger
built from ``statevec.gate_matrix``.  A shot's core, the blocking gates
its entries' XOR flags, is simulated with an ``x`` before each flagged
gate; that row, read at the readout index XOR the mask, must be the scalar
trajectory's ``|amps|**2``, and every shot of ``noise._readouts`` must read
the scalar loop's string.
"""

import itertools
from math import pi

import numpy as np
import pytest

from qfhesim import noise
from qfhesim.circuit import circuit, gate, measure
from qfhesim.noise import NoiseModel
from qfhesim.statevec import GATE_ARITY, gate_matrix

from test_trajectory_walk import (
    measured,
    scalar_program,
    scalar_readouts,
    scalar_signature,
    scalar_trajectory,
)

CLIFFORD_1Q = ("h", "x", "y", "z", "s", "sdg")
BLOCKING = ("t", "tdg", "rz")
TWO_QUBIT = ("cnot", "cz", "swap")
# Off the pi/4 grid, and the two grid angles whose rz must still block.
RZ_ANGLES = (0.3, -1.9, pi / 2, pi / 4)


def random_frame_circuit(rng, wires, length, blocking=True):
    """Random circuit over every gate kind, ``y`` and ``rz`` included."""
    pool_1q = CLIFFORD_1Q + (BLOCKING if blocking else ())
    ins = []
    for _ in range(length):
        if wires >= 2 and rng.random() < 0.4:
            a, b = rng.choice(wires, size=2, replace=False)
            ins.append(gate(str(rng.choice(TWO_QUBIT)), int(a), int(b)))
            continue
        name = str(rng.choice(pool_1q))
        param = float(rng.choice(RZ_ANGLES)) if name == "rz" else None
        ins.append(gate(name, int(rng.integers(wires)), param=param))
    return circuit(wires, ins)


def embed(m, wires, n):
    """``m`` (on ``wires``, first wire = low bit) as a 2^n x 2^n matrix."""
    dim = 1 << n
    out = np.zeros((dim, dim), dtype=complex)
    rest = ~sum(1 << w for w in wires)
    for j in range(dim):
        sub = sum(((j >> w) & 1) << k for k, w in enumerate(wires))
        for sub_out in range(1 << len(wires)):
            i = (j & rest) | sum(((sub_out >> k) & 1) << w for k, w in enumerate(wires))
            out[i, j] = m[sub_out, sub]
    return out


def pauli(xmask, zmask, n):
    """X^xmask Z^zmask: |j> -> (-1)^popcount(j & zmask) |j ^ xmask>."""
    dim = 1 << n
    out = np.zeros((dim, dim), dtype=complex)
    for j in range(dim):
        out[j ^ xmask, j] = (-1) ** bin(j & zmask).count("1")
    return out


def assert_pauli_with_x_part(q, xmask, n):
    """``q`` is a phase times a Pauli whose X part is ``xmask``."""
    for zmask in range(1 << n):
        r = pauli(xmask, zmask, n)
        phase = np.trace(r.conj().T @ q) / (1 << n)
        if abs(abs(phase) - 1.0) < 1e-9 and np.allclose(q, phase * r, atol=1e-9):
            return
    raise AssertionError(f"not a Pauli with X part {xmask:b}")


def entries_before(n, ops):
    """The frame entries of X_w and Z_w for each wire, at the start of ``ops``."""
    steps = [(None, (w,), None) for w in range(n)] + list(ops)
    frames = noise._pauli_frames(n, steps)
    return {w: frames[w][0] for w in range(n)}


def single_gates(n):
    """Every gate kind on every target or ordered pair of ``n`` wires."""
    for name, arity in sorted(GATE_ARITY.items()):
        for wires in itertools.permutations(range(n), arity):
            for param in RZ_ANGLES if name == "rz" else (None,):
                yield name, wires, param


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_table_matches_dense_conjugation_per_gate(n):
    for name, wires, param in single_gates(n):
        u = embed(gate_matrix(name, param), wires, n)
        for w, (x, z) in entries_before(n, [(name, wires, param)]).items():
            for kind, entry, p in (("x", x, pauli(1 << w, 0, n)), ("z", z, pauli(0, 1 << w, n))):
                hits_x = name in BLOCKING and kind == "x" and wires[0] == w
                assert bool(entry >> n) == hits_x, (name, wires, param, kind, w)
                if hits_x:  # the X lands at the gate alone
                    assert entry == 1 << n
                else:
                    assert_pauli_with_x_part(u @ p @ u.conj().T, entry, n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_table_matches_dense_conjugation_through_circuits(n):
    # Composition: a Pauli the table does not block leaves the X part of
    # U P U^dagger, and before a Clifford-only circuit nothing blocks.
    rng = np.random.default_rng([81, n])
    blocked = 0
    for trial in range(50):
        clifford = trial % 2 == 0
        length = int(rng.integers(1, 12))
        circ = random_frame_circuit(rng, n, length, blocking=not clifford)
        ops = [(ins.gate, ins.wires, ins.param) for ins in circ.instructions]
        u = np.eye(1 << n, dtype=complex)
        for name, wires, param in ops:
            u = embed(gate_matrix(name, param), wires, n) @ u
        for w, (x, z) in entries_before(n, ops).items():
            for entry, p in ((x, pauli(1 << w, 0, n)), (z, pauli(0, 1 << w, n))):
                if entry >> n:
                    assert not clifford
                    blocked += 1
                else:
                    assert_pauli_with_x_part(u @ p @ u.conj().T, entry, n)
    assert blocked


def test_each_blocking_gate_has_its_own_bit():
    # t, tdg and rz at every angle, rz(pi/2) and rz(pi/4) among them: an X
    # just before each one lands there alone, on a bit of its own, the last
    # gate's the lowest; an X after them all reaches the readout, and a Z
    # reaches no gate.
    ops = [("t", (0,), None), ("tdg", (0,), None)]
    ops += [("rz", (0,), theta) for theta in RZ_ANGLES]
    steps = [step for op in ops for step in ((None, (0,), None), op)]
    frames = noise._pauli_frames(1, steps + [(None, (0,), None)])
    entries = [frames[step][0] for step in range(0, len(steps) + 1, 2)]
    assert [x for x, _ in entries] == [1 << len(ops) - k for k in range(len(ops) + 1)]
    assert [z for _, z in entries] == [0] * (len(ops) + 1)


def shot_signatures(sites, shots, seed):
    """Each shot's events, drawn from its stream as ``noise._readouts`` seeds it."""
    seeds = np.random.default_rng(seed).integers(0, 2**63, size=shots)
    return [scalar_signature(sites, np.random.default_rng(s)) for s in seeds]


def shot_noise(frames, events, n):
    """A shot's core and readout mask: the XOR of its events' entries, split."""
    entry = 0
    for step, code in events:
        entry ^= noise._frame_entry(frames[step], code)
    return entry >> n, entry & ((1 << n) - 1)


def cores_walked(monkeypatch):
    """Record the cores ``noise._readouts`` passes to ``_walk``."""
    seen = []
    walk = noise._walk

    def spy(num_wires, steps, cores):
        seen.append(set(cores))
        return walk(num_wires, steps, cores)

    monkeypatch.setattr(noise, "_walk", spy)
    return seen


def models():
    for p, idle, ro in itertools.product((0.05, 0.5, 1.0), (False, True), (False, True)):
        yield NoiseModel(p, p, p if ro else 0.0, p if idle else 0.0)


@pytest.mark.parametrize("model", list(models()), ids=repr)
def test_every_gate_kind_shots_equal_the_scalar_loop(monkeypatch, model):
    seen = cores_walked(monkeypatch)
    gen = np.random.default_rng(82)
    deferred = blocked = 0
    for trial in range(6):
        wires = int(gen.integers(1, 6))
        circ = measured(random_frame_circuit(gen, wires, int(gen.integers(4, 30))))
        seed = [82, trial]
        want = scalar_readouts(circ, model, 40, np.random.default_rng(seed))
        assert noise._readouts(circ, model, 40, np.random.default_rng(seed)) == want
        steps, sites = noise._program(circ, model)
        frames = noise._pauli_frames(wires, steps)
        cores = set()
        for events in shot_signatures(sites, 40, seed):
            entries = [noise._frame_entry(frames[step], code) for step, code in events]
            blocked += sum(1 for entry in entries if entry >> wires)
            deferred += sum(1 for entry in entries if not entry >> wires)
            cores.add(shot_noise(frames, events, wires)[0])
        assert seen[-1] == cores
    assert deferred and blocked


@pytest.mark.parametrize("model", list(models()), ids=repr)
def test_each_core_row_read_at_its_mask_is_the_scalar_trajectory(model):
    # The core rule itself: an x just before each flagged blocking gate and
    # the mask on the readout index give the scalar trajectory's |amps|**2
    # bit for bit, whatever the Paulis, gates and angles between.
    levels = (model.p1, model.p_ro, model.p_idle)
    gen = np.random.default_rng([85, *(round(100 * p) for p in levels)])
    flagged = masked = 0
    for trial in range(12):
        wires = int(gen.integers(1, 6))
        circ = measured(random_frame_circuit(gen, wires, int(gen.integers(4, 30))))
        steps, sites = noise._program(circ, model)
        frames = noise._pauli_frames(wires, steps)
        program = scalar_program(circ, model)
        shots = []
        for shot in range(20):
            seed = [85, trial, shot]
            events = scalar_signature(sites, np.random.default_rng(seed))
            sv = scalar_trajectory(circ, program, model, np.random.default_rng(seed))
            shots.append((*shot_noise(frames, events, wires), np.abs(sv.amps) ** 2))
        rows = dict(noise._walk(wires, steps, {core for core, _, _ in shots}))
        index = np.arange(1 << wires)
        for core, mask, want in shots:
            assert np.array_equal((np.abs(rows[core]) ** 2)[index ^ mask], want)
            flagged += core != 0
            masked += mask != 0
    assert flagged and masked


def test_clifford_only_circuit_defers_every_event(monkeypatch):
    seen = cores_walked(monkeypatch)
    gen = np.random.default_rng(83)
    model = NoiseModel(0.5, 0.5, 0.1, 0.5)
    for trial in range(5):
        circ = measured(random_frame_circuit(gen, 4, 25, blocking=False))
        seed = [83, trial]
        want = scalar_readouts(circ, model, 60, np.random.default_rng(seed))
        assert noise._readouts(circ, model, 60, np.random.default_rng(seed)) == want
    assert seen == [{0}] * 5


@pytest.mark.parametrize("p_idle", [0.5, 1.0])
def test_circuit_whose_events_all_block(monkeypatch, p_idle):
    # Only idle dephasing fires.  Wire 1 idles through layers 0-1 and wire
    # 2 through layers 0-2; each Z passes a cz, turns to X at an h and
    # meets rz(pi/2) or rz(pi/4).  Wire 0 is never idle before its readout.
    circ = circuit(
        3,
        [
            gate("h", 0),
            gate("t", 0),
            gate("cz", 0, 1),
            gate("cz", 0, 2),
            gate("h", 1),
            gate("rz", 1, param=pi / 2),
            gate("h", 2),
            gate("rz", 2, param=pi / 4),
            *(measure(w, f"m{w}") for w in range(3)),
        ],
    )
    model = NoiseModel(0.0, 0.0, 0.0, p_idle)
    steps, sites = noise._program(circ, model)
    assert [wires for _, wires, _, _ in sites] == [(1,), (2,), (1,), (2,), (2,)]
    # Each Z lands as an X at its wire's rz alone: one bit per wire, no mask.
    frames = noise._pauli_frames(3, steps)
    lands = [frames[step][0][1] for step, _, _, _ in sites]
    rz1, rz2 = lands[:2]
    assert lands == [rz1, rz2, rz1, rz2, rz2]
    assert rz1 != rz2 and all(entry.bit_count() == 1 and entry >> 3 for entry in lands)
    seen = cores_walked(monkeypatch)
    want = scalar_readouts(circ, model, 64, np.random.default_rng(84))
    assert noise._readouts(circ, model, 64, np.random.default_rng(84)) == want
    signatures = shot_signatures(sites, 64, 84)
    assert seen == [{shot_noise(frames, events, 3)[0] for events in signatures}]
    if p_idle == 1.0:
        # Wire 1's two Zs cancel; wire 2's three leave one x at its rz.
        assert seen == [{rz2 >> 3}]
