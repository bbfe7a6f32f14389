"""Rewrite exactness, equivalence checking, file formats, parity masks."""

import re
from collections import Counter
from math import pi

import numpy as np
import pytest
from fuzzing import READER_FUZZ, apply_line_edits, line_edits
from hypothesis import given, settings, strategies as st

from qfhesim import statevec
from qfhesim.circuit import (
    Circuit,
    CircuitFormatError,
    cancel_hh,
    circuit,
    decompose_controlled_sdg,
    decompose_swap_onedir,
    exact_readout_distribution,
    gate,
    load_circuit,
    measure,
    pack_readout,
    parity_postprocess,
    reverse_cnot,
    rewrite_cz_to_cnot,
    rz_as_named_gates,
    sample_counts,
    save_circuit,
    unitary_of,
    verify_equivalence,
)
from qfhesim.compiler import compile_qfhe_to_circuit
from qfhesim.harness import reference_pattern

SWAP_MATRIX = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
CNOT_REV = np.eye(4, dtype=complex)[[0, 1, 3, 2]]  # control = wire 1


def random_circuit(rng, wires, length, with_swap=True):
    pool_1q = ["h", "x", "z", "s", "t", "sdg", "tdg"]
    pool_2q = ["cnot", "cz"] + (["swap"] if with_swap else [])
    ins = []
    for _ in range(length):
        if wires >= 2 and rng.random() < 0.45:
            a, b = rng.choice(wires, size=2, replace=False)
            ins.append(gate(str(rng.choice(pool_2q)), int(a), int(b)))
        else:
            ins.append(gate(str(rng.choice(pool_1q)), int(rng.integers(wires))))
    return circuit(wires, ins)


# -- structure ---------------------------------------------------------------


def test_instruction_validation():
    with pytest.raises(ValueError):
        gate("cnot", 0)
    with pytest.raises(ValueError):
        gate("h", 0, 1)
    with pytest.raises(ValueError):
        circuit(1, [gate("h", 3)])
    with pytest.raises(ValueError):
        circuit(1, [measure(0, "a"), measure(0, "a")])


def test_terminal_measurement_check():
    c = circuit(1, [measure(0, "a"), gate("h", 0)])
    with pytest.raises(ValueError):
        c.require_terminal_measurements()
    circuit(1, [gate("h", 0), measure(0, "a")]).require_terminal_measurements()


def test_rz_named_powers_are_exact():
    for k in range(8):
        want = np.diag([1, np.exp(1j * k * pi / 4)])
        got = unitary_of(circuit(1, rz_as_named_gates(k, 0)))
        assert np.max(np.abs(got - want)) < 1e-12, k


# -- rewrites ----------------------------------------------------------------


def test_cz_to_cnot_single():
    c = circuit(2, [gate("cz", 0, 1)])
    rewritten = rewrite_cz_to_cnot(c)
    assert len(rewritten.instructions) == 3
    assert np.max(np.abs(unitary_of(rewritten) - unitary_of(c))) < 1e-12


def test_cz_to_cnot_empty():
    assert rewrite_cz_to_cnot(circuit(1, [])).instructions == ()


def test_cz_symmetry():
    a = unitary_of(rewrite_cz_to_cnot(circuit(2, [gate("cz", 0, 1)])))
    b = unitary_of(rewrite_cz_to_cnot(circuit(2, [gate("cz", 1, 0)])))
    assert np.max(np.abs(a - b)) < 1e-12


def test_cancel_hh_simple():
    c = circuit(1, [gate("h", 0), gate("h", 0)])
    assert cancel_hh(c).instructions == ()


def test_cancel_hh_across_disjoint_wire():
    c = circuit(2, [gate("h", 0), gate("x", 1), gate("h", 0)])
    out = cancel_hh(c)
    assert [i.gate for i in out.instructions] == ["x"]
    assert np.max(np.abs(unitary_of(out) - unitary_of(c))) < 1e-12


def test_cancel_hh_blocked_by_intervening_gate():
    c = circuit(1, [gate("h", 0), gate("x", 0), gate("h", 0)])
    assert cancel_hh(c).instructions == c.instructions


def test_cancel_hh_fixpoint_and_unitary_preserved():
    rng = np.random.default_rng(41)
    for _ in range(100):
        wires = int(rng.integers(2, 5))
        base = random_circuit(rng, wires, int(rng.integers(3, 10)))
        # inject cancellable pairs at random positions
        ins = list(base.instructions)
        for _ in range(int(rng.integers(1, 4))):
            w = int(rng.integers(wires))
            pos = int(rng.integers(len(ins) + 1))
            ins[pos:pos] = [gate("h", w), gate("h", w)]
        padded = circuit(wires, ins)
        out = cancel_hh(padded)
        assert np.max(np.abs(unitary_of(out) - unitary_of(padded))) < 1e-12
        again = cancel_hh(out)
        assert again.instructions == out.instructions
        assert len(out.instructions) <= len(padded.instructions) - 2


def test_reverse_cnot_matrix():
    got = unitary_of(circuit(2, reverse_cnot(0, 1)))
    assert np.max(np.abs(got - CNOT_REV)) < 1e-12


def test_reverse_twice_cancels_to_original():
    ins = reverse_cnot(0, 1)
    # reversing the reversed direction uses the same identity on (1, 0)
    back = [gate("h", 1), gate("h", 0)] + list(ins) + [gate("h", 0), gate("h", 1)]
    collapsed = cancel_hh(circuit(2, back))
    assert [i.gate for i in collapsed.instructions] == ["cnot"]


def test_swap_decomposition_exact():
    got = unitary_of(circuit(2, decompose_swap_onedir(0, 1)))
    assert np.max(np.abs(got - SWAP_MATRIX)) < 1e-12
    lowered = decompose_swap_onedir(0, 1, lower_cz=True)
    got = unitary_of(circuit(2, lowered))
    assert np.max(np.abs(got - SWAP_MATRIX)) < 1e-12
    for ins in lowered:
        assert ins.gate in ("cnot", "h")
        if ins.gate == "cnot":
            assert ins.wires == (0, 1)


def test_swap_squared_is_identity_on_random_states():
    rng = np.random.default_rng(42)
    ins = decompose_swap_onedir(0, 1) * 2
    u = unitary_of(circuit(2, ins))
    for _ in range(10):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        assert np.max(np.abs(u @ v - v)) < 1e-12


def test_controlled_sdg_matrix_exact():
    target = np.diag([1, 1, 1, -1j])
    got = unitary_of(circuit(2, decompose_controlled_sdg(0, 1)))
    assert np.max(np.abs(got - target)) < 1e-12


def test_controlled_sdg_squares_to_cz():
    ins = decompose_controlled_sdg(0, 1) * 2
    got = unitary_of(circuit(2, ins))
    assert np.max(np.abs(got - np.diag([1, 1, 1, -1]))) < 1e-12


def test_controlled_sdg_idle_control():
    u = unitary_of(circuit(2, decompose_controlled_sdg(0, 1)))
    rng = np.random.default_rng(43)
    for _ in range(10):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        # control |0> on wire 0, target on wire 1
        joint = np.zeros(4, dtype=complex)
        joint[0], joint[2] = v[0], v[1]
        out = u @ joint
        assert np.max(np.abs(out - joint)) < 1e-12


def test_controlled_sdg_phase_hook_breaks_matrix():
    got = unitary_of(
        circuit(2, decompose_controlled_sdg(0, 1, _skip_control_phase=True))
    )
    assert np.max(np.abs(got - np.diag([1, 1, 1, -1j]))) > 1e-3


def test_rewrites_preserve_unitaries_on_random_circuits():
    rng = np.random.default_rng(44)
    for _ in range(100):
        wires = int(rng.integers(2, 5))
        c = random_circuit(rng, wires, int(rng.integers(4, 12)))
        u = unitary_of(c)
        assert np.max(np.abs(unitary_of(rewrite_cz_to_cnot(c)) - u)) < 1e-12
        assert np.max(np.abs(unitary_of(cancel_hh(c)) - u)) < 1e-12


# -- equivalence checking -------------------------------------------------------


def test_verify_self():
    c = circuit(2, [gate("h", 0), gate("cnot", 0, 1)])
    ok, dev = verify_equivalence(c, c)
    assert ok and dev == 0.0


def test_verify_hh_is_identity():
    ok, _ = verify_equivalence(circuit(1, [gate("h", 0), gate("h", 0)]), circuit(1, []))
    assert ok


def test_verify_distinguishes_t_from_s():
    ok, dev = verify_equivalence(circuit(1, [gate("t", 0)]), circuit(1, [gate("s", 0)]))
    assert not ok and dev > 0.1


def test_verify_size_guard():
    big = circuit(11, [gate("h", 0)])
    with pytest.raises(ValueError):
        verify_equivalence(big, big)


def test_verify_with_permutation_and_phase():
    c1 = circuit(2, [gate("h", 0), gate("t", 1)])
    # same circuit living on swapped wires of a 3-wire register
    c2 = circuit(3, [gate("h", 2), gate("t", 0)])
    ok, _ = verify_equivalence(c1, c2, wire_perm={0: 2, 1: 0})
    assert ok
    # global phase: rz(pi/4) vs t differ only by convention here (none), so
    # use explicit phased pair instead
    c3 = circuit(1, [gate("z", 0), gate("x", 0), gate("z", 0), gate("x", 0)])
    ok_strict, _ = verify_equivalence(c3, circuit(1, []))
    ok_phase, _ = verify_equivalence(c3, circuit(1, []), up_to_global_phase=True)
    assert not ok_strict and ok_phase


# -- parity postprocessing --------------------------------------------------------


def test_parity_postprocess_examples():
    assert parity_postprocess({"01": 7}, [[0, 1]]) == [7]
    assert parity_postprocess({"11": 5}, [[0, 1]]) == [0]
    with pytest.raises(ValueError):
        parity_postprocess({"01": 1}, [[5]])


@settings(max_examples=30, derandomize=True, deadline=None)
@given(
    st.dictionaries(
        st.text(alphabet="01", min_size=4, max_size=4),
        st.integers(1, 50),
        min_size=1,
        max_size=8,
    ),
    st.lists(st.lists(st.integers(0, 3), max_size=4, unique=True), min_size=1, max_size=3),
)
def test_parity_postprocess_matches_per_shot_oracle(counts, masks):
    got = parity_postprocess(counts, masks)
    want = [0] * len(masks)
    for s, c in counts.items():
        for _ in range(c):  # literal per-shot recount
            for k, mask in enumerate(masks):
                acc = 0
                for p in mask:
                    acc ^= int(s[p])
                want[k] += acc
    assert got == want


# -- files -------------------------------------------------------------------


def one_draw_counts(circ, shots, rng):
    """Readout strings of one ``choice`` of all the shots, tallied one by one."""
    dist = exact_readout_distribution(circ)
    keys = sorted(dist)
    p = np.array([dist[k] for k in keys])
    draws = rng.choice(len(keys), size=shots, p=p / p.sum())
    return Counter(keys[int(d)] for d in draws)


class ChoiceSizes:
    """Generator stand-in that records the size of every ``choice``."""

    def __init__(self, rng):
        self.rng = rng
        self.sizes = []

    def choice(self, *args, size, p):
        self.sizes.append(size)
        return self.rng.choice(*args, size=size, p=p)


@pytest.mark.parametrize("shots", [1, 7, 8, 9, 40, 41])
def test_sample_counts_draw_in_chunks_within_the_budget(monkeypatch, shots):
    # A 64-byte budget holds eight 8-byte draws.  Whatever the chunks, the
    # counts and the generator's next draw equal one choice of every shot.
    monkeypatch.setattr(statevec, "SHOT_CHUNK_BYTES", 64)
    circ = compile_qfhe_to_circuit(reference_pattern(), [1, 0, 1]).circuit
    spy = ChoiceSizes(np.random.default_rng([76, shots]))
    got = sample_counts(circ, shots, spy)
    want_rng = np.random.default_rng([76, shots])
    want = one_draw_counts(circ, shots, want_rng)
    assert len(set(want)) > 1 or shots == 1
    assert got == want
    assert spy.rng.random() == want_rng.random()
    assert sum(spy.sizes) == shots and all(0 < size <= 8 for size in spy.sizes)


@pytest.mark.parametrize("shots", [0, -1, 2.5, True, "3"])
def test_sample_counts_rejects_fewer_than_one_shot(shots):
    circ = compile_qfhe_to_circuit(reference_pattern(), [1, 0, 1]).circuit
    rng = np.random.default_rng(77)
    message = re.escape(f"shots = {shots!r} is not a positive integer")
    with pytest.raises(ValueError, match=message):
        sample_counts(circ, shots, rng)
    assert rng.random() == np.random.default_rng(77).random()


def test_sample_counts_takes_a_numpy_integer_shot_count():
    circ = compile_qfhe_to_circuit(reference_pattern(), [1, 0, 1]).circuit
    got = sample_counts(circ, np.int64(3), np.random.default_rng(78))
    assert got == sample_counts(circ, 3, np.random.default_rng(78))


def test_pack_readout_puts_the_first_bit_array_leftmost():
    # Bit arrays of different shapes broadcast; each code, formatted at the
    # width, is the bits read first to last.
    rng = np.random.default_rng(79)
    bits = [
        rng.integers(2, size=(3, 1, 1)),
        rng.integers(2, size=(1, 4, 1)).astype(bool),
        rng.integers(2, size=(3, 4, 5)),
    ]
    codes = pack_readout(bits)
    assert codes.shape == (3, 4, 5)
    for at in np.ndindex(codes.shape):
        want = "".join(str(int(np.broadcast_to(b, codes.shape)[at])) for b in bits)
        assert format(int(codes[at]), "03b") == want


def test_circuit_file_round_trip(tmp_path):
    c = circuit(
        3,
        [
            gate("h", 0),
            gate("cnot", 0, 1),
            gate("rz", 2, param=3 * pi / 4),
            gate("cz", 1, 2),
            measure(0, "m0"),
            measure(2, "out"),
        ],
    )
    path = tmp_path / "circ.txt"
    save_circuit(c, path)
    loaded = load_circuit(path)
    # rz serialises into named powers; compare unitaries of the gate parts
    u1 = unitary_of(circuit(3, c.gates))
    u2 = unitary_of(circuit(3, loaded.gates))
    assert np.max(np.abs(u1 - u2)) < 1e-12
    assert [(m.wires[0], m.bit) for m in loaded.measurements] == [(0, "m0"), (2, "out")]


def test_circuit_file_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("gate h 0\nmeasure 0 to a\n", encoding="utf-8")
    with pytest.raises(CircuitFormatError, match="bad.txt:2"):
        load_circuit(path)


@pytest.mark.parametrize(
    "data, where",
    [
        (b"gate h 0\ngate \xff 1\n", ":2: 'utf-8' codec can't decode"),
        (b"gate h 0\ngate\n", ":2: not enough values to unpack"),
        (b"gate h 0\nswap 0 1\n", ":2: unknown record 'swap'"),
        (b"gate h -1\n", ": wire -1 out of range for 0 wires"),
        (b"measure 0 -> a\nmeasure 1 -> a\n", ": duplicate classical bit name 'a'"),
    ],
)
def test_circuit_errors_name_path_and_line(tmp_path, data, where):
    path = tmp_path / "circuit.txt"
    path.write_bytes(data)
    with pytest.raises(CircuitFormatError) as err:
        load_circuit(path)
    assert str(err.value).startswith(f"{path}{where}")


@pytest.fixture(scope="module")
def compiled_reference_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("circuit") / "reference.txt"
    save_circuit(compile_qfhe_to_circuit(reference_pattern(), [0, 1, 1]).circuit, path)
    return path.read_bytes()


CIRCUIT_RECORDS = ["gate", "measure", "x"]
CIRCUIT_ARGS = ["h", "cnot", "rz", "0", "1", "10", "-1", "->", "m0", "#", "\xff"]


@READER_FUZZ
@given(line_edits(CIRCUIT_RECORDS, CIRCUIT_ARGS))
def test_circuit_reader_fuzz(tmp_path, compiled_reference_file, edits):
    path = tmp_path / "circuit.txt"
    path.write_bytes(apply_line_edits(compiled_reference_file, edits))
    try:
        load_circuit(path)
    except CircuitFormatError as exc:
        assert re.match(rf"{re.escape(str(path))}:([1-9][0-9]*:)? ", str(exc)), exc


def test_rz_without_angle_is_rejected(tmp_path):
    with pytest.raises(ValueError, match="rz requires an angle parameter"):
        gate("rz", 0)
    path = tmp_path / "bad.txt"
    path.write_text("gate h 0\ngate rz 0\nmeasure 0 -> a\n", encoding="utf-8")
    with pytest.raises(CircuitFormatError, match="bad.txt:2: rz requires an angle"):
        load_circuit(path)
