"""Gate circuits, identity-based rewrites, coupling maps, and routing.

Circuits are ordered instruction lists over numbered wires, with terminal
measurements into named classical bits.  Readout strings place the first
emitted measurement leftmost.  ``rz`` carries its angle as a float but is
serialised as exact T/S/Z powers, so circuit files never need a parameter
column.
"""

from __future__ import annotations

import os
from collections import Counter, deque
from dataclasses import dataclass, replace
from math import pi

import numpy as np

from . import statevec
from .statevec import GATE_ARITY, StateVector, apply_rows, require_shots, rows_per_chunk

EQUIV_TOL = 1e-9
MAX_VERIFY_WIRES = 10

# rz(k*pi/4) as named-gate sequences; exact under the diag(1, e^{i theta})
# phase convention.
_RZ_POWER_GATES = {
    0: (),
    1: ("t",),
    2: ("s",),
    3: ("s", "t"),
    4: ("z",),
    5: ("z", "t"),
    6: ("sdg",),
    7: ("tdg",),
}


class CircuitFormatError(ValueError):
    """Malformed circuit or coupling file; message starts ``path:[line:]``."""


class RoutingError(ValueError):
    pass


@dataclass(frozen=True)
class Instruction:
    gate: str
    wires: tuple[int, ...]
    param: float | None = None
    bit: str | None = None

    def __post_init__(self):
        if self.gate == "measure":
            if len(self.wires) != 1 or not self.bit:
                raise ValueError("measure takes one wire and a bit name")
        else:
            arity = GATE_ARITY.get(self.gate)
            if arity is None:
                raise ValueError(f"unknown gate kind: {self.gate!r}")
            if len(self.wires) != arity:
                raise ValueError(
                    f"{self.gate} expects {arity} wire(s), got {len(self.wires)}"
                )
            if len(set(self.wires)) != len(self.wires):
                raise ValueError(f"duplicate wires {self.wires}")
            if self.gate == "rz" and self.param is None:
                raise ValueError("rz requires an angle parameter")


def gate(name: str, *wires: int, param: float | None = None) -> Instruction:
    return Instruction(name, tuple(wires), param)


def measure(wire: int, bit: str) -> Instruction:
    return Instruction("measure", (wire,), bit=bit)


@dataclass(frozen=True)
class Circuit:
    num_wires: int
    instructions: tuple[Instruction, ...]

    def __post_init__(self):
        names = set()
        for ins in self.instructions:
            for w in ins.wires:
                if not 0 <= w < self.num_wires:
                    raise ValueError(f"wire {w} out of range for {self.num_wires} wires")
            if ins.gate == "measure":
                if ins.bit in names:
                    raise ValueError(f"duplicate classical bit name {ins.bit!r}")
                names.add(ins.bit)

    @property
    def gates(self) -> tuple[Instruction, ...]:
        return tuple(i for i in self.instructions if i.gate != "measure")

    @property
    def measurements(self) -> tuple[Instruction, ...]:
        return tuple(i for i in self.instructions if i.gate == "measure")

    def require_terminal_measurements(self) -> None:
        seen = set()
        for ins in self.instructions:
            if ins.gate == "measure":
                seen.add(ins.wires[0])
            else:
                for w in ins.wires:
                    if w in seen:
                        raise ValueError(
                            f"wire {w} used after measurement; only terminal"
                            " readout is supported"
                        )


def circuit(num_wires: int, instructions) -> Circuit:
    return Circuit(num_wires, tuple(instructions))


# -- execution ------------------------------------------------------------


def _evolve_columns(circ: Circuit, cols: np.ndarray) -> np.ndarray:
    """One row per col: |col> through the gate list, all rows as one array."""
    rows = np.zeros((len(cols), 1 << circ.num_wires), dtype=complex)
    rows[np.arange(len(cols)), cols] = 1.0
    for ins in circ.gates:
        apply_rows(rows, ins.gate, ins.wires, ins.param)
    return rows


def final_state(circ: Circuit) -> StateVector:
    """State after the unitary part, from |0...0>."""
    sv = StateVector(circ.num_wires)  # checks the width before simulating
    sv.amps = _evolve_columns(circ, [0])[0]
    return sv


def compact_wires(circ: Circuit) -> tuple[Circuit, list[int]]:
    """Drop wires no instruction touches; also returns the wires kept.

    Untouched wires stay |0> throughout (and idle dephasing acts trivially
    on them), so removing them is exact; it shrinks the simulated register
    for routed circuits with spare physical nodes.
    """
    touched = sorted({w for ins in circ.instructions for w in ins.wires})
    if len(touched) == circ.num_wires:
        return circ, touched
    remap = {w: i for i, w in enumerate(touched)}
    new_ins = tuple(
        replace(ins, wires=tuple(remap[w] for w in ins.wires))
        for ins in circ.instructions
    )
    return Circuit(len(touched), new_ins), touched


def pack_readout(bits) -> np.ndarray:
    """Big-endian readout codes from a sequence of bit arrays, the first
    one leftmost: position ``pos`` is bit ``len(bits) - 1 - pos`` of the
    code.  The arrays broadcast together."""
    code = np.zeros((), dtype=np.int64)
    for b in bits:
        code = (code << 1) | b
    return code


def readout_code(num_qubits: int, wires) -> np.ndarray:
    """Each basis index's readout string over ``wires``, as a big-endian int."""
    idx = np.arange(1 << num_qubits)
    return pack_readout([(idx >> q) & 1 for q in wires])


def terminal_readout(circ: Circuit) -> tuple[Circuit, np.ndarray, int]:
    """Front end of the readout laws: the circuit on the wires some
    instruction touches (``compact_wires``), each basis index's readout
    code and the readout width.  Measurements must be terminal, and one at
    least."""
    circ.require_terminal_measurements()
    if not circ.measurements:
        raise ValueError("circuit has no measurements")
    circ, _ = compact_wires(circ)
    wires = [ins.wires[0] for ins in circ.measurements]
    return circ, readout_code(circ.num_wires, wires), len(wires)


def readout_strings(by_code: np.ndarray) -> dict:
    """The nonzero entries of an array indexed by readout code, keyed by
    their readout strings (``len(by_code)`` is 2**width), in code order."""
    width = len(by_code).bit_length() - 1
    codes = np.flatnonzero(by_code)
    keys = [format(c, f"0{width}b") for c in codes.tolist()]
    return dict(zip(keys, by_code[codes].tolist()))


def readout_tally(counts: dict[str, int], width: int) -> np.ndarray:
    """Counts of readout strings of ``width`` positions as an array indexed
    by readout code; the one place a readout string is read back as a code."""
    tally = np.zeros(1 << width, dtype=np.int64)
    tally[[int(key, 2) for key in counts]] = list(counts.values())
    return tally


def _nonzero_bits(by_code: np.ndarray):
    """The codes of an array's nonzero entries, and their bits by position."""
    width = len(by_code).bit_length() - 1
    codes = np.flatnonzero(by_code)
    return codes, (codes[:, None] >> np.arange(width - 1, -1, -1)) & 1


def readout_marginals(by_code: np.ndarray) -> list:
    """Per readout position, the total of an array indexed by readout code
    over the codes that read 1 there, summed in code order."""
    codes, bits = _nonzero_bits(by_code)
    return (by_code[codes][:, None] * bits).sum(axis=0).tolist()


def parity_tally(by_code: np.ndarray, masks: list[list[int]]) -> np.ndarray:
    """An array indexed by readout code, re-indexed by parity masks: a mask
    is a list of readout positions, a code's bit for it the XOR of its bits
    there (a position listed twice cancels), the first mask leftmost."""
    codes, bits = _nonzero_bits(by_code)
    select = np.zeros((bits.shape[1], len(masks)), dtype=np.int64)
    for k, mask in enumerate(masks):
        for pos in mask:
            select[pos, k] += 1
    parity_code = pack_readout((bits @ select & 1).T)
    tally = np.bincount(parity_code, weights=by_code[codes], minlength=1 << len(masks))
    return tally.astype(by_code.dtype)


def parity_postprocess(counts: dict[str, int], masks: list[list[int]]) -> list[int]:
    """Per logical output, count shots whose masked XOR is 1: the keys of
    each width go through ``readout_tally`` and ``parity_tally``.  A position
    past a key's width raises, naming the first short key's width."""
    ones = np.zeros(len(masks), dtype=np.int64)
    for width in dict.fromkeys(map(len, counts)):
        late = [posn for mask in masks for posn in mask if posn >= width]
        if late:
            raise ValueError(f"mask position {late[0]} exceeds readout width {width}")
        same = {s: c for s, c in counts.items() if len(s) == width}
        ones += readout_marginals(parity_tally(readout_tally(same, width), masks))
    return ones.tolist()


def _readout_law(circ: Circuit) -> np.ndarray:
    """Exact noiseless law over readout codes, from one simulation."""
    circ, code, width = terminal_readout(circ)
    probs = np.abs(final_state(circ).amps) ** 2
    return np.bincount(code, weights=probs, minlength=1 << width)


def exact_readout_distribution(circ: Circuit) -> dict[str, float]:
    """Exact noiseless distribution over readout strings.

    First measurement = leftmost character; strings of probability 0 are
    left out.
    """
    return readout_strings(_readout_law(circ))


def sample_counts(
    circ: Circuit, shots: int, rng: np.random.Generator
) -> Counter:
    """Sample terminal readout strings (noiseless); ``shots`` must be an
    integer of at least 1."""
    require_shots(shots)
    law = _readout_law(circ)
    codes = np.flatnonzero(law > 0.0)
    p = law[codes]
    p = p / p.sum()
    # Draws of 8 bytes each, in chunks within the byte budget, leave the
    # stream where one draw of `shots` would.
    tally = np.zeros(len(law), dtype=np.int64)
    step = statevec.SHOT_CHUNK_BYTES // 8
    for lo in range(0, shots, step):
        draws = rng.choice(len(codes), size=min(step, shots - lo), p=p)
        tally += np.bincount(codes[draws], minlength=len(law))
    return Counter(readout_strings(tally))


def _require_unitary(circ: Circuit) -> None:
    if circ.num_wires > MAX_VERIFY_WIRES:
        raise ValueError(
            f"unitary reconstruction limited to {MAX_VERIFY_WIRES} wires"
        )
    if circ.measurements:
        raise ValueError("unitary reconstruction requires a measurement-free circuit")


def unitary_of(circ: Circuit) -> np.ndarray:
    """Full unitary, its columns simulated as rows (<= MAX_VERIFY_WIRES)."""
    _require_unitary(circ)
    cols = np.arange(1 << circ.num_wires)
    u = np.empty((len(cols), len(cols)), dtype=complex)
    step = rows_per_chunk(circ.num_wires)
    for lo in range(0, len(cols), step):
        u[:, lo : lo + step] = _evolve_columns(circ, cols[lo : lo + step]).T
    return u


def verify_equivalence(
    c1: Circuit,
    c2: Circuit,
    up_to_global_phase: bool = False,
    wire_perm: dict[int, int] | None = None,
    input_perm: dict[int, int] | None = None,
) -> tuple[bool, float]:
    """Compare two measurement-free circuits column by column.

    ``wire_perm`` maps wires of ``c1`` to wires of ``c2`` on the output side
    (c2 may be wider; its extra wires must start and end in |0>);
    ``input_perm`` does the same on the input side and defaults to
    ``wire_perm``.  Routed circuits use the initial placement for inputs and
    the recorded final placement for outputs.  Only c1's 2^n1 columns are
    simulated, on both circuits, as rows of one array per chunk; the global
    phase is fixed by column 0.  Returns (equal, max deviation).
    """
    _require_unitary(c1)
    _require_unitary(c2)
    out_perm = wire_perm or {w: w for w in range(c1.num_wires)}
    in_perm = input_perm or out_perm
    cols = np.arange(1 << c1.num_wires)
    idx_out = np.zeros(len(cols), dtype=np.int64)
    cols2 = np.zeros(len(cols), dtype=np.int64)
    for w in range(c1.num_wires):
        idx_out |= ((cols >> w) & 1) << out_perm[w]
        cols2 |= ((cols >> w) & 1) << in_perm[w]
    max_dev = 0.0
    phase = None
    step = rows_per_chunk(max(c1.num_wires, c2.num_wires))
    for lo in range(0, len(cols), step):
        rows1 = _evolve_columns(c1, cols[lo : lo + step])
        expected = np.zeros((len(rows1), 1 << c2.num_wires), dtype=complex)
        expected[:, idx_out] = rows1
        got = _evolve_columns(c2, cols2[lo : lo + step])
        if up_to_global_phase:
            if phase is None:
                k = int(np.argmax(np.abs(expected[0])))
                if abs(got[0, k]) < 1e-12:
                    return False, 1.0
                phase = got[0, k] / expected[0, k]
                phase /= abs(phase)
            got = got / phase
        max_dev = max(max_dev, float(np.max(np.abs(got - expected))))
    return max_dev <= EQUIV_TOL, max_dev


# -- rewrites -------------------------------------------------------------


def rz_as_named_gates(k: int, wire: int) -> list[Instruction]:
    """rz(k*pi/4) as exact named phase gates."""
    return [gate(name, wire) for name in _RZ_POWER_GATES[k % 8]]


def rewrite_cz_to_cnot(circ: Circuit) -> Circuit:
    """Replace every CZ(a, b) with H(b), CNOT(a, b), H(b)."""
    out: list[Instruction] = []
    for ins in circ.instructions:
        if ins.gate == "cz":
            a, b = ins.wires
            out += [gate("h", b), gate("cnot", a, b), gate("h", b)]
        else:
            out.append(ins)
    return circuit(circ.num_wires, out)


def cancel_hh(circ: Circuit) -> Circuit:
    """Drop adjacent H pairs on a wire (nothing touching it in between)."""
    ins_list = list(circ.instructions)
    changed = True
    while changed:
        changed = False
        for i, ins in enumerate(ins_list):
            if ins.gate != "h":
                continue
            w = ins.wires[0]
            for j in range(i + 1, len(ins_list)):
                other = ins_list[j]
                if w not in other.wires:
                    continue
                if other.gate == "h":
                    del ins_list[j]
                    del ins_list[i]
                    changed = True
                break
            if changed:
                break
    return circuit(circ.num_wires, ins_list)


def reverse_cnot(a: int, b: int) -> list[Instruction]:
    """CNOT(b, a) expressed with a CNOT available only as (a, b)."""
    return [
        gate("h", a),
        gate("h", b),
        gate("cnot", a, b),
        gate("h", b),
        gate("h", a),
    ]


def decompose_swap_onedir(a: int, b: int, lower_cz: bool = False) -> list[Instruction]:
    """SWAP using two-qubit interactions in the (a -> b) direction only.

    The middle block is CNOT(b, a) realised as H(a) CZ(a, b) H(a); with
    ``lower_cz`` the CZ is further lowered to H-conjugated CNOT(a, b).
    """
    if lower_cz:
        middle = reverse_cnot(a, b)
    else:
        middle = [gate("h", a), gate("cz", a, b), gate("h", a)]
    return [gate("cnot", a, b)] + middle + [gate("cnot", a, b)]


def decompose_controlled_sdg(
    control: int, target: int, _skip_control_phase: bool = False
) -> list[Instruction]:
    """Controlled-S-dagger, exactly diag(1, 1, 1, -i), from T powers and CNOTs.

    The conditional phase is global-phase sensitive, hence the extra T power
    on the control wire.  ``_skip_control_phase`` is a verification hook that
    omits it; the selftest uses it to show the matrix oracle catches the
    resulting diag(1, 1, e^{-i pi/4} ...) mismatch.
    """
    out = [gate("tdg", target)]
    if not _skip_control_phase:
        out.append(gate("tdg", control))
    out += [
        gate("cnot", control, target),
        gate("t", target),
        gate("cnot", control, target),
    ]
    return out


# -- coupling maps and routing --------------------------------------------


@dataclass(frozen=True)
class CouplingMap:
    """Directed allowed CNOT pairs (control, target) on a physical chip."""

    num_nodes: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.num_nodes < 1:
            raise ValueError(f"node count {self.num_nodes} is below 1")
        for c, t in self.edges:
            if not (0 <= c < self.num_nodes and 0 <= t < self.num_nodes):
                raise ValueError(f"edge ({c}, {t}) references unknown node")
            if c == t:
                raise ValueError(f"self-edge on node {c}")

    def undirected(self) -> dict[int, list[int]]:
        adj: dict[int, set[int]] = {v: set() for v in range(self.num_nodes)}
        for c, t in self.edges:
            adj[c].add(t)
            adj[t].add(c)
        return {v: sorted(ns) for v, ns in adj.items()}

    def is_connected(self) -> bool:
        # Fewer than n - 1 undirected edges cannot connect n nodes.
        if len({frozenset(e) for e in self.edges}) < self.num_nodes - 1:
            return False
        adj = self.undirected()
        seen = {0}
        queue = deque([0])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return len(seen) == self.num_nodes

    def shortest_path(self, a: int, b: int) -> list[int]:
        adj = self.undirected()
        prev = {a: a}
        queue = deque([a])
        while queue:
            v = queue.popleft()
            if v == b:
                break
            for w in adj[v]:
                if w not in prev:
                    prev[w] = v
                    queue.append(w)
        if b not in prev:
            raise RoutingError(f"no path between physical nodes {a} and {b}")
        path = [b]
        while path[-1] != a:
            path.append(prev[path[-1]])
        return path[::-1]


def ladder16() -> CouplingMap:
    """Sample 2x8 ladder chip: rails left-to-right, rungs top-to-bottom."""
    edges = set()
    for i in range(7):
        edges.add((i, i + 1))
        edges.add((8 + i, 9 + i))
    for i in range(8):
        edges.add((i, i + 8))
    return CouplingMap(16, frozenset(edges))


def ring(n: int) -> CouplingMap:
    return CouplingMap(n, frozenset((i, (i + 1) % n) for i in range(n)))


def read_records(path, record, build, error=ValueError):
    """Call ``record(tokens)`` per data line of a ``#``-commented file, then
    return ``build()``.  Lines are decoded as UTF-8 one by one; a ValueError
    becomes ``error`` with ``path:line:`` (a line's) or ``path:`` (build's).
    """
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                tokens = raw.decode("utf-8").split("#", 1)[0].split()
                if tokens:
                    record(tokens)
            except ValueError as exc:
                raise error(f"{path}:{lineno}: {exc}") from exc
    try:
        return build()
    except ValueError as exc:
        raise error(f"{path}: {exc}") from exc


def write_text(path, text: str) -> None:
    """Write ``text`` as UTF-8 over ``path`` in place, creating it if missing.

    Only a stale longer tail is cut, so a rewrite of similar length frees no
    block, which a truncating open does (slow on a ``discard`` mount).  A
    crash mid-write can leave old and new bytes mixed.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(text.encode("utf-8"))
        fh.truncate()


def load_coupling(path) -> CouplingMap:
    """First data line: node count; then ``edge <control> <target>`` lines."""
    num_nodes = None
    edges = set()

    def record(tokens):
        nonlocal num_nodes
        if num_nodes is None:
            (num_nodes,) = map(int, tokens)
        elif tokens[0] == "edge":
            c, t = map(int, tokens[1:])
            if (c, t) in edges:
                raise ValueError(f"edge {c} {t} given twice")
            edges.add((c, t))
        else:
            raise ValueError(f"unknown record {tokens[0]!r}")

    def build():
        if num_nodes is None:
            raise ValueError("missing node count")
        return CouplingMap(num_nodes, frozenset(edges))

    return read_records(path, record, build, CircuitFormatError)


def save_coupling(coupling: CouplingMap, path) -> None:
    lines = [str(coupling.num_nodes)]
    for c, t in sorted(coupling.edges):
        lines.append(f"edge {c} {t}")
    write_text(path, "\n".join(lines) + "\n")


def check_conformance(circ: Circuit, coupling: CouplingMap) -> None:
    """Every two-qubit instruction must be a CNOT on an allowed directed pair."""
    for ins in circ.instructions:
        if ins.gate == "measure" or len(ins.wires) == 1:
            continue
        if ins.gate != "cnot" or tuple(ins.wires) not in coupling.edges:
            raise RoutingError(
                f"instruction {ins.gate}{ins.wires} violates the coupling map"
            )


def _emit_cnot(out: list[Instruction], coupling: CouplingMap, c: int, t: int) -> None:
    if (c, t) in coupling.edges:
        out.append(gate("cnot", c, t))
    elif (t, c) in coupling.edges:
        out.extend(reverse_cnot(t, c))
    else:
        raise RoutingError(f"no coupling between adjacent nodes {c} and {t}")


def _emit_cz(out: list[Instruction], coupling: CouplingMap, a: int, b: int) -> None:
    # CZ is symmetric; lower through whichever CNOT direction exists.
    if (a, b) in coupling.edges:
        out += [gate("h", b), gate("cnot", a, b), gate("h", b)]
    elif (b, a) in coupling.edges:
        out += [gate("h", a), gate("cnot", b, a), gate("h", a)]
    else:
        raise RoutingError(f"no coupling between adjacent nodes {a} and {b}")


def _emit_swap(out: list[Instruction], coupling: CouplingMap, a: int, b: int) -> None:
    fwd = (a, b) in coupling.edges
    bwd = (b, a) in coupling.edges
    if fwd and bwd:
        out += [gate("cnot", a, b), gate("cnot", b, a), gate("cnot", a, b)]
    elif fwd:
        out.extend(decompose_swap_onedir(a, b, lower_cz=True))
    elif bwd:
        out.extend(decompose_swap_onedir(b, a, lower_cz=True))
    else:
        raise RoutingError(f"no coupling between adjacent nodes {a} and {b}")


def route(
    circ: Circuit, coupling: CouplingMap, placement: dict[int, int]
) -> tuple[Circuit, dict[int, int]]:
    """Map a logical circuit onto the coupling map.

    Greedy strategy: walk each two-qubit gate's shortest physical path,
    swapping the first operand toward the other until adjacent, then fix the
    CNOT direction with H conjugation.  Logical SWAP instructions are applied
    as relabelings.  Returns the physical circuit and the final
    logical-to-physical placement; measurement bit names follow their logical
    wires.
    """
    if not coupling.is_connected():
        raise RoutingError("coupling map is not connected")
    pos = dict(placement)
    if len(pos) != circ.num_wires or set(pos.keys()) != set(range(circ.num_wires)):
        raise RoutingError("placement must cover every logical wire")
    if len(set(pos.values())) != len(pos):
        raise RoutingError("placement must be injective")
    for p in pos.values():
        if not 0 <= p < coupling.num_nodes:
            raise RoutingError(f"physical node {p} out of range")

    wire_at = {p: w for w, p in pos.items()}
    out: list[Instruction] = []

    def do_swap(u: int, v: int) -> None:
        _emit_swap(out, coupling, u, v)
        wu, wv = wire_at.get(u), wire_at.get(v)
        if wu is not None:
            pos[wu] = v
        if wv is not None:
            pos[wv] = u
        wire_at[u], wire_at[v] = wv, wu

    for ins in circ.instructions:
        if ins.gate == "measure":
            out.append(measure(pos[ins.wires[0]], ins.bit))
            continue
        if len(ins.wires) == 1:
            out.append(replace(ins, wires=(pos[ins.wires[0]],)))
            continue
        a, b = ins.wires
        if ins.gate == "swap":
            pos[a], pos[b] = pos[b], pos[a]
            wire_at[pos[a]], wire_at[pos[b]] = a, b
            continue
        path = coupling.shortest_path(pos[a], pos[b])
        while len(path) > 2:
            do_swap(path[0], path[1])
            path = path[1:]
        pa, pb = pos[a], pos[b]
        if ins.gate == "cnot":
            _emit_cnot(out, coupling, pa, pb)
        elif ins.gate == "cz":
            _emit_cz(out, coupling, pa, pb)
        else:
            raise RoutingError(f"unroutable two-qubit gate {ins.gate!r}")

    routed = circuit(coupling.num_nodes, out)
    check_conformance(routed, coupling)
    return routed, dict(pos)


# -- circuit files ---------------------------------------------------------


def load_circuit(path) -> Circuit:
    """Parse ``gate NAME w0 [w1]`` / ``measure w -> bitname`` lines."""
    instructions: list[Instruction] = []

    def record(tokens):
        kind, *args = tokens
        if kind == "gate":
            name, *wires = args
            instructions.append(Instruction(name, tuple(map(int, wires))))
        elif kind == "measure":
            if len(args) != 3 or args[1] != "->":
                raise ValueError("expected: measure <wire> -> <bitname>")
            instructions.append(measure(int(args[0]), args[2]))
        else:
            raise ValueError(f"unknown record {kind!r}")

    def build():
        wires = [w for ins in instructions for w in ins.wires]
        return circuit(max(wires, default=-1) + 1, instructions)

    return read_records(path, record, build, CircuitFormatError)


def save_circuit(circ: Circuit, path) -> None:
    lines = []
    for ins in circ.instructions:
        if ins.gate == "measure":
            lines.append(f"measure {ins.wires[0]} -> {ins.bit}")
        elif ins.gate == "rz":
            k = round(ins.param / (pi / 4))
            if abs(ins.param - k * pi / 4) > 1e-9:
                raise ValueError(
                    "only pi/4-grid rz angles can be serialised as named gates"
                )
            for named in rz_as_named_gates(int(k), ins.wires[0]):
                lines.append(f"gate {named.gate} {named.wires[0]}")
        else:
            lines.append(f"gate {ins.gate} " + " ".join(map(str, ins.wires)))
    write_text(path, "\n".join(lines) + "\n")
