"""Two-party delegated execution with deferred corrections.

The server prepares every graph node as |+>, entangles along the edges, and
measures each non-output node at its *default* angle, never learning the
client's input keys or corrections.  For every node measured at pi/4 the
server first copies that node's computational value onto a fresh companion
qubit (a Bell-type CNOT copy) and hands the companion back unmeasured; the
client measures it in the X or Y basis depending on the corrected outcome of
the node's flow predecessor and uses the result to absorb the non-Clifford
byproduct.  All corrections are XOR recursions evaluated after the fact:

* angle in {0, pi}:        b = s (+) key (+) sum of z-dependency b's
* angle in {pi/2, 3pi/2}:  b = s (+) key (+) b_pred (+) sum of z-dep b's
* angle pi/4:              b = s (+) key (+) alpha (+) sum of z-dep b's

where `key` is the input phase key (input nodes only) and b_pred the
corrected outcome of the flow predecessor.  Output nodes are read in the
computational basis and corrected by their predecessor's b.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import pi

import numpy as np

from .circuit import readout_code
from .pattern import (
    MeasurementPattern,
    OutcomeLedger,
    _corrected_angle_k,
    _prepare_graph_state,
    input_keys,
)
from .statevec import StateVector, Y_BASIS_ANGLE

DIST_TOL = 1e-9
MAX_ENUMERATED_MEASUREMENTS = 12


def encode_input(input_bits) -> list[int]:
    """Phase keys hiding the classical input: bit 1 means logical |->.

    The register sent to the server is always all-|+>; the key alone tells
    the two apart, and only the client holds it.
    """
    bits = list(input_bits)
    if any(b not in (0, 1) for b in bits):
        raise ValueError("input bits must be 0 or 1")
    return bits


def key_update_T(a: int, b: int) -> tuple[int, int, int]:
    """Propagate an (X^a, Z^b) key through a T gate.

    T X^a Z^b = X^a Z^{a xor b} S^a T up to global phase, so the X key is
    unchanged, the Z key picks up a, and an S correction is needed iff a = 1.
    """
    if a not in (0, 1) or b not in (0, 1):
        raise ValueError("key bits must be 0 or 1")
    return a, a ^ b, a


def client_basis(b_prev: int) -> str:
    """Companion measurement basis from the predecessor's corrected bit."""
    if b_prev not in (0, 1):
        raise ValueError("corrected bit must be 0 or 1")
    return "Y" if b_prev else "X"


@dataclass
class ClientState:
    """Everything the client holds during a run; never shown to the server."""

    input_bits: list[int]
    z_keys: dict[int, int]
    alpha: dict[int, int]
    ledger: OutcomeLedger
    basis_choices: dict[int, str]


@dataclass
class ServerView:
    """What the server can see: structure, default angles, raw outcomes."""

    nodes: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    default_angles: dict[int, int]
    raw_outcomes: dict[int, int]
    raw_output_bits: dict[int, int]


@dataclass
class ProtocolTranscript:
    """Ordered message log; replaying with the same seed reproduces it."""

    messages: list[tuple[str, str, str]] = field(default_factory=list)

    def add(self, direction: str, kind: str, payload: str = "") -> None:
        self.messages.append((direction, kind, payload))

    def serialize(self) -> str:
        return "\n".join(
            f"{d} {k} {p}".rstrip() for d, k, p in self.messages
        ) + "\n"


@dataclass
class QfheRun:
    output_bits: list[int]
    server_view: ServerView
    transcript: ProtocolTranscript
    client: ClientState


def _corrected_bit(
    pattern: MeasurementPattern,
    node: int,
    s: dict,
    b: dict,
    alpha: dict,
    keys: dict,
    drop_pred_term: bool = False,
):
    """The deferred-correction rule of one measured node (see module doc).

    Bits may be ints or frozensets of symbols: ``^`` is XOR on the first and
    symmetric difference on the second, which is how the compiler checks
    its circuits against this rule.  ``keys`` holds input nodes only.
    """
    plan = pattern.plan
    family = plan.family[node]
    acc = s[node]
    if node in keys:
        acc ^= keys[node]
    for j in plan.zdeps[node]:
        acc ^= b[j]
    if family == "z":
        return acc
    if family == "pred":
        p = plan.pred[node]
        if p is not None and not drop_pred_term:
            acc ^= b[p]
        return acc
    if family == "gadget":
        if node not in alpha:
            raise ValueError(f"missing companion outcome for pi/4 node {node}")
        return acc ^ alpha[node]
    raise ValueError(
        f"angle multiple {pattern.angles[node]} of node {node} has no"
        " deferred-correction rule"
    )


def _correct_all(
    pattern: MeasurementPattern,
    s: dict,
    alpha: dict,
    keys: dict,
    drop_pred_term: bool = False,
) -> dict:
    """Corrected outcomes of every node: the rule in flow order, then outputs."""
    plan = pattern.plan
    b: dict = {}
    for i in pattern.flow.order:
        if i not in s:
            raise ValueError(f"missing raw outcome for node {i}")
        b[i] = _corrected_bit(pattern, i, s, b, alpha, keys, drop_pred_term)
    for o in pattern.graph.outputs:
        if o not in s:
            raise ValueError(f"missing raw readout for output node {o}")
        b[o] = plan.corrected_output(o, s[o], b)
    return b


def deferred_corrections(
    pattern: MeasurementPattern,
    s: dict[int, int],
    alpha: dict[int, int],
    input_bits,
    _drop_pred_term: bool = False,
) -> dict[int, int]:
    """Corrected outcomes for every node, computed in flow order.

    ``s`` must hold raw outcomes for all measured nodes and raw computational
    readouts for the outputs; a broken flow raises FlowError.  The
    ``_drop_pred_term`` hook deliberately corrupts the pi/2-family rule; the
    selftest uses it to prove the equivalence check has teeth.
    """
    keys = input_keys(pattern, input_bits)
    return _correct_all(pattern, s, alpha, keys, _drop_pred_term)


def _prepare_protocol_state(
    pattern: MeasurementPattern, direct_input_bits: dict[int, int] | None = None
) -> StateVector:
    wire_of = pattern.plan.wire_of
    sv = StateVector(len(wire_of))
    for v in pattern.graph.nodes:
        sv.apply_gate("h", (wire_of[v],))
    if direct_input_bits:
        for v, bit in direct_input_bits.items():
            if bit:
                sv.apply_gate("z", (wire_of[v],))
    # Companion copies commute with the CZ edges; doing them first matches
    # the Bell-pair construction (H then CNOT from |00>).
    for node in pattern.quarter_nodes:
        sv.apply_gate("cnot", (wire_of[node], wire_of[("companion", node)]))
    for a, b in pattern.graph.edges:
        sv.apply_gate("cz", (wire_of[a], wire_of[b]))
    return sv


def run_qfhe_detailed(
    pattern: MeasurementPattern,
    input_bits,
    rng: np.random.Generator,
    want_transcript: bool = True,
) -> QfheRun:
    """One protocol run: server phase, companion hand-back, client corrections.

    ``want_transcript`` skips message logging for bulk shot loops; outcomes
    are unaffected (no random draws depend on it).
    """
    plan = pattern.plan
    bits = encode_input(input_bits)
    keys = input_keys(pattern, bits)
    sv = _prepare_protocol_state(pattern)
    wire_of = plan.wire_of

    tr = ProtocolTranscript()
    log = tr.add if want_transcript else (lambda *args: None)
    log("c2s", "nodes", " ".join(str(v) for v in pattern.graph.nodes))
    log("c2s", "edges", " ".join(f"{a}-{b}" for a, b in pattern.graph.edges))
    log(
        "c2s",
        "angles",
        " ".join(f"{v}:{pattern.angles[v]}" for v in pattern.flow.order),
    )
    if pattern.quarter_nodes:
        log("c2s", "companions", " ".join(str(v) for v in pattern.quarter_nodes))
    log("c2s", "order", " ".join(str(v) for v in pattern.flow.order))

    # Server phase: default angles throughout, outputs read computationally.
    s: dict[int, int] = {}
    for i in pattern.flow.order:
        out = sv.measure_rotated(wire_of[i], pattern.angle_rad(i), rng)
        s[i] = out.bit
        log("s2c", "outcome", f"{i} {out.bit}")
    raw_outputs: dict[int, int] = {}
    for o in pattern.graph.outputs:
        out = sv.measure_z(wire_of[o], rng)
        raw_outputs[o] = out.bit
        log("s2c", "output-raw", f"{o} {out.bit}")
    for node in pattern.quarter_nodes:
        log("s2c", "companion-return", str(node))

    # Client phase: companion measurements and the correction recursion.
    ledger = OutcomeLedger(
        s=dict(s) | dict(raw_outputs),
        zdeps={i: plan.zdeps[i] for i in pattern.flow.order},
    )
    alpha: dict[int, int] = {}
    basis_choices: dict[int, str] = {}
    b: dict[int, int] = {}
    for i in pattern.flow.order:
        if plan.family[i] == "gadget":
            basis = client_basis(plan.byproducts(i, b, keys)[0])
            basis_choices[i] = basis
            out = sv.measure_pauli_basis(wire_of[("companion", i)], basis, rng)
            alpha[i] = out.bit
            log("client", "basis", f"{i} {basis}")
            log("client", "companion-outcome", f"{i} {out.bit}")
        b[i] = _corrected_bit(pattern, i, s, b, alpha, keys)
        log("client", "corrected", f"{i} {b[i]}")
    for o in pattern.graph.outputs:
        b[o] = plan.corrected_output(o, raw_outputs[o], b)
        log("client", "output", f"{o} {b[o]}")

    ledger.b = b
    ledger.alpha = dict(alpha)
    server_view = ServerView(
        nodes=pattern.graph.nodes,
        edges=pattern.graph.edges,
        default_angles=dict(pattern.angles),
        raw_outcomes=dict(s),
        raw_output_bits=dict(raw_outputs),
    )
    client = ClientState(
        input_bits=bits,
        z_keys=keys,
        alpha=alpha,
        ledger=ledger,
        basis_choices=basis_choices,
    )
    output_bits = [b[o] for o in pattern.graph.outputs]
    return QfheRun(output_bits, server_view, tr, client)


def run_qfhe(
    pattern: MeasurementPattern, input_bits, rng: np.random.Generator
) -> tuple[list[int], ServerView, ProtocolTranscript]:
    run = run_qfhe_detailed(pattern, input_bits, rng)
    return run.output_bits, run.server_view, run.transcript


# -- exact branch enumeration (the master oracle) ------------------------


def _branches(sv: StateVector, q: int, phi: float):
    """(bit, probability, collapsed copy) for each possible outcome on q."""
    for bit in (0, 1):
        nxt = sv.copy()
        p = nxt.project_rotated(q, phi, bit)
        if p > 0.0:
            yield bit, p, nxt


def _walk_branches(
    pattern: MeasurementPattern,
    input_bits,
    mode: str,
    direct_input_prep: bool = False,
) -> dict[str, float]:
    """Exact law of the output strings, by walking every measurement branch.

    ``interactive`` adapts angles and yields corrected outputs; ``qfhe``
    measures at default angles, branches on each companion in the client's
    basis and yields deferred-corrected outputs; ``raw`` walks the protocol
    register at default angles without touching the companions and yields
    the server's raw readouts.
    """
    plan = pattern.plan
    keys = input_keys(pattern, encode_input(input_bits))
    direct = None
    if direct_input_prep:
        direct = dict(keys)
        keys = {v: 0 for v in keys}
    if mode == "interactive":
        sv0 = _prepare_graph_state(pattern, direct)
    else:
        sv0 = _prepare_protocol_state(pattern, direct)

    order = pattern.flow.order
    outs = pattern.graph.outputs
    width = len(outs)
    code = readout_code(sv0.num_qubits, [plan.wire_of[o] for o in outs])
    dist: dict[str, float] = {}

    def walk(sv: StateVector, prob: float, idx: int, b: dict, alpha: dict):
        if prob <= 1e-15:
            return
        if idx == len(order):
            xor_mask = 0
            if mode != "raw":
                for pos, o in enumerate(outs):
                    xor_mask |= plan.corrected_output(o, 0, b) << (width - 1 - pos)
            probs = np.abs(sv.amps) ** 2
            raw_dist = np.bincount(code, weights=probs, minlength=1 << width)
            for raw_idx in range(1 << width):
                p = float(raw_dist[raw_idx])
                if p > 0.0:
                    key = format(raw_idx ^ xor_mask, f"0{width}b")
                    dist[key] = dist.get(key, 0.0) + prob * p
            return
        i = order[idx]
        if mode == "interactive":
            x, z = plan.byproducts(i, b, keys)
            phi = _corrected_angle_k(pattern.angles[i], x, z) * pi / 4
        else:
            phi = pattern.angle_rad(i)
        # qfhe: the companion first, in the basis the client would pick.
        companions = [(None, 1.0, sv)]
        if mode == "qfhe" and plan.family[i] == "gadget":
            basis = client_basis(plan.byproducts(i, b, keys)[0])
            phi_c = 0.0 if basis == "X" else Y_BASIS_ANGLE
            companions = _branches(sv, plan.wire_of[("companion", i)], phi_c)
        for a_out, pa, mid in companions:
            alpha2 = alpha if a_out is None else {**alpha, i: a_out}
            for outcome, ps, nxt in _branches(mid, plan.wire_of[i], phi):
                bit = outcome
                if mode == "qfhe":
                    bit = _corrected_bit(pattern, i, {i: outcome}, b, alpha2, keys)
                walk(nxt, prob * pa * ps, idx + 1, {**b, i: bit}, alpha2)

    walk(sv0, 1.0, 0, {}, {})
    total = sum(dist.values())
    if abs(total - 1.0) > DIST_TOL:
        raise RuntimeError(f"branch probabilities sum to {total}, expected 1")
    return dist


def enumerate_branches(
    pattern: MeasurementPattern,
    input_bits,
    mode: str = "interactive",
    direct_input_prep: bool = False,
) -> dict[str, float]:
    """Exact output distribution by walking every measurement branch.

    ``mode`` is ``interactive`` (adapted angles) or ``qfhe`` (default angles
    plus companion measurements and deferred corrections).  With
    ``direct_input_prep`` the input nodes are physically prepared as |+>/|->
    and the keys zeroed, which must not change the distribution.
    """
    if mode not in ("interactive", "qfhe"):
        raise ValueError(f"unknown mode {mode!r}")
    n_branch_points = len(pattern.flow.order)
    if mode == "qfhe":
        n_branch_points += len(pattern.quarter_nodes)
    if n_branch_points > MAX_ENUMERATED_MEASUREMENTS:
        raise ValueError(
            f"{n_branch_points} measurement branch points exceed the"
            f" enumeration guard of {MAX_ENUMERATED_MEASUREMENTS}"
        )
    return _walk_branches(pattern, input_bits, mode, direct_input_prep)


def server_output_marginals_exact(
    pattern: MeasurementPattern, input_bits
) -> dict[int, float]:
    """Exact P(raw output readout = 1) per output node, before corrections.

    The branch walk's raw-readout mode: what the server reads, whatever the
    client later does with the companions.
    """
    dist = _walk_branches(pattern, input_bits, "raw")
    return {
        o: sum(p for key, p in dist.items() if key[pos] == "1")
        for pos, o in enumerate(pattern.graph.outputs)
    }


def total_variation(p: dict[str, float], q: dict[str, float]) -> float:
    """Half the L1 distance between two distributions over bit strings."""
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)
