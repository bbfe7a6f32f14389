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

import numpy as np

from .circuit import pack_readout, readout_marginals, readout_strings
from .pattern import (
    MeasurementPattern,
    OutcomeLedger,
    _with_input_flips,
    input_keys,
    interactive_on,
)
from .statevec import BranchBatch, ShotBatch, Y_BASIS_ANGLE

DIST_TOL = 1e-9


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
        acc = acc ^ keys[node]
    for j in plan.zdeps[node]:
        acc = acc ^ b[j]
    if family == "z":
        return acc
    if family == "pred":
        p = plan.pred[node]
        if p is not None and not drop_pred_term:
            acc = acc ^ b[p]
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


def qfhe_draws(pattern: MeasurementPattern) -> int:
    """Uniforms a protocol shot reads: every wire of the register once."""
    return len(pattern.plan.wire_of)


def qfhe_rows(pattern: MeasurementPattern, input_bits, uniforms):
    """Protocol runs of one shot per row of `uniforms`, as one ShotBatch.

    Row k holds shot k's ``qfhe_draws`` uniforms: one per measured node in
    flow order, then one per output, then one per companion in flow order.
    Returns ``qfhe_on``'s ``(s, alpha, b)``.
    """
    keys = input_keys(pattern, encode_input(input_bits))
    return qfhe_on(pattern, keys, ShotBatch(pattern.plan.register, uniforms))


def qfhe_on(pattern: MeasurementPattern, keys, batch):
    """The protocol sequence on a ShotBatch or a BranchBatch.

    The server's default-angle measurements in flow order and its output
    readouts, then the client's companions and corrections.  Returns
    ``(s, alpha, b)``: per node, the bits of every row; ``s`` holds the
    server's raw outcomes and raw output readouts, ``alpha`` the companion
    outcomes, ``b`` the corrected bits.
    """
    plan = pattern.plan
    order, outputs = pattern.flow.order, pattern.graph.outputs

    # Server phase: default angles throughout, outputs read computationally.
    s: dict = {}
    for i in order:
        s[i] = batch.measure(plan.wire_of[i], pattern.angle_rad(i))
    for o in outputs:
        s[o] = batch.measure(plan.wire_of[o])

    # Client phase: companions in the X or Y basis, then the corrections.
    alpha: dict = {}
    b: dict = {}
    for i in order:
        if plan.family[i] == "gadget":
            y_basis = plan.byproducts(i, b, keys)[0]
            companion = plan.wire_of[("companion", i)]
            alpha[i] = batch.measure(companion, Y_BASIS_ANGLE * y_basis)
        b[i] = _corrected_bit(pattern, i, s, b, alpha, keys)
    for o in outputs:
        b[o] = plan.corrected_output(o, s[o], b)
    return s, alpha, b


def run_qfhe_detailed(
    pattern: MeasurementPattern,
    input_bits,
    rng: np.random.Generator,
    want_transcript: bool = True,
) -> QfheRun:
    """One protocol run: server phase, companion hand-back, client corrections.

    The one-row case of ``qfhe_rows``.  ``want_transcript`` skips message
    logging; outcomes are unaffected (no random draws depend on it).
    """
    plan = pattern.plan
    bits = encode_input(input_bits)
    keys = input_keys(pattern, bits)
    s, alpha, b = (
        {v: int(row[0]) for v, row in d.items()}
        for d in qfhe_rows(pattern, input_bits, rng.random((1, qfhe_draws(pattern))))
    )
    order, outputs = pattern.flow.order, pattern.graph.outputs
    basis_choices = {i: client_basis(plan.byproducts(i, b, keys)[0]) for i in alpha}

    tr = ProtocolTranscript()
    if want_transcript:
        log = tr.add
        log("c2s", "nodes", " ".join(str(v) for v in pattern.graph.nodes))
        log("c2s", "edges", " ".join(f"{u}-{v}" for u, v in pattern.graph.edges))
        log("c2s", "angles", " ".join(f"{v}:{pattern.angles[v]}" for v in order))
        if pattern.quarter_nodes:
            log("c2s", "companions", " ".join(str(v) for v in pattern.quarter_nodes))
        log("c2s", "order", " ".join(str(v) for v in order))
        for i in order:
            log("s2c", "outcome", f"{i} {s[i]}")
        for o in outputs:
            log("s2c", "output-raw", f"{o} {s[o]}")
        for node in pattern.quarter_nodes:
            log("s2c", "companion-return", str(node))
        for i in order:
            if i in alpha:
                log("client", "basis", f"{i} {basis_choices[i]}")
                log("client", "companion-outcome", f"{i} {alpha[i]}")
            log("client", "corrected", f"{i} {b[i]}")
        for o in outputs:
            log("client", "output", f"{o} {b[o]}")

    server_view = ServerView(
        nodes=pattern.graph.nodes,
        edges=pattern.graph.edges,
        default_angles=dict(pattern.angles),
        raw_outcomes={i: s[i] for i in order},
        raw_output_bits={o: s[o] for o in outputs},
    )
    client = ClientState(
        input_bits=bits,
        z_keys=keys,
        alpha=alpha,
        ledger=OutcomeLedger(s=s, b=b, alpha=dict(alpha)),
        basis_choices=basis_choices,
    )
    return QfheRun([b[o] for o in outputs], server_view, tr, client)


def run_qfhe(
    pattern: MeasurementPattern, input_bits, rng: np.random.Generator
) -> tuple[list[int], ServerView, ProtocolTranscript]:
    run = run_qfhe_detailed(pattern, input_bits, rng)
    return run.output_bits, run.server_view, run.transcript


# -- exact branch enumeration (the master oracle) ------------------------


def _walk_branches(
    pattern: MeasurementPattern,
    input_bits,
    mode: str,
    direct_input_prep: bool = False,
) -> np.ndarray:
    """Exact law of the output readouts, as an array indexed by readout code.

    ``interactive_on`` or ``qfhe_on`` runs on a BranchBatch of the register.
    ``interactive`` and ``qfhe`` read the corrected outputs; ``raw`` reads
    the server's raw readouts, whatever the client does with companions.
    The rows' probabilities are tallied by their broadcast readout codes.
    """
    plan = pattern.plan
    keys = input_keys(pattern, encode_input(input_bits))
    direct = None
    if direct_input_prep:
        direct, keys = keys, dict.fromkeys(keys, 0)
    register = plan.graph_register if mode == "interactive" else plan.register
    batch = BranchBatch(_with_input_flips(register, plan.wire_of, direct))
    if mode == "interactive":
        bits = interactive_on(pattern, keys, batch)[1]
    else:
        s, _, b = qfhe_on(pattern, keys, batch)
        bits = s if mode == "raw" else b

    outs = pattern.graph.outputs
    code = pack_readout([bits[o] for o in outs])
    readout = np.broadcast_to(code, batch.shape).ravel()
    probs = (batch.amps.real**2 + batch.amps.imag**2).sum(axis=1)
    law = np.bincount(readout, weights=probs, minlength=1 << len(outs))
    if abs(law.sum() - 1.0) > DIST_TOL:
        raise RuntimeError(f"branch probabilities sum to {law.sum()}, expected 1")
    return law


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

    The keys are the outcomes whose tallied probability is above 0, so they
    can include rounding residue of impossible outcomes, at or below
    ``statevec.ZERO_BRANCH_P``: a law's key set is not its support.
    """
    if mode not in ("interactive", "qfhe"):
        raise ValueError(f"unknown mode {mode!r}")
    return readout_strings(_walk_branches(pattern, input_bits, mode, direct_input_prep))


def server_output_marginals_exact(
    pattern: MeasurementPattern, input_bits
) -> dict[int, float]:
    """Exact P(raw output readout = 1) per output node, before corrections.

    The branch walk's raw-readout mode: what the server reads, whatever the
    client later does with the companions.
    """
    law = _walk_branches(pattern, input_bits, "raw")
    return dict(zip(pattern.graph.outputs, readout_marginals(law)))


def total_variation(p: dict[str, float], q: dict[str, float]) -> float:
    """Half the L1 distance between two distributions over bit strings."""
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)
