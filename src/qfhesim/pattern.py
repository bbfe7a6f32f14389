"""Open-graph measurement patterns with flow.

A pattern prepares one |+> qubit per graph node, entangles along every edge
with CZ, and measures the non-output nodes in flow order in rotated bases.
Measurement angles are held as integer multiples of pi/4 so the mod-2pi
correction algebra stays exact.

Classical input bits ride along as phase keys on the input nodes: input bit 1
means the logical input state is Z|+> = |->, while the register itself is
always prepared as |+>.  The key therefore flips the node's own corrected
outcome (equivalently, shifts its effective measurement angle by pi) and
nothing else.

Corrected (interactive) readout of an output node is its computational
readout XORed with the corrected outcome of its flow predecessor.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cached_property
from math import pi

import numpy as np

from .statevec import StateVector, new_plus_state

# Angle grid: angles are k * pi/4.  Pattern files and deferred corrections
# admit only the canonical set below; in-memory patterns may carry any k so
# that J(alpha) steps with alpha = pi/4 (measured at -pi/4) stay expressible.
CANONICAL_ANGLE_KS = (0, 1, 2, 4, 6)

# The pi/4 angle: its node needs a companion qubit.
_GADGET_K = 1

# Deferred-correction rule family per angle multiple: "z" corrects by the
# Z-dependency set only, "pred" also by the flow predecessor, "gadget" by the
# companion outcome instead.  Other multiples have no deferred rule.
_ANGLE_FAMILY = {0: "z", 4: "z", 2: "pred", 6: "pred", _GADGET_K: "gadget"}


class FlowError(ValueError):
    """Structurally broken flow (not a mere condition violation)."""


class PatternFormatError(ValueError):
    """Malformed pattern file; message carries the line number."""


@dataclass(frozen=True)
class OpenGraph:
    """Undirected graph with ordered input and output node lists."""

    nodes: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    inputs: tuple[int, ...]
    outputs: tuple[int, ...]

    def __post_init__(self):
        node_set = set(self.nodes)
        if len(node_set) != len(self.nodes):
            raise ValueError("duplicate node ids")
        for a, b in self.edges:
            if a == b:
                raise ValueError(f"self-loop edge on node {a}")
            if a not in node_set or b not in node_set:
                raise ValueError(f"edge ({a}, {b}) references unknown node")
        for name, group in (("input", self.inputs), ("output", self.outputs)):
            for v in group:
                if v not in node_set:
                    raise ValueError(f"{name} node {v} not in graph")
        object.__setattr__(self, "nodes", tuple(sorted(self.nodes)))
        object.__setattr__(
            self, "edges", tuple(sorted((min(a, b), max(a, b)) for a, b in self.edges))
        )

    def neighbours(self, v: int) -> set[int]:
        out = set()
        for a, b in self.edges:
            if a == v:
                out.add(b)
            elif b == v:
                out.add(a)
        return out

    @property
    def measured_nodes(self) -> tuple[int, ...]:
        outs = set(self.outputs)
        return tuple(v for v in self.nodes if v not in outs)


@dataclass(frozen=True)
class FlowMap:
    """Flow function over measured nodes plus a total measurement order."""

    f: dict[int, int]
    order: tuple[int, ...]

    def predecessor(self, v: int) -> int | None:
        """Node whose flow lands on v, if any (f is injective under flow)."""
        for x, fx in self.f.items():
            if fx == v:
                return x
        return None


def validate_flow(graph: OpenGraph, flow: FlowMap) -> tuple[bool, list[str]]:
    """Check the three flow conditions for every measured node.

    Structural problems (f not total over measured nodes, unknown ids, order
    mismatch) raise FlowError; condition violations are returned as a list.
    """
    node_set = set(graph.nodes)
    measured = set(graph.measured_nodes)
    non_inputs = node_set - set(graph.inputs)

    if set(flow.f) != measured:
        raise FlowError("flow map must be total over the measured (non-output) nodes")
    for x, fx in flow.f.items():
        if fx not in node_set:
            raise FlowError(f"f({x}) = {fx} is not a graph node")
    if sorted(flow.order) != sorted(measured):
        raise FlowError("measurement order must enumerate the measured nodes exactly")

    pos = {v: i for i, v in enumerate(flow.order)}

    def before(a: int, b: int) -> bool:
        # Output nodes are never measured: they sit after everything.
        ia = pos.get(a)
        ib = pos.get(b)
        if ia is None:
            return False
        if ib is None:
            return True
        return ia < ib

    violations = []
    for x in flow.order:
        fx = flow.f[x]
        if fx not in non_inputs:
            violations.append(f"f({x}) = {fx} must be a non-input node")
        nbrs = graph.neighbours(fx)
        if x not in nbrs:
            violations.append(f"f({x}) = {fx} is not a neighbour of {x}")
        if not before(x, fx):
            violations.append(f"{x} must be measured before f({x}) = {fx}")
        for y in nbrs:
            if y != x and not before(x, y):
                violations.append(
                    f"{x} must precede {y}, a neighbour of f({x}) = {fx}"
                )
    return (not violations), violations


def z_dependency_set(graph: OpenGraph, flow: FlowMap, i: int) -> set[int]:
    """Measured nodes j whose flow target neighbours i (and j != i)."""
    return {
        j for j, fj in flow.f.items() if j != i and i in graph.neighbours(fj)
    }


def flow_order_from_partial(graph: OpenGraph, f: dict[int, int]) -> tuple[int, ...]:
    """Topological total order induced by f, ties broken by ascending id.

    The partial order makes x precede f(x) and every other neighbour of f(x).
    """
    measured = [v for v in graph.nodes if v not in set(graph.outputs)]
    succ: dict[int, set[int]] = {v: set() for v in measured}
    indeg = {v: 0 for v in measured}
    for x, fx in f.items():
        after = {fx} | (graph.neighbours(fx) - {x})
        for y in after:
            if y in indeg and y not in succ[x]:
                succ[x].add(y)
                indeg[y] += 1
    heap = [v for v in measured if indeg[v] == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        v = heapq.heappop(heap)
        order.append(v)
        for y in sorted(succ[v]):
            indeg[y] -= 1
            if indeg[y] == 0:
                heapq.heappush(heap, y)
    if len(order) != len(measured):
        raise FlowError("flow admits no consistent measurement order (cycle)")
    return tuple(order)


@dataclass(frozen=True)
class PatternPlan:
    """What every run of a pattern reads, worked out once from its valid flow.

    ``wire_of`` is the register layout: graph nodes in id order, then one
    ``("companion", node)`` label per pi/4 node in flow order.  ``family``
    names each measured node's deferred-correction rule (None when its angle
    has none).  The dicts are shared by every run; do not mutate them.
    """

    pred: dict[int, int | None]
    zdeps: dict[int, frozenset[int]]
    wire_of: dict[int | tuple[str, int], int]
    family: dict[int, str | None]

    def byproducts(self, node: int, b: dict[int, int], keys: dict[int, int]):
        """Pending (X, Z) byproduct bits on node, from the corrected bits b."""
        p = self.pred[node]
        x = b[p] if p is not None else 0
        z = keys.get(node, 0)
        for j in self.zdeps[node]:
            z ^= b[j]
        return x, z

    def corrected_output(self, o: int, raw, b):
        """Output rule: raw readout XOR the predecessor's corrected bit."""
        p = self.pred[o]
        return raw if p is None else raw ^ b[p]


@dataclass(frozen=True)
class MeasurementPattern:
    """Open graph + flow + per-measured-node angle (integer multiples of pi/4)."""

    graph: OpenGraph
    flow: FlowMap
    angles: dict[int, int]

    def __post_init__(self):
        measured = set(self.graph.measured_nodes)
        if set(self.angles) != measured:
            raise ValueError("each measured node needs exactly one angle")
        for v, k in self.angles.items():
            if not isinstance(k, (int, np.integer)) or not 0 <= k <= 7:
                raise ValueError(f"angle of node {v} must be an integer in 0..7 (pi/4 units)")

    def angle_rad(self, v: int) -> float:
        return self.angles[v] * pi / 4

    @property
    def quarter_nodes(self) -> tuple[int, ...]:
        """Measured nodes at pi/4, i.e. the ones needing a companion qubit."""
        return tuple(v for v in self.flow.order if self.angles[v] == _GADGET_K)

    def validate(self) -> None:
        ok, violations = validate_flow(self.graph, self.flow)
        if not ok:
            raise FlowError("; ".join(violations))

    @cached_property
    def plan(self) -> PatternPlan:
        """The pattern's plan, validated and built on first use, then kept."""
        self.validate()
        graph, flow = self.graph, self.flow
        labels = [*graph.nodes, *(("companion", v) for v in self.quarter_nodes)]
        return PatternPlan(
            pred={v: flow.predecessor(v) for v in graph.nodes},
            zdeps={v: frozenset(z_dependency_set(graph, flow, v)) for v in graph.nodes},
            wire_of={label: w for w, label in enumerate(labels)},
            family={v: _ANGLE_FAMILY.get(k) for v, k in self.angles.items()},
        )


@dataclass
class OutcomeLedger:
    """Raw outcomes, corrected outcomes, companion outcomes, Z-dependency sets."""

    s: dict[int, int] = field(default_factory=dict)
    b: dict[int, int] = field(default_factory=dict)
    alpha: dict[int, int] = field(default_factory=dict)
    zdeps: dict[int, set[int]] = field(default_factory=dict)


def corrected_angle(phi: float, s_x: int, z_parity: int) -> float:
    """Adapted measurement angle (-1)^{s_x} * phi + pi * z_parity in [0, 2pi).

    Exact on the pi/4 grid; phi must sit on it.
    """
    k = _angle_to_k(phi)
    k_eff = _corrected_angle_k(k, s_x, z_parity)
    return k_eff * pi / 4


def _angle_to_k(phi: float) -> int:
    k = round(phi / (pi / 4))
    if abs(phi - k * pi / 4) > 1e-9:
        raise ValueError(f"angle {phi} is not a multiple of pi/4")
    return k % 8


def _corrected_angle_k(k: int, s_x: int, z_parity: int) -> int:
    return ((-k if s_x else k) + 4 * z_parity) % 8


def _check_input_bits(pattern: MeasurementPattern, input_bits) -> list[int]:
    bits = list(input_bits)
    if len(bits) != len(pattern.graph.inputs):
        raise ValueError(
            f"expected {len(pattern.graph.inputs)} input bits, got {len(bits)}"
        )
    if any(b not in (0, 1) for b in bits):
        raise ValueError("input bits must be 0 or 1")
    return bits


def input_keys(pattern: MeasurementPattern, input_bits) -> dict[int, int]:
    """Phase key per input node: key 1 hides logical |-> behind a |+> prep."""
    bits = _check_input_bits(pattern, input_bits)
    return dict(zip(pattern.graph.inputs, bits))


def _prepare_graph_state(
    pattern: MeasurementPattern, direct_input_bits: dict[int, int] | None = None
) -> StateVector:
    """All-|+> register entangled along the edges; optional physical Z on inputs."""
    qubit_of = pattern.plan.wire_of
    sv = new_plus_state(len(pattern.graph.nodes))
    if direct_input_bits:
        for v, bit in direct_input_bits.items():
            if bit:
                sv.apply_gate("z", (qubit_of[v],))
    for a, b in pattern.graph.edges:
        sv.apply_gate("cz", (qubit_of[a], qubit_of[b]))
    return sv


def run_interactive(
    pattern: MeasurementPattern,
    input_bits,
    rng: np.random.Generator,
    keep_quantum_output: bool = False,
):
    """Execute the pattern with interactively adapted angles.

    Returns ``(ledger, output_bits)``, or ``(ledger, output_state)`` with the
    pending corrections applied as gates when ``keep_quantum_output`` is set.
    Interactive outcomes are corrected outcomes by construction, so the
    ledger's ``s`` and ``b`` coincide.
    """
    plan = pattern.plan
    keys = input_keys(pattern, input_bits)
    sv = _prepare_graph_state(pattern)
    qubit_of = plan.wire_of
    ledger = OutcomeLedger(zdeps={i: plan.zdeps[i] for i in pattern.flow.order})

    for i in pattern.flow.order:
        x, z = plan.byproducts(i, ledger.b, keys)
        k_eff = _corrected_angle_k(pattern.angles[i], x, z)
        out = sv.measure_rotated(qubit_of[i], k_eff * pi / 4, rng)
        ledger.s[i] = out.bit
        ledger.b[i] = out.bit

    if keep_quantum_output:
        for o in pattern.graph.outputs:
            x, z = plan.byproducts(o, ledger.b, keys)
            if x:
                sv.apply_gate("x", (qubit_of[o],))
            if z:
                sv.apply_gate("z", (qubit_of[o],))
        return ledger, _extract_output_state(sv, pattern)

    output_bits = []
    for o in pattern.graph.outputs:
        out = sv.measure_z(qubit_of[o], rng)
        ledger.s[o] = out.bit
        ledger.b[o] = plan.corrected_output(o, out.bit, ledger.b)
        output_bits.append(ledger.b[o])
    return ledger, output_bits


def _extract_output_state(sv: StateVector, pattern: MeasurementPattern) -> StateVector:
    """Pure state on the output qubits once every other qubit is collapsed."""
    out_qubits = [pattern.plan.wire_of[o] for o in pattern.graph.outputs]
    n = sv.num_qubits
    amps = sv.amps
    # Each collapsed qubit is in a pure single-qubit state, so the register
    # factors as (measured part) x (outputs); slicing along the measured
    # bits of the largest amplitude leaves a vector proportional to the
    # output state.
    ref = int(np.argmax(np.abs(amps)))
    others_mask = 0
    for q in range(n):
        if q not in out_qubits:
            others_mask |= ((ref >> q) & 1) << q
    dim = 1 << len(out_qubits)
    reduced = np.zeros(dim, dtype=complex)
    for idx in range(dim):
        full = others_mask
        for pos, q in enumerate(out_qubits):
            full |= ((idx >> pos) & 1) << q
        reduced[idx] = amps[full]
    nrm = np.linalg.norm(reduced)
    if nrm < 1e-9:
        raise RuntimeError("output register is not in a product state with the rest")
    return StateVector(len(out_qubits), reduced / nrm)


def j_alpha_pattern(alpha: float) -> MeasurementPattern:
    """Two-node pattern for the J(alpha) generator.

    Node 1 is entangled to node 2 and measured at -alpha; the outcome drives
    an X correction on node 2.  J(0) realises the Hadamard.
    """
    k = _angle_to_k(alpha)
    graph = OpenGraph(nodes=(1, 2), edges=((1, 2),), inputs=(1,), outputs=(2,))
    flow = FlowMap(f={1: 2}, order=(1,))
    return MeasurementPattern(graph, flow, {1: (-k) % 8})


def j_branch_states(alpha: float, input_state: np.ndarray):
    """Both outcome branches of a J(alpha) step applied to a 1-qubit state.

    Returns [(probability, corrected_output_amplitudes), ...] for outcomes
    0 and 1, with the X correction already applied on the second branch.
    """
    psi = np.asarray(input_state, dtype=complex)
    branches = []
    for outcome in (0, 1):
        amps = np.zeros(4, dtype=complex)
        for b1 in (0, 1):
            for b0 in (0, 1):
                amps[b0 + 2 * b1] = psi[b0] * (1 / np.sqrt(2))
        sv = StateVector(2, amps)
        sv.apply_gate("cz", (0, 1))
        p = sv.project_rotated(0, -alpha, outcome)
        if p == 0.0:
            branches.append((0.0, None))
            continue
        # Qubit 0 is collapsed, so either of its columns carries the pure
        # qubit-1 state.
        col0 = sv.amps[[0, 2]]
        col1 = sv.amps[[1, 3]]
        vec = col0 if np.linalg.norm(col0) >= np.linalg.norm(col1) else col1
        vec = vec / np.linalg.norm(vec)
        if outcome == 1:
            vec = vec[::-1]
        branches.append((p, vec))
    return branches


# -- pattern files -------------------------------------------------------


def load_pattern(path) -> MeasurementPattern:
    """Parse the whitespace-delimited pattern format.

    Records: ``node <id>``, ``edge <a> <b>``, ``input <id...>``,
    ``output <id...>``, ``angle <id> <k>`` with k in {0,1,2,4,6} (pi/4
    units), ``flow <from> <to>``.  ``#`` starts a comment.  The measurement
    order is the flow's topological order with ascending-id tie-breaks.
    """
    nodes: list[int] = []
    edges: list[tuple[int, int]] = []
    inputs: list[int] = []
    outputs: list[int] = []
    angles: dict[int, int] = {}
    f: dict[int, int] = {}

    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            kind, args = tokens[0], tokens[1:]
            try:
                if kind == "node":
                    (v,) = map(int, args)
                    nodes.append(v)
                elif kind == "edge":
                    a, b = map(int, args)
                    edges.append((a, b))
                elif kind == "input":
                    inputs.extend(map(int, args))
                elif kind == "output":
                    outputs.extend(map(int, args))
                elif kind == "angle":
                    v, k = map(int, args)
                    if k not in CANONICAL_ANGLE_KS:
                        raise ValueError(
                            f"angle multiple {k} not in {sorted(CANONICAL_ANGLE_KS)}"
                        )
                    angles[v] = k
                elif kind == "flow":
                    a, b = map(int, args)
                    f[a] = b
                else:
                    raise ValueError(f"unknown record {kind!r}")
            except ValueError as exc:
                raise PatternFormatError(f"{path}:{lineno}: {exc}") from exc

    try:
        graph = OpenGraph(tuple(nodes), tuple(edges), tuple(inputs), tuple(outputs))
        order = flow_order_from_partial(graph, f)
        pattern = MeasurementPattern(graph, FlowMap(f, order), angles)
        pattern.plan  # validates the flow once; every run reuses the plan
    except ValueError as exc:
        raise PatternFormatError(f"{path}: {exc}") from exc
    return pattern


def save_pattern(pattern: MeasurementPattern, path) -> None:
    lines = []
    for v in pattern.graph.nodes:
        lines.append(f"node {v}")
    for a, b in pattern.graph.edges:
        lines.append(f"edge {a} {b}")
    lines.append("input " + " ".join(str(v) for v in pattern.graph.inputs))
    lines.append("output " + " ".join(str(v) for v in pattern.graph.outputs))
    for v in pattern.flow.order:
        lines.append(f"angle {v} {pattern.angles[v]}")
    for a, b in sorted(pattern.flow.f.items()):
        lines.append(f"flow {a} {b}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# -- random patterns (used by tests and selftest) ------------------------


def random_pattern(
    rng: np.random.Generator,
    max_measured: int = 5,
    angle_ks: tuple[int, ...] = CANONICAL_ANGLE_KS,
) -> MeasurementPattern:
    """Random chain-bundle pattern with a valid flow.

    Chains run left to right (flow along each chain); optional rungs between
    vertically adjacent nodes are kept only when the flow stays valid.
    """
    while True:
        n_chains = int(rng.integers(1, 4))
        cols = int(rng.integers(2, 4))
        if n_chains * (cols - 1) > max_measured:
            continue
        break

    node_id = {}
    nxt = 1
    for c in range(cols):
        for r in range(n_chains):
            node_id[(r, c)] = nxt
            nxt += 1
    nodes = tuple(node_id.values())
    edges = [
        (node_id[(r, c)], node_id[(r, c + 1)])
        for r in range(n_chains)
        for c in range(cols - 1)
    ]
    inputs = tuple(node_id[(r, 0)] for r in range(n_chains))
    outputs = tuple(node_id[(r, cols - 1)] for r in range(n_chains))
    f = {
        node_id[(r, c)]: node_id[(r, c + 1)]
        for r in range(n_chains)
        for c in range(cols - 1)
    }

    graph = OpenGraph(nodes, tuple(edges), inputs, outputs)
    order = flow_order_from_partial(graph, f)
    flow = FlowMap(f, order)

    # Try extra rungs, keeping each only if the flow survives.
    for c in range(cols):
        for r in range(n_chains - 1):
            if rng.random() < 0.5:
                candidate = edges + [(node_id[(r, c)], node_id[(r + 1, c)])]
                try:
                    g2 = OpenGraph(nodes, tuple(candidate), inputs, outputs)
                    order2 = flow_order_from_partial(g2, f)
                    ok, _ = validate_flow(g2, FlowMap(f, order2))
                except (ValueError, FlowError):
                    continue
                if ok:
                    edges = candidate
                    graph, flow = g2, FlowMap(f, order2)

    angles = {
        v: int(rng.choice(angle_ks)) for v in flow.order
    }
    return MeasurementPattern(graph, flow, angles)
