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
from math import pi, sqrt

import numpy as np

from .circuit import Circuit, circuit, final_state, gate, read_records, write_text
from .statevec import ZERO_BRANCH_P, BranchBatch, ShotBatch, StateVector, new_plus_state

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
    """Malformed pattern file; message starts ``path:[line:]``."""


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
            if len(set(group)) != len(group):
                raise ValueError(f"an {name} node is listed twice: {group}")
            for v in group:
                if v not in node_set:
                    raise ValueError(f"{name} node {v} not in graph")
        edges = tuple(sorted((min(a, b), max(a, b)) for a, b in self.edges))
        for e, e_next in zip(edges, edges[1:]):
            if e == e_next:
                raise ValueError(f"edge {e} repeated; its two CZs would cancel")
        object.__setattr__(self, "nodes", tuple(sorted(self.nodes)))
        object.__setattr__(self, "edges", edges)

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
        if x not in succ:
            raise FlowError(f"flow from {x}, which is not a measured node")
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
    has none).  ``prep`` prepares that register from |0...0>: H on every
    node, a CNOT copy onto each companion (the Bell-pair construction), then
    CZ along every edge.  The dicts are shared by every run; do not mutate
    them.  ``register`` and ``graph_register``, the prepared states, are built
    on first use and read-only.
    """

    pred: dict[int, int | None]
    zdeps: dict[int, frozenset[int]]
    wire_of: dict[int | tuple[str, int], int]
    family: dict[int, str | None]
    prep: Circuit

    def byproducts(self, node: int, b: dict[int, int], keys: dict[int, int]):
        """Pending (X, Z) byproduct bits on node, from the corrected bits b."""
        p = self.pred[node]
        x = b[p] if p is not None else 0
        z = keys.get(node, 0)
        for j in self.zdeps[node]:
            z = z ^ b[j]  # bits may broadcast to a larger shape
        return x, z

    def corrected_output(self, o: int, raw, b):
        """Output rule: raw readout XOR the predecessor's corrected bit."""
        p = self.pred[o]
        return raw if p is None else raw ^ b[p]

    @cached_property
    def register(self) -> StateVector:
        """The state ``prep`` leaves: the protocol's register."""
        return _read_only(final_state(self.prep))

    @cached_property
    def graph_register(self) -> StateVector:
        """The interactive register: |+> on every graph node, ``prep``'s CZs."""
        nodes = sum(not isinstance(label, tuple) for label in self.wire_of)
        sv = new_plus_state(nodes)
        for ins in self.prep.gates:
            if ins.gate == "cz":
                sv.apply_gate("cz", ins.wires)
        return _read_only(sv)


def _read_only(sv: StateVector) -> StateVector:
    sv.amps.flags.writeable = False
    return sv


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
        wire_of = {label: w for w, label in enumerate(labels)}
        prep = [
            *(gate("h", wire_of[v]) for v in graph.nodes),
            *(
                gate("cnot", wire_of[v], wire_of[("companion", v)])
                for v in self.quarter_nodes
            ),
            *(gate("cz", wire_of[a], wire_of[b]) for a, b in graph.edges),
        ]
        return PatternPlan(
            pred={v: flow.predecessor(v) for v in graph.nodes},
            zdeps={v: frozenset(z_dependency_set(graph, flow, v)) for v in graph.nodes},
            wire_of=wire_of,
            family={v: _ANGLE_FAMILY.get(k) for v, k in self.angles.items()},
            prep=circuit(len(wire_of), prep),
        )


@dataclass
class OutcomeLedger:
    """Raw outcomes, corrected outcomes and companion outcomes of one run."""

    s: dict[int, int] = field(default_factory=dict)
    b: dict[int, int] = field(default_factory=dict)
    alpha: dict[int, int] = field(default_factory=dict)


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


def _corrected_angle_k(k: int, s_x, z_parity):
    """(-1)^{s_x} k + 4 z_parity mod 8; bits may be ints or per-row arrays."""
    return (k * (1 - 2 * s_x) + 4 * z_parity) % 8


def encode_input(input_bits) -> list[int]:
    """Phase keys hiding the classical input: bit 1 means logical |->.

    The register sent to the server is always all-|+>; the key alone tells
    the two apart, and only the client holds it.
    """
    bits = list(input_bits)
    if any(b not in (0, 1) for b in bits):
        raise ValueError("input bits must be 0 or 1")
    return bits


def _check_input_bits(pattern: MeasurementPattern, input_bits) -> list[int]:
    bits = encode_input(input_bits)
    if len(bits) != len(pattern.graph.inputs):
        raise ValueError(
            f"expected {len(pattern.graph.inputs)} input bits, got {len(bits)}"
        )
    return bits


def input_keys(pattern: MeasurementPattern, input_bits) -> dict[int, int]:
    """Phase key per input node: key 1 hides logical |-> behind a |+> prep."""
    bits = _check_input_bits(pattern, input_bits)
    return dict(zip(pattern.graph.inputs, bits))


def _with_input_flips(
    register: StateVector, wire_of: dict, direct_input_bits: dict[int, int] | None
) -> StateVector:
    """A writable copy of a plan register; physical Z on inputs with bit 1.

    A Z on a node commutes with its companion copy and the CZ edges and is an
    exact sign flip, so applying it last gives amplitudes equal to those of
    preparing |-> up front.
    """
    sv = register.copy()
    for v, bit in (direct_input_bits or {}).items():
        if bit:
            sv.apply_gate("z", (wire_of[v],))
    return sv


def interactive_draws(pattern: MeasurementPattern, measure_outputs: bool = True) -> int:
    """Uniforms an interactive shot reads: one per measured node, then outputs."""
    return len(pattern.graph.nodes) if measure_outputs else len(pattern.flow.order)


def interactive_rows(
    pattern: MeasurementPattern,
    input_bits,
    uniforms,
    measure_outputs: bool = True,
):
    """Interactive runs of one shot per row of `uniforms`, as one ShotBatch.

    Row k holds shot k's ``interactive_draws`` uniforms: one per measured
    node, in flow order, then one per output when ``measure_outputs`` is
    set.  Returns ``interactive_on``'s ``(s, b)`` and the batch, which holds
    only the output wires once the measured nodes are gone.
    """
    plan = pattern.plan
    keys = input_keys(pattern, input_bits)
    batch = ShotBatch(plan.graph_register, uniforms)
    return (*interactive_on(pattern, keys, batch, measure_outputs), batch)


def interactive_on(pattern: MeasurementPattern, keys, batch, measure_outputs=True):
    """The interactive sequence on a ShotBatch or a BranchBatch.

    Measured nodes in flow order at adapted angles, then the outputs when
    ``measure_outputs`` is set.  Returns ``(s, b)``: per node, the raw and
    the corrected bits of every row (equal on measured nodes).
    """
    plan = pattern.plan
    s: dict = {}
    b: dict = {}
    for i in pattern.flow.order:
        x, z = plan.byproducts(i, b, keys)
        k_eff = _corrected_angle_k(pattern.angles[i], x, z)
        s[i] = b[i] = batch.measure(plan.wire_of[i], k_eff * pi / 4)
    if measure_outputs:
        for o in pattern.graph.outputs:
            s[o] = batch.measure(plan.wire_of[o])
            b[o] = plan.corrected_output(o, s[o], b)
    return s, b


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
    measure_outputs = not keep_quantum_output
    uniforms = rng.random((1, interactive_draws(pattern, measure_outputs)))
    s, b, batch = interactive_rows(pattern, input_bits, uniforms, measure_outputs)
    ledger = OutcomeLedger(
        s={v: int(bits[0]) for v, bits in s.items()},
        b={v: int(bits[0]) for v, bits in b.items()},
    )
    outputs = pattern.graph.outputs
    if not keep_quantum_output:
        return ledger, [ledger.b[o] for o in outputs]
    # The batch holds the output wires alone; axis a of its (2,)*n view is
    # qubit n-1-a.  Put output k on qubit k, then apply the byproducts.
    n = len(outputs)
    axis_of = {w: n - 1 - q for q, w in enumerate(batch.wires)}
    amps = batch.amps[batch.row_of[0]].reshape((2,) * n)
    amps = amps.transpose([axis_of[plan.wire_of[o]] for o in reversed(outputs)])
    sv = StateVector(n, amps.reshape(-1))
    keys = input_keys(pattern, input_bits)
    for k, o in enumerate(outputs):
        x, z = plan.byproducts(o, ledger.b, keys)
        if x:
            sv.apply_gate("x", (k,))
        if z:
            sv.apply_gate("z", (k,))
    return ledger, sv


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
    0 and 1, with the X correction already applied on the second branch,
    or (0.0, None) for a branch of p <= ZERO_BRANCH_P: the two rows of a
    BranchBatch split on the input qubit.
    """
    psi = np.asarray(input_state, dtype=complex)
    sv = StateVector(2, np.tile(psi, 2) * sqrt(0.5))  # psi on qubit 0, |+> on 1
    batch = BranchBatch(sv.apply_gate("cz", (0, 1)))
    batch.measure(0, -alpha)
    branches = []
    for bit, vec in enumerate(batch.amps):
        p = float(np.vdot(vec, vec).real)
        vec = vec[::-1] if bit else vec  # the X correction
        branches.append((p, vec / sqrt(p)) if p > ZERO_BRANCH_P else (0.0, None))
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
    edges: set[tuple[int, int]] = set()
    inputs: list[int] = []
    outputs: list[int] = []
    angles: dict[int, int] = {}
    f: dict[int, int] = {}

    def record(tokens):
        kind, args = tokens[0], tokens[1:]
        if kind == "node":
            (v,) = map(int, args)
            if v in nodes:
                raise ValueError(f"node {v} given twice")
            nodes.append(v)
        elif kind == "edge":
            a, b = sorted(map(int, args))
            if (a, b) in edges:
                raise ValueError(f"edge between {a} and {b} given twice")
            edges.add((a, b))
        elif kind in ("input", "output"):
            group = inputs if kind == "input" else outputs
            for v in map(int, args):
                if v in group:
                    raise ValueError(f"{kind} node {v} given twice")
                group.append(v)
        elif kind == "angle":
            v, k = map(int, args)
            if k not in CANONICAL_ANGLE_KS:
                raise ValueError(
                    f"angle multiple {k} not in {sorted(CANONICAL_ANGLE_KS)}"
                )
            if v in angles:
                raise ValueError(f"angle of node {v} given twice")
            angles[v] = k
        elif kind == "flow":
            a, b = map(int, args)
            if a in f:
                raise ValueError(f"flow from {a} given twice")
            f[a] = b
        else:
            raise ValueError(f"unknown record {kind!r}")

    def build():
        graph = OpenGraph(tuple(nodes), tuple(edges), tuple(inputs), tuple(outputs))
        order = flow_order_from_partial(graph, f)
        pattern = MeasurementPattern(graph, FlowMap(f, order), angles)
        pattern.plan  # validates the flow once; every run reuses the plan
        return pattern

    return read_records(path, record, build, PatternFormatError)


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
    write_text(path, "\n".join(lines) + "\n")


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
