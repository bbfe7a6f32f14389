"""Lower a delegated pattern run onto a single terminal-measurement circuit.

The compiled circuit performs the whole protocol in one pass with no
mid-circuit conditioning:

* every graph node becomes a wire prepared |+>; pi/4 nodes get a companion
  wire filled by a CNOT copy (the Bell-pair construction);
* graph edges become CZ gates;
* each measured node is rotated into its default readout basis (T/S powers
  followed by H, an exact rz(-phi) prefix) and, for input nodes, flipped by
  an X when the input key is 1;
* the wire of a pi/4 node's flow predecessor already carries its corrected
  value, so it drives a controlled-S-dagger onto the companion wire,
  turning the conditional Y-basis readout into an unconditional one.  The
  companion readout then differs from the protocol's companion outcome by
  that same control bit, which the correction fan-in absorbs;
* correction parities are fanned into each measured wire with CNOT chains
  (sources are already corrected when used, by flow order), and output wires
  receive their predecessor's corrected bit the same way;
* every wire is measured terminally, in wire order.

After the fan-in each wire's readout equals its node's corrected outcome, so
the logical outputs are read directly off the output wires, and the raw
server-side readout of an output is recovered classically as the XOR of the
output wire and its fan-in sources.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuit import (
    Circuit,
    CouplingMap,
    Instruction,
    circuit,
    decompose_controlled_sdg,
    gate,
    measure,
    route,
    rz_as_named_gates,
)
from .pattern import MeasurementPattern, input_keys
from .protocol import _correct_all

# Symbolic readout values are frozensets of symbols read as their XOR; this
# symbol is the constant 1.
_ONE = frozenset({("one",)})


class CompileError(ValueError):
    pass


@dataclass
class CompiledProtocol:
    """Compiled circuit plus the classical bookkeeping needed to read it."""

    circuit: Circuit
    wire_of: dict  # node id or ("companion", node id) -> readout position
    bit_names: list[str]
    output_positions: dict[int, int]  # output node -> readout position
    output_masks: list[list[int]]  # corrected logical outputs, in output order
    server_masks: list[list[int]]  # raw (pre-correction) output readouts
    num_controlled_sdg: int
    placement: dict[int, int] | None = None

    @property
    def num_instructions(self) -> int:
        return len(self.circuit.instructions)


def compile_qfhe_to_circuit(
    pattern: MeasurementPattern,
    input_bits,
    placement: dict | None = None,
    coupling: CouplingMap | None = None,
    _skip_control_phase: bool = False,
) -> CompiledProtocol:
    """Build the single-pass circuit for one classical input.

    ``placement`` maps node ids and ``("companion", node)`` labels to
    physical nodes and is required with ``coupling``.  Symbolic XOR tracking
    asserts that every wire ends holding its node's corrected value.
    """
    plan = pattern.plan
    keys = input_keys(pattern, input_bits)
    wire_of = dict(plan.wire_of)

    # The plan's register preparation, then the protocol's measurements.
    ins: list[Instruction] = list(plan.prep.instructions)
    # Symbolic readout value per wire.
    value: dict[int, frozenset] = {}

    num_csdg = 0
    for i in pattern.flow.order:
        w = wire_of[i]
        k = pattern.angles[i]
        # Default-basis rotation: rz(-phi) then H, then the input key flip.
        ins.extend(rz_as_named_gates(-k % 8, w))
        ins.append(gate("h", w))
        sym = frozenset({("s", i)})
        if keys.get(i, 0):
            ins.append(gate("x", w))
            sym ^= _ONE

        sources: list[int] = []
        p = plan.pred[i]
        if plan.family[i] == "gadget":
            cw = wire_of[("companion", i)]
            comp_sym = frozenset({("alpha", i)})
            if p is not None:
                ins.extend(
                    decompose_controlled_sdg(
                        wire_of[p], cw, _skip_control_phase=_skip_control_phase
                    )
                )
                num_csdg += 1
                comp_sym ^= value[wire_of[p]]
            ins.append(gate("h", cw))
            # Readout of the companion equals the protocol's companion
            # outcome XOR the control bit (S vs S-dagger labels the basis
            # states oppositely), so fanning in both the companion wire and
            # the predecessor wire reproduces the correction rule.
            value[cw] = comp_sym
            sources.append(cw)
            if p is not None:
                sources.append(wire_of[p])
        elif plan.family[i] == "pred" and p is not None:
            sources.append(wire_of[p])
        for j in sorted(plan.zdeps[i]):
            sources.append(wire_of[j])

        for src in sources:
            ins.append(gate("cnot", src, w))
            sym ^= value[src]
        value[w] = sym

    for o in pattern.graph.outputs:
        w = wire_of[o]
        sym = frozenset({("s", o)})
        p = plan.pred[o]
        if p is not None:
            ins.append(gate("cnot", wire_of[p], w))
            sym ^= value[wire_of[p]]
        value[w] = sym

    _assert_corrected_values(pattern, keys, value)

    bit_names = []
    for label, w in wire_of.items():
        name = f"n{label}" if isinstance(label, int) else f"c{label[1]}"
        ins.append(measure(w, name))
        bit_names.append(name)

    circ = circuit(len(wire_of), ins)
    final_placement = None
    if coupling is not None:
        if placement is None:
            raise CompileError("routing requires a placement")
        for label in placement:
            if label not in wire_of:
                raise CompileError(f"placement names {label!r}, no wire of the pattern")
        phys = {}
        for label, w in wire_of.items():
            if label not in placement:
                raise CompileError(f"placement is missing {label!r}")
            phys[w] = placement[label]
        circ, final_placement = route(circ, coupling, phys)

    # Readout-string positions equal emission order, which matches wire
    # order and survives routing (bit names travel with their wires).
    output_positions = {o: wire_of[o] for o in pattern.graph.outputs}
    output_masks = [[wire_of[o]] for o in pattern.graph.outputs]
    server_masks = []
    for o in pattern.graph.outputs:
        mask = [wire_of[o]]
        if plan.pred[o] is not None:
            mask.append(wire_of[plan.pred[o]])
        server_masks.append(sorted(mask))

    return CompiledProtocol(
        circuit=circ,
        wire_of=wire_of,
        bit_names=bit_names,
        output_positions=output_positions,
        output_masks=output_masks,
        server_masks=server_masks,
        num_controlled_sdg=num_csdg,
        placement=final_placement,
    )


def _assert_corrected_values(pattern, keys, value) -> None:
    """Every wire must end holding its node's corrected outcome.

    The expected values are the protocol's own correction rule evaluated
    over symbols (``s``: raw outcome, ``alpha``: companion outcome), so the
    circuit is checked against the rule rather than a second copy of it.
    """
    s = {v: frozenset({("s", v)}) for v in pattern.graph.nodes}
    alpha = {v: frozenset({("alpha", v)}) for v in pattern.quarter_nodes}
    sym_keys = {v: _ONE if bit else frozenset() for v, bit in keys.items()}
    expected = _correct_all(pattern, s, alpha, sym_keys)
    for v, want in expected.items():
        got = value[pattern.plan.wire_of[v]]
        if got != want:
            raise CompileError(
                f"wire of node {v} tracks {sorted(got)}, expected corrected"
                f" {sorted(want)}"
            )
