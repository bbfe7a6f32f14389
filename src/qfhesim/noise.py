"""Stochastic Pauli noise for terminal-measurement circuits.

Monte Carlo trajectories: after every gate a depolarizing event fires with
the gate-class probability and applies a uniformly random non-identity Pauli
on the touched wires; wires idling through a scheduling layer dephase with
probability ``p_idle``; readout bits flip with probability ``p_ro``.  The
all-zero model is exactly the noiseless channel.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .circuit import Circuit
from .statevec import GATES_1Q, StateVector, rz_matrix

_PAULIS = ("x", "y", "z")

DEFAULT_P1 = 1e-3
DEFAULT_P2 = 1e-2
DEFAULT_P_RO = 1e-2
# Calibrated so the compiled reference run degrades to near-uniform outputs
# at the default gate errors; a modelling choice, not a measured figure.
DEFAULT_P_IDLE = 8e-3


@dataclass(frozen=True)
class NoiseModel:
    """Per-gate-class Pauli error probabilities and readout flip probability."""

    p1: float = DEFAULT_P1
    p2: float = DEFAULT_P2
    p_ro: float = DEFAULT_P_RO
    p_idle: float = DEFAULT_P_IDLE

    def __post_init__(self):
        for name in ("p1", "p2", "p_ro", "p_idle"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} = {v} outside [0, 1]")

    @property
    def is_noiseless(self) -> bool:
        return self.p1 == self.p2 == self.p_ro == self.p_idle == 0.0


def load_noise_model(path) -> NoiseModel:
    """Parse ``p1 <v>`` style lines; missing keys keep their defaults."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            if len(tokens) != 2 or tokens[0] not in ("p1", "p2", "p_ro", "p_idle"):
                raise ValueError(f"{path}:{lineno}: expected 'p1|p2|p_ro|p_idle <value>'")
            try:
                values[tokens[0]] = float(tokens[1])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return NoiseModel(**values)


def depolarize(
    state: StateVector, wires, p: float, rng: np.random.Generator
) -> StateVector:
    """With probability p apply a uniformly random non-identity Pauli.

    One wire: one of X/Y/Z.  Two wires: one of the 15 non-identity Pauli
    pairs.
    """
    wires = tuple(wires)
    if len(wires) not in (1, 2):
        raise ValueError("depolarize acts on one or two wires")
    if p <= 0.0 or rng.random() >= p:
        return state
    if len(wires) == 1:
        state.apply_gate(_PAULIS[int(rng.integers(3))], wires)
        return state
    code = 1 + int(rng.integers(15))
    a, b = code & 3, code >> 2
    if a:
        state.apply_gate(_PAULIS[a - 1], (wires[0],))
    if b:
        state.apply_gate(_PAULIS[b - 1], (wires[1],))
    return state


def flip_readout(bit: int, p_ro: float, rng: np.random.Generator) -> int:
    if bit not in (0, 1):
        raise ValueError("readout bit must be 0 or 1")
    return bit ^ 1 if rng.random() < p_ro else bit


def schedule_layers(circ: Circuit) -> list[list[int]]:
    """Greedy as-soon-as-possible layering of the instruction list."""
    wire_free = [0] * circ.num_wires
    layers: list[list[int]] = []
    for idx, ins in enumerate(circ.instructions):
        layer = max(wire_free[w] for w in ins.wires)
        while len(layers) <= layer:
            layers.append([])
        layers[layer].append(idx)
        for w in ins.wires:
            wire_free[w] = layer + 1
    return layers


def _compact_wires(circ: Circuit) -> tuple[Circuit, list[int]]:
    """Drop wires no instruction touches.

    Untouched wires stay |0> throughout and idle dephasing acts trivially on
    them, so removing them is exact; it shrinks the simulated register for
    routed circuits with spare physical nodes.
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


def noisy_execute(
    circ: Circuit, model: NoiseModel, shots: int, rng: np.random.Generator
) -> Counter:
    """Sampled readout strings with per-shot Pauli insertion trajectories.

    Shots run on independent seed-derived streams, so the merged counts do
    not depend on execution order.
    """
    circ.require_terminal_measurements()
    if not circ.measurements:
        raise ValueError("circuit has no measurements")
    circ, _ = _compact_wires(circ)
    meas = circ.measurements
    layers = schedule_layers(circ)
    instructions = circ.instructions

    # Precompiled layer program: (matrix-or-gate, wires, error prob) rows.
    program: list[list[tuple]] = []
    measure_layer: dict[int, int] = {}
    for layer_no, layer in enumerate(layers):
        rows = []
        for idx in layer:
            ins = instructions[idx]
            if ins.gate == "measure":
                measure_layer[ins.wires[0]] = layer_no
                continue
            if ins.gate == "rz":
                rows.append(("1q", rz_matrix(ins.param), ins.wires, model.p1))
            elif len(ins.wires) == 1:
                rows.append(("1q", GATES_1Q[ins.gate], ins.wires, model.p1))
            else:
                rows.append((ins.gate, None, ins.wires, model.p2))
        program.append(rows)

    width = len(meas)
    meas_wires = [ins.wires[0] for ins in meas]
    idle_candidates = [
        [
            w
            for w in range(circ.num_wires)
            if measure_layer.get(w, len(layers)) > layer_no
        ]
        for layer_no in range(len(layers))
    ]
    touched_in_layer = [
        {w for idx in layer for w in instructions[idx].wires}
        for layer in layers
    ]

    seeds = rng.integers(0, 2**63, size=shots)
    counts: Counter = Counter()
    apply_idle = model.p_idle > 0.0
    for shot in range(shots):
        shot_rng = np.random.default_rng(seeds[shot])
        sv = StateVector(circ.num_wires)
        for layer_no, rows in enumerate(program):
            for kind, matrix, wires, p in rows:
                if kind == "1q":
                    sv._apply_1q(matrix, wires[0])
                elif kind == "cz":
                    sv._apply_cz(*wires)
                elif kind == "cnot":
                    sv._apply_cnot(*wires)
                else:
                    sv._apply_swap(*wires)
                if p > 0.0:
                    depolarize(sv, wires, p, shot_rng)
            if apply_idle:
                for w in idle_candidates[layer_no]:
                    if w in touched_in_layer[layer_no]:
                        continue
                    if shot_rng.random() < model.p_idle:
                        sv.apply_gate("z", (w,))
        probs = np.abs(sv.amps) ** 2
        probs /= probs.sum()
        outcome = int(np.searchsorted(np.cumsum(probs), shot_rng.random()))
        outcome = min(outcome, len(probs) - 1)
        string_bits = []
        for w in meas_wires:
            bit = (outcome >> w) & 1
            if model.p_ro > 0.0:
                bit = flip_readout(bit, model.p_ro, shot_rng)
            string_bits.append(str(bit))
        counts["".join(string_bits)] += 1
    return counts
