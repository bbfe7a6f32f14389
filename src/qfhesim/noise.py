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
from .statevec import StateVector

_PAULIS = ("x", "y", "z")

DEFAULT_P1 = 1e-3
DEFAULT_P2 = 1e-2
DEFAULT_P_RO = 1e-2
# Calibrated so the compiled reference run degrades to near-uniform outputs
# at the default gate errors; a modelling choice, not a measured figure.
DEFAULT_P_IDLE = 8e-3


_KEYS = ("p1", "p2", "p_ro", "p_idle")


def _check_probability(name: str, v: float) -> None:
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"{name} = {v} outside [0, 1]")


@dataclass(frozen=True)
class NoiseModel:
    """Per-gate-class Pauli error probabilities and readout flip probability."""

    p1: float = DEFAULT_P1
    p2: float = DEFAULT_P2
    p_ro: float = DEFAULT_P_RO
    p_idle: float = DEFAULT_P_IDLE

    def __post_init__(self):
        for name in _KEYS:
            _check_probability(name, getattr(self, name))

    @property
    def is_noiseless(self) -> bool:
        return self.p1 == self.p2 == self.p_ro == self.p_idle == 0.0


def load_noise_model(path) -> NoiseModel:
    """Parse ``p1 <v>`` style lines; missing keys keep their defaults.

    A malformed line, a value outside [0, 1] and a key given twice each
    raise ``ValueError`` with ``path:line``.
    """
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            try:
                if len(tokens) != 2 or tokens[0] not in _KEYS:
                    raise ValueError("expected 'p1|p2|p_ro|p_idle <value>'")
                key, text = tokens
                if key in values:
                    raise ValueError(f"{key} given twice")
                values[key] = float(text)
                _check_probability(key, values[key])
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
    ins_of = circ.instructions
    layers = [[ins_of[idx] for idx in layer] for layer in schedule_layers(circ)]
    measured_in = {
        ins.wires[0]: layer_no
        for layer_no, layer in enumerate(layers)
        for ins in layer
        if ins.gate == "measure"
    }

    # Per layer: its gates with their error probability, then the wires
    # idling through it (untouched by the layer and not yet measured).
    program: list[tuple[list, list[int]]] = []
    p1, p2 = model.p1, model.p2
    for layer_no, layer in enumerate(layers):
        touched = {w for ins in layer for w in ins.wires}
        gates = [
            (ins.gate, ins.wires, ins.param, p1 if len(ins.wires) == 1 else p2)
            for ins in layer
            if ins.gate != "measure"
        ]
        idle = [
            w
            for w in range(circ.num_wires)
            if w not in touched and measured_in.get(w, len(layers)) > layer_no
        ]
        program.append((gates, idle if model.p_idle > 0.0 else []))

    meas_wires = [ins.wires[0] for ins in circ.measurements]
    seeds = rng.integers(0, 2**63, size=shots)
    counts: Counter = Counter()
    for shot in range(shots):
        shot_rng = np.random.default_rng(seeds[shot])
        sv = StateVector(circ.num_wires)
        for gates, idle in program:
            for name, wires, param, p in gates:
                sv.apply_gate(name, wires, param)
                if p > 0.0:
                    depolarize(sv, wires, p, shot_rng)
            for w in idle:
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
