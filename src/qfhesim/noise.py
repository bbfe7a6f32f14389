"""Stochastic Pauli noise for terminal-measurement circuits.

Monte Carlo trajectories: after every gate a depolarizing event fires with
the gate-class probability and applies a uniformly random non-identity Pauli
on the touched wires; wires idling through a scheduling layer dephase with
probability ``p_idle``; readout bits flip with probability ``p_ro``.  The
all-zero model is exactly the noiseless channel.

A Pauli event does not depend on the state, so each shot draws its events
first, read off the raw outputs of its ``PCG64(seed)`` stream, which
``streams.raw_outputs`` computes for a block of shots at once.  A Pauli
frame carries them forward: every Clifford gate moves a Pauli to a Pauli
exactly, and at a ``t``, ``tdg`` or ``rz`` gate on wire a the frame's X on
a is applied to the state just before the gate while the rest rides on (its
Z on a meets a diagonal gate).  At the readout the frame's Z part does
nothing and its X part XORs a mask into the readout index.  So a shot's
noise is a *core*, the set of blocking gates where an X lands, and a mask.
Shots with the same core share one simulation, and the cores run as the
rows of one array that splits only at the gates they flag.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, pack_readout, read_records, terminal_readout
from .statevec import StateVector, apply_rows, require_shots, rows_per_chunk
from .statevec import shots_per_chunk, split_rows

_PAULIS = ("x", "y", "z")
_BLOCKING = ("t", "tdg", "rz")

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

    def record(tokens):
        if len(tokens) != 2 or tokens[0] not in _KEYS:
            raise ValueError("expected 'p1|p2|p_ro|p_idle <value>'")
        key, text = tokens
        if key in values:
            raise ValueError(f"{key} given twice")
        values[key] = float(text)
        _check_probability(key, values[key])

    return read_records(path, record, lambda: NoiseModel(**values))


def depolarize(
    state: StateVector, wires, p: float, rng: np.random.Generator
) -> StateVector:
    """With probability p apply a uniformly random non-identity Pauli.

    One wire: one of X/Y/Z.  Two wires: one of the 15 non-identity Pauli
    pairs, code ``& 3`` on the first wire and ``>> 2`` on the second.
    """
    wires = tuple(wires)
    if len(wires) not in (1, 2):
        raise ValueError("depolarize acts on one or two wires")
    for w in wires:
        state._check_targets((w,), 1)
    if p <= 0.0 or rng.random() >= p:
        return state
    code = 1 + int(rng.integers(3 if len(wires) == 1 else 15))
    for w, a in zip(wires, (code & 3, code >> 2)):
        if a:
            apply_rows(state.amps[None, :], _PAULIS[a - 1], (w,))
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


def _program(circ: Circuit, model: NoiseModel):
    """One trajectory's steps and noise sites, in the scalar loop's order.

    Per scheduling layer: each gate, followed by its depolarizing site when
    its error probability is positive, then one dephasing site per wire
    idling through the layer (untouched by it and not yet measured) when
    ``p_idle`` is positive.  ``steps`` holds ``(gate, wires, param)``, with
    gate None at a site; ``sites`` holds ``(step, wires, p, fixed)`` in draw
    order, ``fixed`` being the code of a dephasing site's Z (3) and 0 at a
    depolarizing site, whose Pauli is drawn.
    """
    ins_of = circ.instructions
    layers = [[ins_of[idx] for idx in layer] for layer in schedule_layers(circ)]
    measured_in = {
        ins.wires[0]: layer_no
        for layer_no, layer in enumerate(layers)
        for ins in layer
        if ins.gate == "measure"
    }
    steps: list[tuple] = []
    sites: list[tuple] = []

    def site(wires, p, fixed):
        sites.append((len(steps), wires, p, fixed))
        steps.append((None, wires, None))

    for layer_no, layer in enumerate(layers):
        for ins in layer:
            if ins.gate == "measure":
                continue
            steps.append((ins.gate, ins.wires, ins.param))
            p = model.p1 if len(ins.wires) == 1 else model.p2
            if p > 0.0:
                site(ins.wires, p, 0)
        if model.p_idle > 0.0:
            touched = {w for ins in layer for w in ins.wires}
            for w in range(circ.num_wires):
                if w not in touched and measured_in.get(w, len(layers)) > layer_no:
                    site((w,), model.p_idle, 3)
    return steps, sites


def _draws(sites, raw, shots: int, leaf_draws: int):
    """Each shot's events ``((step, code), ...)`` and its ``leaf_draws``
    uniforms, read off its stream's raw outputs.

    ``raw(lo, hi, width)`` gives the first ``width`` raw outputs of shots
    lo..hi-1 as a (hi - lo, width) uint64 array.  The draws are bit for bit
    the scalar loop's on ``Generator(PCG64(seed))``: per site one
    ``random()``, and at a depolarizing event one ``integers(3)`` (one wire,
    codes 1..3) or ``integers(15)`` (two wires, codes 1..15); then
    ``random(leaf_draws)``.  numpy makes them so:

    - ``random()`` is ``(raw >> 11) * 2**-53``, one output each;
    - ``integers(k)`` is a buffered Lemire draw on a 32-bit half h: a fresh
      output gives its low half and keeps its high half for the next
      integer draw (``random()`` leaves it kept).  The value is
      ``(h * k) >> 32``, and h is redrawn while ``h * k mod 2**32`` is below
      ``(2**32 - k) % k``, which is 1 for k = 3 and 15; k being odd, that
      is h = 0 alone.

    These are numpy internals (``next_double``, PCG64's ``next_uint32`` and
    the bounded-integer fill) that NEP 19 does not promise to keep;
    ``tests/test_trajectory_walk.py`` compares this pass with the
    generator's own draws, on crafted states with a zero half too.

    The outputs come in blocks of ``shots_per_chunk(width)`` shots.  One
    comparison of a block's site uniforms with the site probabilities finds
    the shots with an event; Python visits only those.  A fresh integer
    draw moves a shot's later sites one output on, so they are compared
    again; a shot whose draws run past the spare outputs reads a longer
    prefix of its stream.
    """
    from .streams import doubles  # on first use, as in _readouts

    n = len(sites)
    step_of, wires_of, p_of, fixed_of = zip(*sites) if sites else ((),) * 4
    p = np.array(p_of, dtype=float)
    need = n + leaf_draws
    width = need + 16  # spare outputs for a few integer draws

    def shot_draws(shot, row, u, hits):  # hits: the sites that fire at offset 0
        events, off, kept, first = [], 0, None, 0
        while True:
            for j in hits.tolist():
                j += first
                code, fresh = fixed_of[j], False
                while not code:
                    if kept is None:
                        if need + off >= len(row):
                            row = raw(shot, shot + 1, len(row) + need)[0]
                            u = doubles(row)
                        h = int(row[j + 1 + off])
                        half, kept, off, fresh = h & 0xFFFFFFFF, h >> 32, off + 1, True
                    else:
                        half, kept = kept, None
                    if half:
                        code = 1 + (half * (3 if len(wires_of[j]) == 1 else 15) >> 32)
                events.append((step_of[j], code))
                if fresh:
                    break
            else:
                return tuple(events), u[n + off : need + off]
            # Sites j+1.. read their uniforms ``off`` outputs on now.
            first = j + 1
            hits = (u[first + off : n + off] < p[first:]).nonzero()[0]

    signatures = [()] * shots
    uniforms = np.empty((shots, leaf_draws))
    block = shots_per_chunk(width)
    for lo in range(0, shots, block):
        rows = raw(lo, min(lo + block, shots), width)
        u_rows = doubles(rows)
        uniforms[lo : lo + len(rows)] = u_rows[:, n:need]
        hit = u_rows[:, :n] < p
        for r in np.flatnonzero(hit.any(axis=1)).tolist():
            signatures[lo + r], uniforms[lo + r] = shot_draws(
                lo + r, rows[r], u_rows[r], hit[r].nonzero()[0]
            )
    return signatures, uniforms


def _pauli_frames(num_wires: int, steps) -> dict:
    """Where a Pauli inserted at each site ends up, from one backward sweep.

    Maps each site's step to one ``(x, z)`` pair per wire of the site: the
    entries of X and Z on that wire.  An entry is an int: its low
    ``num_wires`` bits are the X part the Pauli has at the end of the
    circuit, and each higher bit is one ``t``/``tdg``/``rz`` gate where the
    Pauli puts an X on the gate's wire, applied just before that gate; the
    last blocking gate has the lowest of those bits.  Split the frame at a
    blocking gate g on wire a into X on a and the rest: the rest commutes
    with g up to sign (its Z on a meets a diagonal gate) and rides on, so X
    on a just before g has the entry of g's bit alone.  Conjugation by a
    Clifford gate and that split are linear over GF(2), so a product of
    Paulis has the XOR of their entries.  ``rz`` blocks at every angle:
    ``rz(pi/2)`` takes its phase from ``exp(1j*pi/2)``, which is not exactly
    ``1j``.
    """
    x = [1 << w for w in range(num_wires)]
    z = [0] * num_wires
    block = 1 << num_wires
    frames = {}
    for step in range(len(steps) - 1, -1, -1):
        name, wires, _ = steps[step]
        if name is None:
            frames[step] = [(x[w], z[w]) for w in wires]
            continue
        a, b = wires[0], wires[-1]
        if name == "h":
            x[a], z[a] = z[a], x[a]
        elif name in ("s", "sdg"):  # X -> XZ
            x[a] ^= z[a]
        elif name in _BLOCKING:
            x[a] = block
            block <<= 1
        elif name == "cnot":  # X_c -> X_c X_t, Z_t -> Z_c Z_t
            x[a] ^= x[b]
            z[b] ^= z[a]
        elif name == "cz":  # X_a -> X_a Z_b
            x[a], x[b] = x[a] ^ z[b], x[b] ^ z[a]
        elif name == "swap":
            x[a], x[b], z[a], z[b] = x[b], x[a], z[b], z[a]
        # x, y and z leave every Pauli as it is, up to sign.
    return frames


def _frame_entry(frame, code: int) -> int:
    """The entry of Pauli ``code`` at a site whose wires have ``frame``."""
    entry = 0
    for (x, z), a in zip(frame, (code & 3, code >> 2)):
        if a in (1, 2):  # X or Y
            entry ^= x
        if a in (2, 3):  # Y or Z
            entry ^= z
    return entry


def _walk(num_wires: int, steps, cores):
    """Yield each distinct core with a copy of the amplitudes at the end of
    its trajectory (a view would keep its chunk's rows alive while the next
    chunk runs).  A core is an int over the blocking gates, as the high bits
    of a ``_pauli_frames`` entry: each bit set is an ``x`` on the gate's
    wire just before it.  The site steps are skipped.

    Breadth-first, over chunks of the cores sorted high to low, so those
    that flag the same early gates are neighbours and each chunk's first
    flagged gate comes no earlier than the last chunk's.  Every chunk starts
    from one shared trunk row, the unflagged trajectory advanced to that
    gate.  Each row of ``rows`` holds one distinct set of the chunk's flags
    so far, and each gate, one ``apply_rows`` call, runs once per such set;
    at a flagged gate ``split_rows`` makes them one per (flag, parent row),
    the flagged ones last, and those take the ``x``.  A chunk of
    ``rows_per_chunk(num_wires + 1)`` cores keeps the rows and that copy
    within ``SHOT_CHUNK_BYTES``, beside the trunk row.  Every row goes
    through the scalar loop's elementwise operations.
    """
    gates = [(name, wires, param) for name, wires, param in steps if name is not None]
    blocking = [g for g, (name, _, _) in enumerate(gates) if name in _BLOCKING]
    bit_of = {g: 1 << k for k, g in enumerate(reversed(blocking))}
    cores = sorted(cores, reverse=True)
    size = rows_per_chunk(num_wires + 1)
    trunk = np.zeros((1, 1 << num_wires), dtype=complex)
    trunk[0, 0] = 1.0
    done = 0
    for lo in range(0, len(cores), size):
        chunk = cores[lo : lo + size]
        top = chunk[0].bit_length()
        start = blocking[len(blocking) - top] if top else len(gates)
        for name, wires, param in gates[done:start]:
            apply_rows(trunk, name, wires, param)
        done = start
        rows = trunk.copy()
        row_of = np.zeros(len(chunk), dtype=np.int64)
        flagged = 0
        for core in chunk:
            flagged |= core
        for g in range(start, len(gates)):
            name, wires, param = gates[g]
            bit = bit_of.get(g, 0)
            if bit & flagged:
                flag = np.array([core & bit != 0 for core in chunk])
                parent, kept, row_of = split_rows(row_of, flag, len(rows))
                rows = rows[parent]
                apply_rows(rows[np.searchsorted(kept, 1) :], "x", wires)
            apply_rows(rows, name, wires, param)
        for core, row in zip(chunk, row_of):
            yield core, rows[row].copy()


def _readouts(
    circ: Circuit, model: NoiseModel, shots: int, rng: np.random.Generator
) -> list[str]:
    """Each shot's readout string, in shot order (see ``noisy_execute``).

    A shot's noise is the XOR of its events' ``_pauli_frames`` entries: its
    core and its mask.  ``_walk`` simulates each distinct core once, and
    each leaf takes ``|amps|**2`` once and reads it as ``p0[idx ^ mask]``
    for each mask.  That array equals the scalar loop's ``|amps|**2`` bit
    for bit: every Clifford kind in ``apply_rows`` acts through
    permutations, negations and products with +-1 or +-i, which commute
    exactly with a Pauli, and a Pauli without X on the wire of a ``t``,
    ``tdg`` or ``rz`` commutes with it up to an exact negation.  So the
    sum, the cdf and every readout code are the scalar loop's, read for
    all shots at once.
    """
    require_shots(shots)
    circ, readout, width = terminal_readout(circ)
    n = circ.num_wires
    steps, sites = _program(circ, model)

    from .streams import raw_outputs  # on first use: `import qfhesim` skips it

    # Each shot's draws in the scalar loop's order: its events, then the
    # uniform that picks the basis state, then one per readout flip.
    seeds = rng.integers(0, 2**63, size=shots)
    leaf_draws = 1 + (width if model.p_ro > 0.0 else 0)
    signatures, uniforms = _draws(
        sites, lambda lo, hi, count: raw_outputs(seeds[lo:hi], count), shots, leaf_draws
    )

    # shots_of[core][mask]: the shots with that core and readout mask.
    frames = _pauli_frames(n, steps) if any(signatures) else {}
    shots_of: dict[int, dict[int, list[int]]] = {}
    for shot, events in enumerate(signatures):
        entry = 0
        for step, code in events:
            entry ^= _frame_entry(frames[step], code)
        core, mask = divmod(entry, 1 << n)
        shots_of.setdefault(core, {}).setdefault(mask, []).append(shot)

    outcome = np.empty(shots, dtype=np.int64)
    for core, amps in _walk(n, steps, shots_of):
        p0 = np.abs(amps) ** 2
        for mask, group in shots_of[core].items():
            probs = p0[np.arange(1 << n) ^ mask] if mask else p0
            cdf = np.cumsum(probs / probs.sum())
            outcome[group] = np.searchsorted(cdf, uniforms[group, 0])
    # Uniform 1 + pos flips string position pos; there are no flip columns
    # when p_ro is 0.
    flips = pack_readout((uniforms[:, 1:] < model.p_ro).T)
    codes = readout[np.minimum(outcome, len(readout) - 1)] ^ flips
    return [format(c, f"0{width}b") for c in codes.tolist()]


def noisy_execute(
    circ: Circuit, model: NoiseModel, shots: int, rng: np.random.Generator
) -> Counter:
    """Sampled readout strings with per-shot Pauli insertion trajectories.

    Shots run on independent seed-derived streams, so the merged counts do
    not depend on execution order.  A shot's events are drawn first and
    carried through a Pauli frame to an XOR mask on its readout index and a
    set of blocking gates that take an ``x``; each distinct set is simulated
    once (``_walk``).  Every shot's string equals that of simulating it
    alone.  ``shots`` must be an integer of at least 1.
    """
    return Counter(_readouts(circ, model, shots, rng))
