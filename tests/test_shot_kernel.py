"""The batched shot kernel against pinned per-shot records and the one-row runs.

The per-shot hashes (outcome records and ``qfhe`` transcripts) were
recorded from the scalar shot loop (one ``StateVector`` of the full register
per shot, rotated measurements through rz/H frames) before the batched
kernel replaced it, so they pin every shot's outcomes, not only the tallies.
``OneRowPerShot`` is the batched kernel as it was before shots shared their
rows; ``ShotBatch`` must read every shot's bits exactly as it does.
"""

import hashlib
import json

import numpy as np
import pytest

from qfhesim import harness, statevec, streams
from qfhesim.harness import (
    ExperimentConfig,
    input_bits_of,
    reference_pattern,
    run_experiment,
    shots_per_chunk,
)
from qfhesim.pattern import (
    FlowMap,
    MeasurementPattern,
    OpenGraph,
    flow_order_from_partial,
    input_keys,
    interactive_draws,
    interactive_on,
    random_pattern,
    run_interactive,
)
from qfhesim.protocol import encode_input, qfhe_draws, qfhe_on, run_qfhe_detailed
from qfhesim.statevec import (
    SHOT_CHUNK_BYTES,
    ZERO_BRANCH_P,
    ShotBatch,
    StateVector,
    halves,
    rows_per_chunk,
)


def _items(d):
    return [[k, v if isinstance(v, str) else int(v)] for k, v in sorted(d.items())]


def _interactive_record(pattern, bits, rng):
    ledger, out = run_interactive(pattern, bits, rng)
    return [_items(ledger.s), _items(ledger.b), [int(v) for v in out]]


def _qfhe_record(pattern, bits, rng):
    run = run_qfhe_detailed(pattern, bits, rng, want_transcript=False)
    view, client = run.server_view, run.client
    return [
        _items(view.raw_outcomes),
        _items(view.raw_output_bits),
        _items(client.alpha),
        _items(client.basis_choices),
        _items(client.ledger.b),
        [int(v) for v in run.output_bits],
    ]


def _transcript_record(pattern, bits, rng):
    return run_qfhe_detailed(pattern, bits, rng).transcript.serialize()


def _cases():
    """Reference x 8 inputs x 64 shots, then 20 random patterns x 16 shots."""
    ref = reference_pattern()
    for value in range(8):
        bits = input_bits_of(ref, value)
        for shot in range(64):
            yield ref, bits, np.random.default_rng([0, value, shot])
    for k in range(20):
        prng = np.random.default_rng([7, k])
        pat = random_pattern(prng, max_measured=6)
        bits = [int(prng.integers(2)) for _ in pat.graph.inputs]
        for shot in range(16):
            yield pat, bits, np.random.default_rng([1, k, shot])


PINS = {
    "interactive": (
        _interactive_record,
        "ce373fae0265545d5c0d8d463c2c7a213f8db6f0a8346d99f64a6ed4ca94376f",
    ),
    "qfhe": (
        _qfhe_record,
        "d42620e99d76356a0e91c7d041252e591567795f998f26601248138dd9bba086",
    ),
    "transcript": (
        _transcript_record,
        "2095983121e11cdde09f91f7354a26ce47f8162ce42cb4eafd833b4847a2394c",
    ),
}


@pytest.mark.parametrize("mode", list(PINS))
def test_per_shot_records_are_pinned(mode):
    record, want = PINS[mode]
    records = [record(pat, bits, rng) for pat, bits, rng in _cases()]
    got = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert got == want


def _one_row_tallies(mode, pattern, value, shots, seed):
    """Per-output ones, joint counts and raw-output ones from one-row runs."""
    bits = input_bits_of(pattern, value)
    ones, raw, joint = [0, 0, 0], [0, 0, 0], {}
    for shot in range(shots):
        rng = np.random.default_rng([seed, value, shot])
        if mode == "interactive":
            out = run_interactive(pattern, bits, rng)[1]
        else:
            run = run_qfhe_detailed(pattern, bits, rng, want_transcript=False)
            out = run.output_bits
            for k, o in enumerate(pattern.graph.outputs):
                raw[k] += run.server_view.raw_output_bits[o]
        ones = [a + b for a, b in zip(ones, out)]
        key = "".join(map(str, out))
        joint[key] = joint.get(key, 0) + 1
    return ones, joint, raw


@pytest.mark.parametrize("mode", ["interactive", "qfhe"])
@pytest.mark.parametrize("shots", [1, 31, 32, 33, 65])
def test_chunked_counts_equal_one_row_tallies(monkeypatch, mode, shots):
    ref = reference_pattern()
    kernel = "interactive_rows" if mode == "interactive" else "qfhe_rows"
    draws = interactive_draws(ref) if mode == "interactive" else qfhe_draws(ref)
    # A budget of 32 shots puts these shot counts on both sides of a chunk
    # boundary; chunks must be shots_per_chunk(draws) shots, the last shorter.
    per_shot = 8 * (statevec.RAW_TEMPORARIES * draws + statevec.SEED_HASH_WORDS)
    monkeypatch.setattr(statevec, "SHOT_CHUNK_BYTES", 32 * per_shot)
    assert shots_per_chunk(draws) == 32
    chunks = []
    real = getattr(harness, kernel)

    def spy(pattern, bits, uniforms):
        chunks.append(uniforms.shape)
        return real(pattern, bits, uniforms)

    monkeypatch.setattr(harness, kernel, spy)
    cfg = ExperimentConfig(mode=mode, pattern=ref, inputs=[3, 6], shots=shots, seed=11)
    table, stats = run_experiment(cfg)
    full, last = divmod(shots, 32)
    assert chunks == 2 * ([(32, draws)] * full + ([(last, draws)] if last else []))
    for value in (3, 6):
        ones, joint, raw = _one_row_tallies(mode, ref, value, shots, 11)
        assert table.ones[value] == ones
        assert table.joints[value] == joint
        if mode == "qfhe":
            marginals = stats["report"]["server_view"]["output_marginals"]
            assert marginals[str(value)] == [r / shots for r in raw]


@pytest.mark.parametrize("draws, shots", [(1, 4096), (9, 1365), (11, 1170), (20, 712)])
def test_shots_per_chunk_fit_the_byte_budget(draws, shots):
    # The seed hash's words and the LCG's temporaries per draw: 8 * (8 *
    # draws + 24) bytes a shot, more than the protocol's uniforms, row index
    # and three bit arrays per draw.  A 20-draw pattern still runs hundreds
    # of shots per chunk.
    assert shots_per_chunk(draws) == shots
    per_shot = 8 * (statevec.RAW_TEMPORARIES * draws + statevec.SEED_HASH_WORDS)
    assert shots * per_shot <= SHOT_CHUNK_BYTES
    assert 8 * (4 * draws + 1) <= per_shot


@pytest.mark.parametrize("n, rows", [(2, 16384), (11, 32), (16, 1), (20, 1)])
def test_rows_per_chunk_fit_the_byte_budget(n, rows):
    assert rows_per_chunk(n) == rows
    assert rows * 16 << n <= SHOT_CHUNK_BYTES or rows == 1


class OneRowPerShot:
    """The shot kernel before shots shared rows: one register row per shot."""

    def __init__(self, state: StateVector, uniforms):
        self.wires = list(range(state.num_qubits))
        self.amps = state.amps[None, :]
        self.uniforms = np.asarray(uniforms, dtype=float)
        self._column = 0

    def measure(self, wire, phi=None):
        q = self.wires.index(wire)
        a0, a1, half = halves(self.amps, q, phi)
        p1 = half * (a1.real**2 + a1.imag**2).sum(axis=(1, 2))
        bit = self.uniforms[:, self._column] < p1
        self._column += 1
        bit ^= np.where(bit, p1, 1.0 - p1) <= ZERO_BRANCH_P
        p = np.where(bit, p1, 1.0 - p1)
        kept = np.where(bit[:, None, None], a1, a0) * np.sqrt(half / p)[:, None, None]
        self.amps = kept.reshape(len(bit), -1)
        del self.wires[q]
        return bit.astype(int)


def _shot_bits(kernel, mode, pattern, value, uniforms, step):
    """Per-shot bits of every node, run on `kernel` in chunks of `step` shots."""
    bits = input_bits_of(pattern, value)
    parts = []
    for lo in range(0, len(uniforms), step):
        chunk = uniforms[lo : lo + step]
        if mode == "interactive":
            batch = kernel(pattern.plan.graph_register, chunk)
            parts.append(interactive_on(pattern, input_keys(pattern, bits), batch))
        else:
            batch = kernel(pattern.plan.register, chunk)
            keys = input_keys(pattern, encode_input(bits))
            parts.append(qfhe_on(pattern, keys, batch))
    return [
        {node: np.concatenate([part[k][node] for part in parts]) for node in parts[0][k]}
        for k in range(len(parts[0]))
    ]


def _assert_same_shot_bits(monkeypatch, mode, pattern, values, shots, seed, step, ref_step):
    """ShotBatch in chunks of `step` reads OneRowPerShot's bits; rows x columns <= 2^n."""
    sizes = []
    real = ShotBatch.measure

    def spy(self, wire, phi=None):
        sizes.append(self.amps.shape)
        bits = real(self, wire, phi)
        sizes.append(self.amps.shape)
        return bits

    monkeypatch.setattr(ShotBatch, "measure", spy)
    draws = interactive_draws(pattern) if mode == "interactive" else qfhe_draws(pattern)
    for value in values:
        uniforms = streams.uniforms(seed, value, 0, shots, draws)
        got = _shot_bits(ShotBatch, mode, pattern, value, uniforms, step)
        want = _shot_bits(OneRowPerShot, mode, pattern, value, uniforms, ref_step)
        assert [d.keys() for d in got] == [d.keys() for d in want]
        for g, w in zip(got, want):
            for node in w:
                assert np.array_equal(g[node], w[node]), (value, node)
    # Every wire is read once, so the register has `draws` qubits.
    assert sizes and all(rows * cols <= 1 << draws for rows, cols in sizes)


@pytest.mark.parametrize("mode", ["interactive", "qfhe"])
def test_shot_batch_reads_the_one_row_kernel_bits(monkeypatch, mode):
    # The reference pattern, 8 inputs x 2,000 shots in one batch; the
    # reference kernel runs in the chunks it used to run in.
    ref = reference_pattern()
    width = len(ref.graph.nodes) if mode == "interactive" else len(ref.plan.wire_of)
    _assert_same_shot_bits(
        monkeypatch, mode, ref, range(8), 2000, 0, 2000, rows_per_chunk(width)
    )


@pytest.mark.parametrize("mode", ["interactive", "qfhe"])
def test_shot_batch_chunks_read_the_one_row_kernel_bits(monkeypatch, mode):
    # 60 random patterns, every input: chunks of 7 against one batch.
    for k in range(60):
        pat = random_pattern(np.random.default_rng([23, k]), max_measured=6)
        values = range(1 << len(pat.graph.inputs))
        _assert_same_shot_bits(monkeypatch, mode, pat, values, 100, k, 7, 100)


def _grid_pattern(rows: int, cols: int) -> MeasurementPattern:
    """Row chains with rungs down the middle columns; pi/4 on two nodes."""
    node = {(r, c): 1 + c * rows + r for c in range(cols) for r in range(rows)}
    edges = [(node[r, c], node[r, c + 1]) for r in range(rows) for c in range(cols - 1)]
    edges += [(node[r, c], node[r + 1, c]) for c in (1, 2) for r in range(rows - 1)]
    f = {node[r, c]: node[r, c + 1] for r in range(rows) for c in range(cols - 1)}
    graph = OpenGraph(
        tuple(sorted(node.values())),
        tuple(edges),
        tuple(node[r, 0] for r in range(rows)),
        tuple(node[r, cols - 1] for r in range(rows)),
    )
    ks = (0, 2, 1, 4, 6, 2)
    angles = {v: ks[i % len(ks)] for i, v in enumerate(sorted(f))}
    return MeasurementPattern(graph, FlowMap(f, flow_order_from_partial(graph, f)), angles)


@pytest.mark.parametrize("mode", ["interactive", "qfhe"])
def test_shot_batch_reads_the_one_row_kernel_bits_on_a_wide_grid(monkeypatch, mode):
    grid = _grid_pattern(4, 4)
    assert len(grid.graph.nodes) == 16 and len(grid.plan.wire_of) == 18
    _assert_same_shot_bits(monkeypatch, mode, grid, [0, 11], 24, 5, 24, 1)


def test_quantum_output_follows_the_output_order():
    # Listing the outputs in another order only relabels the output qubits.
    for k in range(10):
        pat = random_pattern(np.random.default_rng([19, k]), max_measured=6)
        g = pat.graph
        outs = g.outputs[::-1]
        flipped = MeasurementPattern(
            OpenGraph(g.nodes, g.edges, g.inputs, outs), pat.flow, pat.angles
        )
        bits = [k % 2] * len(g.inputs)
        _, a = run_interactive(pat, bits, np.random.default_rng(k), True)
        _, b = run_interactive(flipped, bits, np.random.default_rng(k), True)
        n = len(outs)
        want = a.amps.reshape((2,) * n).transpose(range(n)[::-1]).reshape(-1)
        assert np.allclose(b.amps, want, atol=1e-12)
