"""The batched shot kernel against pinned per-shot records and the one-row runs.

The per-shot hashes (outcome records and ``qfhe`` transcripts) were
recorded from the scalar shot loop (one ``StateVector`` of the full register
per shot, rotated measurements through rz/H frames) before the batched
kernel replaced it, so they pin every shot's outcomes, not only the tallies.
"""

import hashlib
import json

import numpy as np
import pytest

from qfhesim import harness
from qfhesim.harness import (
    SHOT_CHUNK_BYTES,
    ExperimentConfig,
    input_bits_of,
    reference_pattern,
    rows_per_chunk,
    run_experiment,
)
from qfhesim.pattern import (
    MeasurementPattern,
    OpenGraph,
    random_pattern,
    run_interactive,
)
from qfhesim.protocol import run_qfhe_detailed


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
    chunks = []
    real = getattr(harness, kernel)

    def spy(pattern, bits, rngs):
        chunks.append(len(rngs))
        return real(pattern, bits, rngs)

    monkeypatch.setattr(harness, kernel, spy)
    cfg = ExperimentConfig(mode=mode, pattern=ref, inputs=[3, 6], shots=shots, seed=11)
    table, stats = run_experiment(cfg)
    width = len(ref.graph.nodes) if mode == "interactive" else len(ref.plan.wire_of)
    rows = rows_per_chunk(width)
    full, last = divmod(shots, rows)
    assert chunks == 2 * ([rows] * full + ([last] if last else []))
    for value in (3, 6):
        ones, joint, raw = _one_row_tallies(mode, ref, value, shots, 11)
        assert table.ones[value] == ones
        assert table.joints[value] == joint
        if mode == "qfhe":
            marginals = stats["report"]["server_view"]["output_marginals"]
            assert marginals[str(value)] == [r / shots for r in raw]


@pytest.mark.parametrize("n, rows", [(2, 16384), (11, 32), (16, 1), (20, 1)])
def test_rows_per_chunk_fit_the_byte_budget(n, rows):
    assert rows_per_chunk(n) == rows
    assert rows * 16 << n <= SHOT_CHUNK_BYTES or rows == 1


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
