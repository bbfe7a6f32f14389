"""Reports and exact marginals read from tallies indexed by readout code.

Each test keeps the reading the tallies replaced, over readout strings, and
checks that both give the same numbers: the circuit modes' reports against
masked XORs and joints read character by character from the sampled
strings (``parity_postprocess`` now reads through the tallies itself), the
exact raw-output marginals against a parse of the law's keys.
"""

import numpy as np
import pytest

from qfhesim import compiler, noise
from qfhesim.circuit import ladder16, readout_strings, sample_counts
from qfhesim.harness import (
    CIRCUIT_MODES,
    ExperimentConfig,
    default_placement,
    input_bits_of,
    reference_pattern,
    run_experiment,
)
from qfhesim.pattern import random_pattern
from qfhesim.protocol import _walk_branches, server_output_marginals_exact

SHOTS = 64


def string_ones(counts, masks) -> list[int]:
    """Per mask, the shots whose readout characters at its positions XOR to 1."""
    return [
        sum(c for s, c in counts.items() if sum(s[p] == "1" for p in mask) % 2)
        for mask in masks
    ]


def string_report(config: ExperimentConfig) -> dict:
    """A circuit mode's report, read from the sampled readout strings."""
    pattern = config.pattern
    outputs = pattern.graph.outputs
    ones, joints, marginals = {}, {}, {}
    for value in config.inputs:
        compiled = compiler.compile_qfhe_to_circuit(
            pattern,
            input_bits_of(pattern, value),
            placement=config.placement,
            coupling=config.coupling,
        )
        rng = np.random.default_rng([config.seed, value, 0])
        if config.mode == "qfhe-circuit":
            counts = sample_counts(compiled.circuit, config.shots, rng)
        else:
            model = noise.NoiseModel()
            counts = noise.noisy_execute(compiled.circuit, model, config.shots, rng)
        ones[str(value)] = string_ones(counts, compiled.output_masks)
        raw = string_ones(counts, compiled.server_masks)
        marginals[str(value)] = [r / config.shots for r in raw]
        joint = joints[str(value)] = {}
        for s, c in counts.items():
            key = "".join(s[compiled.output_positions[o]] for o in outputs)
            joint[key] = joint.get(key, 0) + c
    return {
        "ones": ones,
        "joints": joints,
        "server_view": {"output_marginals": marginals},
    }


def circuit_cases() -> dict:
    """Name -> (pattern, routing options): the reference, unrouted and
    routed on the ladder, and 12 seeded random patterns."""
    ref = reference_pattern()
    routed = {"coupling": ladder16(), "placement": default_placement(ref)}
    cases = {"reference": (ref, {}), "reference-ladder16": (ref, routed)}
    for k in range(12):
        cases[f"random-{k}"] = (random_pattern(np.random.default_rng([61, k])), {})
    return cases


CIRCUIT_CASES = circuit_cases()


@pytest.mark.parametrize("mode", CIRCUIT_MODES)
@pytest.mark.parametrize("name", CIRCUIT_CASES)
def test_circuit_reports_equal_the_string_reading(mode, name):
    pattern, routing = CIRCUIT_CASES[name]
    inputs = list(range(1 << len(pattern.graph.inputs)))
    config = ExperimentConfig(
        mode=mode, pattern=pattern, inputs=inputs, shots=SHOTS, seed=5, **routing
    )
    report = run_experiment(config)[1]["report"]
    got = {key: report[key] for key in ("ones", "joints", "server_view")}
    assert got == string_report(config)


def parsed_marginals(pattern, bits) -> dict:
    """P(raw output readout = 1) per output, from the law's string keys."""
    law = readout_strings(_walk_branches(pattern, bits, "raw"))
    return {
        o: sum(p for key, p in law.items() if key[pos] == "1")
        for pos, o in enumerate(pattern.graph.outputs)
    }


def marginal_cases():
    ref = reference_pattern()
    for value in range(8):
        yield ref, input_bits_of(ref, value)
    rng = np.random.default_rng(67)
    for _ in range(50):
        pattern = random_pattern(rng)
        yield pattern, [int(b) for b in rng.integers(0, 2, len(pattern.graph.inputs))]


def test_exact_marginals_equal_the_parsed_law():
    for pattern, bits in marginal_cases():
        got = server_output_marginals_exact(pattern, bits)
        want = parsed_marginals(pattern, bits)
        assert got.keys() == want.keys()
        for o in want:
            assert abs(got[o] - want[o]) <= 1e-15, (bits, o, got[o], want[o])
