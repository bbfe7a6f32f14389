"""The vectorised per-shot streams against numpy's own seeded generators.

``streams.uniforms`` must return ``default_rng([seed, value, shot]).random(draws)``
bit for bit.  The cases cover seeds at entropy-word boundaries and one of
three words, shot indices on both sides of 2**32 (where a shot index gains a
second entropy word), and every draw count a reference-pattern shot reads.
Over all cases the check compares 101,200 shots.  ``streams.raw_outputs``
must return ``PCG64(seed).random_raw(count)`` for seeds on both sides of
2**32 and 1,000 random ones, at the widths of a noise-sweep job and of a
routed noisy job.
"""

import inspect
import tracemalloc
import types

import numpy as np
import pytest

from qfhesim import statevec, streams
from qfhesim.harness import reference_pattern

SEEDS = [0, 2**32 - 1, 2**32, 2**63, 1180591620717411303424]  # the last is 2**70
DRAWS = range(1, len(reference_pattern().plan.wire_of) + 1)
SHOTS = 4600  # per range; two ranges per case
STARTS = (0, 2**32 - SHOTS // 2)  # below 2**32, and across it


def _mismatched_shots(uniforms, seed, value, start, stop, draws) -> int:
    got = uniforms(seed, value, start, stop, draws)
    want = np.array(
        [np.random.default_rng([seed, value, s]).random(draws) for s in range(start, stop)]
    )
    assert got.shape == want.shape == (stop - start, draws)
    return int(np.sum(np.any(got != want, axis=1)))


@pytest.mark.parametrize("draws", DRAWS)
def test_uniforms_equal_seeded_generators(draws):
    seed = SEEDS[draws % len(SEEDS)]  # 11 draw counts cycle through every seed
    for start in STARTS:
        stop = start + SHOTS
        assert _mismatched_shots(streams.uniforms, seed, draws, start, stop, draws) == 0


def test_uniforms_of_a_sub_range_are_its_rows():
    whole = streams.uniforms(3, 5, 2**32 - 3, 2**32 + 3, 4)
    assert np.array_equal(streams.uniforms(3, 5, 2**32 - 1, 2**32 + 1, 4), whole[2:4])
    assert streams.uniforms(3, 5, 7, 7, 4).shape == (0, 4)


RAW_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1]
RAW_WIDTHS = (1, 43, 657)  # one output; a noise-sweep job's; a routed job's


def _mismatched_seeds(raw_outputs, seeds, count) -> int:
    got = raw_outputs(np.array(seeds, dtype=np.uint64), count)
    want = [np.random.PCG64(int(seed)).random_raw(count) for seed in seeds]
    assert got.dtype == np.uint64 and got.shape == (len(seeds), count)
    return int(np.sum(np.any(got != np.array(want).reshape(got.shape), axis=1)))


@pytest.mark.parametrize("count", RAW_WIDTHS)
def test_raw_outputs_equal_seeded_bit_generators(count):
    seeds = RAW_SEEDS + np.random.default_rng(count).integers(0, 2**63, 1000).tolist()
    for lo in range(0, len(seeds), 256):
        assert _mismatched_seeds(streams.raw_outputs, seeds[lo : lo + 256], count) == 0


@pytest.mark.parametrize("count", RAW_WIDTHS[1:])
def test_raw_outputs_hold_at_most_their_temporaries(count):
    # A block of as many seeds as the budget gives ``noise._draws`` at this
    # width peaks within RAW_TEMPORARIES arrays of its own size.
    rows = statevec.SHOT_CHUNK_BYTES // (8 * statevec.RAW_TEMPORARIES * count)
    seeds = np.random.default_rng(count).integers(0, 2**63, size=rows)
    streams.raw_outputs(seeds, count)  # caches the draw constants
    tracemalloc.start()
    try:
        out = streams.raw_outputs(seeds, count)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= statevec.RAW_TEMPORARIES * out.nbytes <= statevec.SHOT_CHUNK_BYTES


@pytest.mark.parametrize("draws", [1, 11, 20])
def test_a_default_chunk_of_uniforms_fits_the_byte_budget(draws):
    # ``shots_per_chunk`` sizes the chunks ``harness`` asks ``uniforms`` for;
    # the seed hash and the LCG's temporaries must fit the budget too.
    shots = statevec.shots_per_chunk(draws)
    streams.uniforms(0, 0, 0, 1, draws)  # caches the draw constants
    tracemalloc.start()
    try:
        streams.uniforms(0, 0, 0, shots, draws)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= statevec.SHOT_CHUNK_BYTES


@pytest.mark.parametrize(
    "original, mutant",
    [
        # PCG64's increment must be odd.
        ("inc_l = (seq_l << np.uint64(1)) | np.uint64(1)", "inc_l = seq_l << np.uint64(1)"),
        # XSL-RR rotates by the top six bits of the state.
        ("rot = hi >> np.uint64(58)", "rot = hi >> np.uint64(57)"),
    ],
)
def test_stream_check_has_teeth(original, mutant):
    source = inspect.getsource(streams)
    assert source.count(original) == 1
    module = types.ModuleType("mutant_streams")
    exec(compile(source.replace(original, mutant), "<mutant>", "exec"), module.__dict__)
    assert _mismatched_shots(module.uniforms, 0, 3, 0, 200, 11) > 0
    for count in RAW_WIDTHS:
        assert _mismatched_seeds(module.raw_outputs, RAW_SEEDS, count) > 0
