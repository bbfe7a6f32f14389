"""Trajectory noise channels and noisy execution."""

import re

import numpy as np
import pytest
from fuzzing import READER_FUZZ
from hypothesis import given, strategies as st

from qfhesim.circuit import circuit, exact_readout_distribution, gate, measure
from qfhesim.harness import two_sample_chi2_p
from qfhesim.noise import (
    NoiseModel,
    depolarize,
    flip_readout,
    load_noise_model,
    noisy_execute,
    schedule_layers,
)
from qfhesim.protocol import total_variation
from qfhesim.statevec import StateVector, new_plus_state


def test_model_validation_and_defaults():
    m = NoiseModel()
    assert m.p1 == 1e-3 and m.p2 == 1e-2 and m.p_ro == 1e-2
    assert NoiseModel(0, 0, 0, 0).is_noiseless
    with pytest.raises(ValueError):
        NoiseModel(p1=1.5)


def test_noise_config_file(tmp_path):
    path = tmp_path / "noise.txt"
    path.write_text("# gate errors\np1 0.002\np_ro 0.05\n", encoding="utf-8")
    m = load_noise_model(path)
    assert m.p1 == 0.002 and m.p_ro == 0.05
    assert m.p2 == 1e-2 and m.p_idle == NoiseModel().p_idle
    path.write_text("p9 1\n", encoding="utf-8")
    with pytest.raises(ValueError, match=":1"):
        load_noise_model(path)


@pytest.mark.parametrize(
    "text, where",
    [
        ("p1 2\n", ":1: p1 = 2.0 outside [0, 1]"),
        ("p2 0.1\n\n# again\np_ro -0.5\n", ":4: p_ro = -0.5 outside [0, 1]"),
        ("p1 0.1\np1 0.2\n", ":2: p1 given twice"),
        ("p_idle nan\n", ":1: p_idle = nan outside [0, 1]"),
        ("p2 x\n", ":1: could not convert string to float"),
        ("p2\n", ":1: expected 'p1|p2|p_ro|p_idle <value>'"),
        ("p1 0.1\n\xff\n", ":2: 'utf-8' codec can't decode"),
    ],
)
def test_noise_errors_name_path_and_line(tmp_path, text, where):
    path = tmp_path / "noise.txt"
    path.write_text(text, encoding="latin-1")
    with pytest.raises(ValueError) as err:
        load_noise_model(path)
    assert str(err.value).startswith(f"{path}{where}")


NOISE_KEYS = ("p1", "p2", "p_ro", "p_idle")
NOISE_TOKENS = [*NOISE_KEYS, "p9", "0", "0.5", "1", "2", "-1e-3", "nan", "#", "x"]


@READER_FUZZ
@given(st.lists(st.lists(st.sampled_from(NOISE_TOKENS), max_size=3), max_size=6))
def test_noise_reader_fuzz(tmp_path, lines):
    path = tmp_path / "noise.txt"
    path.write_text("\n".join(" ".join(tokens) for tokens in lines) + "\n")
    try:
        model = load_noise_model(path)
    except ValueError as exc:
        assert re.match(rf"{re.escape(str(path))}:[1-9][0-9]*: ", str(exc)), exc
    else:
        assert all(0.0 <= getattr(model, k) <= 1.0 for k in NOISE_KEYS)


def test_depolarize_zero_probability_is_identity():
    rng = np.random.default_rng(51)
    sv = new_plus_state(2)
    before = sv.amps.copy()
    for _ in range(50):
        depolarize(sv, (0,), 0.0, rng)
        depolarize(sv, (0, 1), 0.0, rng)
    assert np.array_equal(sv.amps, before)


def test_depolarize_certain_event_is_uniform_over_paulis():
    # At p = 1 exactly one of X/Y/Z fires, each a third of the time.  On
    # |0> the X and Y branches flip the populations and Z does not, so the
    # flip rate must sit at 2/3.
    rng = np.random.default_rng(52)
    trials = 30_000
    flips = 0
    for _ in range(trials):
        sv = StateVector(1)
        depolarize(sv, (0,), 1.0, rng)
        flips += round(sv.probability_one(0))
    assert abs(flips / trials - 2 / 3) < 0.01


def test_depolarize_two_wire_pairs_uniform():
    # 15 non-identity Pauli pairs: on |00> a wire's bit flips iff its half
    # is X or Y, so each marginal flip rate is 8/15 and the joint 4/15.
    rng = np.random.default_rng(59)
    trials = 30_000
    flips = np.zeros(2)
    both = 0
    for _ in range(trials):
        sv = StateVector(2)
        depolarize(sv, (0, 1), 1.0, rng)
        f0 = round(sv.probability_one(0))
        f1 = round(sv.probability_one(1))
        flips += (f0, f1)
        both += f0 & f1
    assert np.all(np.abs(flips / trials - 8 / 15) < 0.01)
    assert abs(both / trials - 4 / 15) < 0.01
    with pytest.raises(ValueError):
        depolarize(StateVector(3), (0, 1, 2), 0.5, rng)


def test_depolarize_channel_average():
    # Single-qubit depolarizing at p maps <Z> to (1 - 4p/3) <Z>; on |0> at
    # p = 0.3 the one-probability is (1 - (1 - 4p/3)) / 2 = 0.2.
    rng = np.random.default_rng(53)
    p = 0.3
    trials = 100_000
    ones = 0
    for _ in range(trials):
        sv = StateVector(1)
        depolarize(sv, (0,), p, rng)
        ones += round(sv.probability_one(0))
    rate = ones / trials
    assert abs(rate - 0.2) < 0.01


def test_flip_readout():
    rng = np.random.default_rng(54)
    assert flip_readout(0, 0.0, rng) == 0
    assert flip_readout(1, 1.0, rng) == 0
    flips = sum(flip_readout(0, 0.01, rng) for _ in range(100_000))
    assert abs(flips / 100_000 - 0.01) < 0.002


def test_schedule_layers_packs_disjoint_gates():
    c = circuit(
        3,
        [gate("h", 0), gate("h", 1), gate("cnot", 0, 1), gate("h", 2), measure(2, "a")],
    )
    layers = schedule_layers(c)
    assert layers[0] == [0, 1, 3]
    assert layers[1] == [2, 4]


def bell_circuit():
    return circuit(
        2, [gate("h", 0), gate("cnot", 0, 1), measure(0, "a"), measure(1, "b")]
    )


def test_zero_noise_matches_noiseless_statistics():
    c = bell_circuit()
    rng = np.random.default_rng(55)
    shots = 10_000
    counts = noisy_execute(c, NoiseModel(0, 0, 0, 0), shots, rng)
    assert set(counts) <= {"00", "11"}
    exact = exact_readout_distribution(c)
    ones_noisy = sum(v for k, v in counts.items() if k[0] == "1")
    p = two_sample_chi2_p(ones_noisy, shots, int(exact.get("11", 0) * shots), shots)
    assert p > 0.01


def test_readout_noise_only():
    c = circuit(1, [measure(0, "a")])
    rng = np.random.default_rng(56)
    counts = noisy_execute(c, NoiseModel(0, 0, 1.0, 0), 100, rng)
    assert counts == {"1": 100}


def test_noisy_execute_requires_terminal_measurements():
    c = circuit(1, [measure(0, "a"), gate("h", 0)])
    with pytest.raises(ValueError):
        noisy_execute(c, NoiseModel(), 1, np.random.default_rng(0))


@pytest.mark.parametrize("shots", [0, -1, 2.5, True, "3"])
def test_noisy_execute_rejects_fewer_than_one_shot(shots):
    c = circuit(1, [gate("h", 0), measure(0, "a")])
    rng = np.random.default_rng(57)
    message = re.escape(f"shots = {shots!r} is not a positive integer")
    with pytest.raises(ValueError, match=message):
        noisy_execute(c, NoiseModel(), shots, rng)
    assert rng.random() == np.random.default_rng(57).random()


def test_noisy_execute_takes_a_numpy_integer_shot_count():
    c = circuit(2, [gate("h", 0), gate("cnot", 0, 1), measure(0, "a"), measure(1, "b")])
    got = noisy_execute(c, NoiseModel(), np.int64(3), np.random.default_rng(58))
    assert got == noisy_execute(c, NoiseModel(), 3, np.random.default_rng(58))


def _joint(counts, shots):
    return {k: v / shots for k, v in counts.items()}


def test_degradation_monotone_in_each_parameter():
    # TV from the exact noiseless distribution grows with each probability
    # alone, averaged over seeds.  Wires idle in superposition so the
    # dephasing parameter has something to bite on.
    c = circuit(
        3,
        [
            gate("h", 0),
            gate("h", 1),
            gate("h", 2),
            gate("cnot", 0, 1),
            gate("t", 1),
            gate("cnot", 1, 2),
            gate("h", 0),
            gate("h", 1),
            gate("h", 2),
            measure(0, "a"),
            measure(1, "b"),
            measure(2, "c"),
        ],
    )
    exact = exact_readout_distribution(c)
    shots = 1500
    grids = {
        "p1": (0.0, 0.05, 0.3),
        "p2": (0.0, 0.05, 0.3),
        "p_ro": (0.0, 0.05, 0.3),
        "p_idle": (0.0, 0.1, 0.5),
    }
    for param_idx, (name, grid) in enumerate(grids.items()):
        means = []
        for level in grid:
            tvs = []
            for seed in range(5):
                model = NoiseModel(**{"p1": 0, "p2": 0, "p_ro": 0, "p_idle": 0, name: level})
                rng = np.random.default_rng([57, param_idx, seed, int(level * 1e6)])
                counts = noisy_execute(c, model, shots, rng)
                tvs.append(total_variation(_joint(counts, shots), exact))
            means.append(float(np.mean(tvs)))
        assert means[0] <= means[1] <= means[2], (name, means)


def test_wire_compaction_is_transparent():
    # A spectator wire must not change the readout semantics.
    c = circuit(
        4, [gate("h", 0), gate("cnot", 0, 2), measure(0, "a"), measure(2, "b")]
    )
    rng = np.random.default_rng(58)
    counts = noisy_execute(c, NoiseModel(0, 0, 0, 0), 2000, rng)
    assert set(counts) <= {"00", "11"}
