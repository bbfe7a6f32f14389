"""Experiment driver: runs patterns across modes and emits counts tables.

Classical input integers map to input bits big-endian over the pattern's
ordered input list (input 5 on three inputs -> bits 1, 0, 1).  Reports are
deterministic given (config, seed): the structured report and CSV are
byte-identical across reruns, while wall time goes to a separate log file so
it cannot break reproducibility.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import compiler, noise as noise_mod
from .circuit import CouplingMap, pack_readout, parity_tally, readout_marginals
from .circuit import readout_strings, readout_tally, sample_counts, write_text
from .pattern import (
    FlowMap,
    MeasurementPattern,
    OpenGraph,
    interactive_draws,
    interactive_rows,
    random_pattern,
    validate_flow,
)
from .protocol import (
    enumerate_branches,
    qfhe_draws,
    qfhe_rows,
    run_qfhe_detailed,
    total_variation,
)
from .statevec import (  # the budget and its rules, re-exported
    SHOT_CHUNK_BYTES,
    require_shots,
    rows_per_chunk,
    shots_per_chunk,
)

MODES = ("interactive", "qfhe", "qfhe-circuit", "qfhe-circuit-noisy")
CIRCUIT_MODES = ("qfhe-circuit", "qfhe-circuit-noisy")

DEFAULT_SHOTS = 1000
DEFAULT_SEED = 0


@dataclass
class ExperimentConfig:
    mode: str
    pattern: MeasurementPattern
    inputs: list[int]
    shots: int = DEFAULT_SHOTS
    seed: int = DEFAULT_SEED
    noise: noise_mod.NoiseModel | None = None
    coupling: CouplingMap | None = None
    placement: dict | None = None
    dump_transcript: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        require_shots(self.shots)
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not self.inputs:
            raise ValueError("no inputs to run")
        if len(set(self.inputs)) != len(self.inputs):
            raise ValueError(f"duplicate inputs in {list(self.inputs)}")
        hi = 1 << len(self.pattern.graph.inputs)
        for v in self.inputs:
            if not 0 <= v < hi:
                raise ValueError(f"input {v} outside 0..{hi - 1}")
        # An option the mode never reads is a mistake, not a no-op.
        unused = {
            "noise": self.noise is not None and self.mode != "qfhe-circuit-noisy",
            "coupling": self.coupling is not None and self.mode not in CIRCUIT_MODES,
            "placement": self.placement is not None and self.mode not in CIRCUIT_MODES,
            "dump_transcript": self.dump_transcript and self.mode != "qfhe",
        }
        for name, ignored in unused.items():
            if ignored:
                raise ValueError(f"{name} does not apply to mode {self.mode}")
        if self.placement is not None and self.coupling is None:
            raise ValueError("placement requires a coupling map")


@dataclass
class CountsTable:
    """Per input, per output node: count of 1 readouts; joints kept for stats."""

    inputs: list[int]
    shots: int
    output_nodes: list[int]
    ones: dict[int, list[int]] = field(default_factory=dict)
    joints: dict[int, dict[str, int]] = field(default_factory=dict)

    def frequency(self, input_value: int, output_index: int) -> float:
        return self.ones[input_value][output_index] / self.shots


def input_bits_of(pattern: MeasurementPattern, value: int) -> list[int]:
    width = len(pattern.graph.inputs)
    return [(value >> (width - 1 - i)) & 1 for i in range(width)]


def reference_pattern() -> MeasurementPattern:
    """Built-in 3x3 pattern: three row chains plus two middle-column rungs.

    Column angles: inputs (0, pi/2, 0), middle (pi/4, pi/2, pi/4); the two
    pi/4 nodes get Bell companions, for 11 simulated qubits.  Exact noiseless
    behaviour: the middle output reproduces the parity of the three input
    bits deterministically while the outer outputs are unbiased.
    """
    graph = OpenGraph(
        nodes=tuple(range(1, 10)),
        edges=((1, 4), (2, 5), (3, 6), (4, 7), (5, 8), (6, 9), (4, 5), (5, 6)),
        inputs=(1, 2, 3),
        outputs=(7, 8, 9),
    )
    flow = FlowMap(
        f={1: 4, 2: 5, 3: 6, 4: 7, 5: 8, 6: 9}, order=(1, 2, 3, 4, 5, 6)
    )
    angles = {1: 0, 2: 2, 3: 0, 4: 1, 5: 2, 6: 1}
    pattern = MeasurementPattern(graph, flow, angles)
    pattern.plan  # validates the flow once; every run reuses the plan
    return pattern


def default_placement(pattern: MeasurementPattern) -> dict:
    """Hand placement of the reference pattern onto the 16-node ladder."""
    ref = reference_pattern()
    if pattern.graph == ref.graph and pattern.angles == ref.angles:
        return {
            1: 1,
            2: 2,
            3: 3,
            4: 9,
            5: 10,
            6: 11,
            7: 0,
            8: 12,
            9: 4,
            ("companion", 4): 8,
            ("companion", 6): 13,
        }
    # First-fit for other patterns routed onto ladders or rings.
    return dict(pattern.plan.wire_of)


def _seed_for(seed: int, input_value: int, shot: int) -> np.random.Generator:
    return np.random.default_rng([seed, input_value, shot])


def _shot_chunks(config: ExperimentConfig, value: int, draws: int):
    """Each shot's seeded uniforms, in chunks of ``shots_per_chunk(draws)``.

    Row k of a chunk is ``_seed_for(seed, value, shot).random(draws)`` of
    its shot, bit for bit, computed for the whole chunk at once.
    """
    from . import streams  # imported on first use: only sampled modes need it

    step = shots_per_chunk(draws)
    for start in range(0, config.shots, step):
        stop = min(start + step, config.shots)
        yield streams.uniforms(config.seed, value, start, stop, draws)


def _code_counts(bits, outs) -> np.ndarray:
    """A chunk's readouts ``bits[o]`` of the nodes ``outs``, tallied by code."""
    return np.bincount(pack_readout([bits[o] for o in outs]), minlength=1 << len(outs))


def run_experiment(config: ExperimentConfig) -> tuple[CountsTable, dict]:
    """Run all requested inputs; returns the table and the structured report."""
    started = time.perf_counter()
    pattern = config.pattern
    outputs = list(pattern.graph.outputs)
    table = CountsTable(
        inputs=list(config.inputs), shots=config.shots, output_nodes=outputs
    )
    server_marginals: dict[str, list[float]] = {}
    transcript_text: str | None = None
    if config.mode == "qfhe" and config.dump_transcript:
        first = config.inputs[0]
        run = run_qfhe_detailed(
            pattern, input_bits_of(pattern, first), _seed_for(config.seed, first, 0)
        )
        transcript_text = run.transcript.serialize()

    # Per input, code tallies of the corrected and the raw output readouts.
    for value in config.inputs:
        bits = input_bits_of(pattern, value)
        out, raw = np.zeros(1 << len(outputs), dtype=np.int64), None
        if config.mode == "interactive":
            for uniforms in _shot_chunks(config, value, interactive_draws(pattern)):
                _, b, _ = interactive_rows(pattern, bits, uniforms)
                out += _code_counts(b, outputs)
        elif config.mode == "qfhe":
            raw = np.zeros_like(out)
            for uniforms in _shot_chunks(config, value, qfhe_draws(pattern)):
                s, _, b = qfhe_rows(pattern, bits, uniforms)
                out += _code_counts(b, outputs)
                raw += _code_counts(s, outputs)
        else:
            compiled = compiler.compile_qfhe_to_circuit(
                pattern, bits, placement=config.placement, coupling=config.coupling
            )
            rng = _seed_for(config.seed, value, 0)
            if config.mode == "qfhe-circuit":
                counts = sample_counts(compiled.circuit, config.shots, rng)
            else:
                model = config.noise or noise_mod.NoiseModel()
                counts = noise_mod.noisy_execute(
                    compiled.circuit, model, config.shots, rng
                )
            full = readout_tally(counts, len(compiled.bit_names))
            out = parity_tally(full, compiled.output_masks)
            raw = parity_tally(full, compiled.server_masks)

        table.ones[value] = readout_marginals(out)
        table.joints[value] = readout_strings(out)
        if raw is not None:
            marginals = readout_marginals(raw)
            server_marginals[str(value)] = [r / config.shots for r in marginals]

    elapsed = time.perf_counter() - started
    report = {
        "mode": config.mode,
        "seed": config.seed,
        "shots": config.shots,
        "inputs": list(config.inputs),
        "output_nodes": outputs,
        "ones": {str(v): table.ones[v] for v in config.inputs},
        "joints": {str(v): table.joints[v] for v in config.inputs},
    }
    if server_marginals:
        report["server_view"] = {"output_marginals": server_marginals}
    extras = {"wall_time_s": elapsed, "transcript": transcript_text}
    return table, {"report": report, "extras": extras}


# -- statistics -----------------------------------------------------------


def two_sample_chi2_p(ones_a: int, n_a: int, ones_b: int, n_b: int) -> float:
    """Two-sample binomial chi-squared p-value (1 dof).

    Degenerate margins (both runs all-0 or all-1) compare equal: p = 1.
    """
    a, b = ones_a, n_a - ones_a
    c, d = ones_b, n_b - ones_b
    n = n_a + n_b
    denom = (a + b) * (c + d) * (a + c) * (b + d)
    if denom == 0:
        return 1.0
    stat = n * (a * d - b * c) ** 2 / denom
    # The chi-squared survival function at one degree of freedom.
    return math.erfc(math.sqrt(stat / 2))


def compare_tables(a: CountsTable, b: CountsTable) -> dict:
    """Per-cell chi-squared p-values plus per-input TV over joint outputs."""
    if a.inputs != b.inputs or a.output_nodes != b.output_nodes:
        raise ValueError("tables have different shapes")
    p_values: dict[int, list[float]] = {}
    tv: dict[int, float] = {}
    for v in a.inputs:
        p_values[v] = [
            two_sample_chi2_p(a.ones[v][k], a.shots, b.ones[v][k], b.shots)
            for k in range(len(a.output_nodes))
        ]
        pa = {s: c / a.shots for s, c in a.joints[v].items()}
        pb = {s: c / b.shots for s, c in b.joints[v].items()}
        tv[v] = total_variation(pa, pb)
    return {"p_values": p_values, "tv": tv}


# -- reports ----------------------------------------------------------------


def emit_report(table: CountsTable, stats: dict, out_dir) -> dict[str, Path]:
    """Write report.json, table.csv, and run.log under ``out_dir``.

    report.json and table.csv are byte-identical across reruns with the same
    seed; run.log carries the wall time and is excluded from that guarantee.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / "report.json"
    csv_path = out / "table.csv"
    log_path = out / "run.log"

    write_text(report_path, json.dumps(stats["report"], indent=2, sort_keys=True) + "\n")

    rows = ["input,output_index,ones,shots"]
    for v in table.inputs:
        for k in range(len(table.output_nodes)):
            rows.append(f"{v},{k},{table.ones[v][k]},{table.shots}")
    write_text(csv_path, "\n".join(rows) + "\n")

    extras = stats.get("extras", {})
    write_text(log_path, f"wall_time_s={extras.get('wall_time_s', 0.0):.6f}\n")
    paths = {"report": report_path, "csv": csv_path, "log": log_path}
    if extras.get("transcript"):
        tr_path = out / "transcript.txt"
        write_text(tr_path, extras["transcript"])
        paths["transcript"] = tr_path
    return paths


# -- selftest ----------------------------------------------------------------


def selftest(verbose: bool = True) -> int:
    """Oracle suite: exact identities, validators, and the protocol check.

    Also demonstrates that the checks have teeth by running them against
    deliberately corrupted variants.  Returns a process exit code.
    """
    from .circuit import (
        circuit,
        decompose_controlled_sdg,
        decompose_swap_onedir,
        gate,
        rewrite_cz_to_cnot,
        unitary_of,
    )
    from .protocol import deferred_corrections
    from .statevec import make_bell_pair

    failures = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        if verbose:
            print(f"{'ok  ' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else ""))
        if not ok:
            failures.append(name)

    bell = make_bell_pair(0, 0).amps
    want = np.zeros(4, dtype=complex)
    want[0] = want[3] = 1 / np.sqrt(2)
    check("bell-pair beta00", np.allclose(bell, want, atol=1e-12))

    u = unitary_of(circuit(2, decompose_controlled_sdg(0, 1)))
    target = np.diag([1, 1, 1, -1j])
    dev = float(np.max(np.abs(u - target)))
    check("controlled-sdg matrix", dev < 1e-12, f"max dev {dev:.2e}")

    u_bad = unitary_of(
        circuit(2, decompose_controlled_sdg(0, 1, _skip_control_phase=True))
    )
    dev_bad = float(np.max(np.abs(u_bad - target)))
    check(
        "controlled-sdg phase hook detected",
        dev_bad > 1e-3,
        f"max dev {dev_bad:.2e}",
    )

    swap_u = unitary_of(circuit(2, decompose_swap_onedir(0, 1)))
    swap_t = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
    check("swap one-direction", float(np.max(np.abs(swap_u - swap_t))) < 1e-12)

    cz_c = circuit(2, [gate("cz", 0, 1)])
    check(
        "cz lowering",
        np.allclose(
            unitary_of(rewrite_cz_to_cnot(cz_c)), unitary_of(cz_c), atol=1e-12
        ),
    )

    ref = reference_pattern()
    ok, violations = validate_flow(ref.graph, ref.flow)
    check("reference flow valid", ok, "; ".join(violations))
    bad_flow = FlowMap(f=dict(ref.flow.f), order=ref.flow.order[::-1])
    ok_bad, _ = validate_flow(ref.graph, bad_flow)
    check("flow validator rejects reversed order", not ok_bad)

    rng = np.random.default_rng(7)
    agree = True
    for value in (0, 5):
        bits = input_bits_of(ref, value)
        di = enumerate_branches(ref, bits, mode="interactive")
        dq = enumerate_branches(ref, bits, mode="qfhe")
        if total_variation(di, dq) > 1e-9:
            agree = False
    check("deferred equals interactive (reference)", agree)

    for trial in range(3):
        pat = random_pattern(rng, max_measured=4)
        bits = [int(rng.integers(2)) for _ in pat.graph.inputs]
        di = enumerate_branches(pat, bits, mode="interactive")
        dq = enumerate_branches(pat, bits, mode="qfhe")
        check(
            f"deferred equals interactive (random {trial})",
            total_variation(di, dq) < 1e-9,
        )

    # Corrupting the pi/2-family rule must break deferred == interactive.
    # On this chain the corrected output is deterministically the input bit;
    # the corrupted recursion turns it into a coin flip.
    pat = MeasurementPattern(
        OpenGraph((1, 2, 3), ((1, 2), (2, 3)), (1,), (3,)),
        FlowMap({1: 2, 2: 3}, (1, 2)),
        {1: 2, 2: 2},
    )
    interactive_dist = enumerate_branches(pat, [1], mode="interactive")
    check(
        "chain output deterministic interactively",
        abs(interactive_dist.get("1", 0.0) - 1.0) < 1e-9,
    )
    good_ok = True
    bad_differs = False
    for shot in range(40):
        run = run_qfhe_detailed(
            pat, [1], np.random.default_rng([123, shot]), want_transcript=False
        )
        raw = run.client.ledger.s
        good = deferred_corrections(pat, raw, {}, [1])
        bad = deferred_corrections(pat, raw, {}, [1], _drop_pred_term=True)
        if good[3] != 1:
            good_ok = False
        if bad[3] != 1:
            bad_differs = True
    check("deferred corrections reproduce the deterministic output", good_ok)
    check("pi/2 correction hook breaks the equivalence", bad_differs)

    if verbose:
        print(f"{len(failures)} failure(s)")
    return 1 if failures else 0
