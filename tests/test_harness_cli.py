"""Experiment driver, reports, comparison statistics, CLI, selftest."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qfhesim.harness import (
    CountsTable,
    ExperimentConfig,
    compare_tables,
    default_placement,
    emit_report,
    input_bits_of,
    reference_pattern,
    run_experiment,
    selftest,
    two_sample_chi2_p,
)
from qfhesim.circuit import ladder16
from qfhesim.pattern import validate_flow

REPO = Path(__file__).resolve().parents[1]


def small_config(mode="qfhe-circuit", **kw):
    ref = reference_pattern()
    defaults = dict(mode=mode, pattern=ref, inputs=[0, 3], shots=200, seed=5)
    defaults.update(kw)
    return ExperimentConfig(**defaults)


# -- reference pattern ---------------------------------------------------------


def test_reference_pattern_invariants():
    ref = reference_pattern()
    ok, violations = validate_flow(ref.graph, ref.flow)
    assert ok, violations
    assert len(ref.quarter_nodes) == 2
    assert len(ref.graph.nodes) + len(ref.quarter_nodes) == 11
    assert len(ref.graph.inputs) == 3 and len(ref.graph.outputs) == 3
    cols = {ref.angles[v] for v in (1, 3)}
    assert cols == {0}
    assert ref.angles[2] == ref.angles[5] == 2
    assert ref.angles[4] == ref.angles[6] == 1


def test_input_bits_big_endian():
    ref = reference_pattern()
    assert input_bits_of(ref, 0) == [0, 0, 0]
    assert input_bits_of(ref, 1) == [0, 0, 1]
    assert input_bits_of(ref, 4) == [1, 0, 0]
    assert input_bits_of(ref, 7) == [1, 1, 1]


def test_config_validation():
    ref = reference_pattern()
    with pytest.raises(ValueError):
        ExperimentConfig(mode="bogus", pattern=ref, inputs=[0])
    with pytest.raises(ValueError):
        ExperimentConfig(mode="qfhe", pattern=ref, inputs=[8])
    with pytest.raises(ValueError):
        ExperimentConfig(mode="qfhe", pattern=ref, inputs=[0], shots=0)


# -- run_experiment ---------------------------------------------------------------


def test_deterministic_middle_output_counts():
    table, _ = run_experiment(small_config(inputs=[0, 1, 2, 4], shots=300))
    # middle output = parity of the input bits, exactly 0 or shots
    assert table.ones[0][1] == 0
    assert table.ones[1][1] == 300
    assert table.ones[2][1] == 300
    assert table.ones[4][1] == 300


def test_qfhe_mode_reports_server_marginals():
    _, stats = run_experiment(small_config(mode="qfhe", inputs=[0], shots=300))
    marg = stats["report"]["server_view"]["output_marginals"]["0"]
    assert len(marg) == 3
    assert all(0.35 < m < 0.65 for m in marg)


def test_interactive_mode_runs():
    table, stats = run_experiment(small_config(mode="interactive", shots=100))
    assert set(table.ones) == {0, 3}
    assert "server_view" not in stats["report"]


def test_noisy_circuit_mode_runs():
    from qfhesim.noise import NoiseModel

    cfg = small_config(
        mode="qfhe-circuit-noisy",
        inputs=[0],
        shots=60,
        noise=NoiseModel(0, 0, 0, 0),
    )
    table, _ = run_experiment(cfg)
    assert table.ones[0][1] == 0  # parity output survives a noiseless model


def test_routed_circuit_mode():
    ref = reference_pattern()
    cfg = small_config(
        inputs=[5],
        shots=400,
        coupling=ladder16(),
        placement=default_placement(ref),
    )
    table, _ = run_experiment(cfg)
    assert table.ones[5][1] == 0  # parity of (1, 0, 1)


def test_transcript_dump():
    cfg = small_config(mode="qfhe", inputs=[0], shots=3, dump_transcript=True)
    _, stats = run_experiment(cfg)
    assert stats["extras"]["transcript"].startswith("c2s nodes")


# -- comparison stats ---------------------------------------------------------------


def test_chi2_examples():
    assert two_sample_chi2_p(500, 1000, 505, 1000) > 0.05
    assert two_sample_chi2_p(0, 1000, 1000, 1000) < 1e-10
    assert two_sample_chi2_p(0, 1000, 0, 1000) == 1.0
    assert two_sample_chi2_p(1000, 1000, 1000, 1000) == 1.0


def test_compare_table_with_itself():
    table, _ = run_experiment(small_config(shots=150))
    stats = compare_tables(table, table)
    assert all(v == 0.0 for v in stats["tv"].values())
    assert all(p == 1.0 for ps in stats["p_values"].values() for p in ps)


def test_compare_rejects_shape_mismatch():
    t1, _ = run_experiment(small_config(shots=50))
    t2, _ = run_experiment(small_config(shots=50, inputs=[0]))
    with pytest.raises(ValueError):
        compare_tables(t1, t2)


# -- reports -------------------------------------------------------------------------


def test_reports_are_reproducible(tmp_path):
    for sub in ("a", "b"):
        table, stats = run_experiment(small_config(shots=120))
        emit_report(table, stats, tmp_path / sub)
    ra = (tmp_path / "a" / "report.json").read_bytes()
    rb = (tmp_path / "b" / "report.json").read_bytes()
    assert ra == rb
    ca = (tmp_path / "a" / "table.csv").read_bytes()
    cb = (tmp_path / "b" / "table.csv").read_bytes()
    assert ca == cb


def test_csv_shape(tmp_path):
    table, stats = run_experiment(small_config(shots=60))
    paths = emit_report(table, stats, tmp_path)
    lines = paths["csv"].read_text().strip().splitlines()
    assert lines[0] == "input,output_index,ones,shots"
    assert len(lines) == 1 + 2 * 3  # two inputs, three outputs


def test_empty_inputs_gives_header_only_csv(tmp_path):
    table = CountsTable(inputs=[], shots=10, output_nodes=[7, 8, 9])
    paths = emit_report(table, {"report": {}, "extras": {}}, tmp_path)
    assert paths["csv"].read_text() == "input,output_index,ones,shots\n"


def test_server_section_never_names_client_secrets(tmp_path):
    cfg = small_config(mode="qfhe", inputs=[0, 7], shots=100)
    table, stats = run_experiment(cfg)
    paths = emit_report(table, stats, tmp_path)
    report = json.loads(paths["report"].read_text())
    server_text = json.dumps(report["server_view"])
    for forbidden in ("input_bits", "alpha", "z_key", "corrected", '"b"'):
        assert forbidden not in server_text


# -- selftest and CLI ------------------------------------------------------------------


def test_selftest_passes():
    assert selftest(verbose=False) == 0


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "qfhesim.cli", *args],
        capture_output=True,
        text=True,
    )


def test_cli_selftest():
    proc = run_cli("selftest")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "ok" in proc.stdout


def test_cli_run_and_compare(tmp_path):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    for out, seed in ((out1, "3"), (out2, "4")):
        proc = run_cli(
            "run",
            "--mode",
            "qfhe-circuit",
            "--pattern",
            "reference",
            "--inputs",
            "0,1",
            "--shots",
            "400",
            "--seed",
            seed,
            "--out",
            str(out),
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / "report.json").exists()
        assert (out / "table.csv").exists()
        assert (out / "run.log").exists()
    proc = run_cli("compare", str(out1), str(out2))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "min p-value" in proc.stdout


def test_cli_run_with_files(tmp_path):
    from qfhesim.pattern import save_pattern

    pattern_path = tmp_path / "ref.txt"
    save_pattern(reference_pattern(), pattern_path)
    noise_path = tmp_path / "noise.txt"
    noise_path.write_text("p1 0\np2 0\np_ro 0\np_idle 0\n", encoding="utf-8")
    proc = run_cli(
        "run",
        "--mode",
        "qfhe-circuit-noisy",
        "--pattern",
        str(pattern_path),
        "--inputs",
        "0",
        "--shots",
        "50",
        "--noise",
        str(noise_path),
        "--coupling",
        str(REPO / "couplings" / "ladder16.txt"),
        "--out",
        str(tmp_path / "out"),
    )
    assert proc.returncode == 0, proc.stderr


def _run_args(tmp_path, *extra, pattern="reference", out="out"):
    return [
        "run", "--mode", "qfhe", "--pattern", pattern, "--shots", "2",
        *extra, "--out", str(tmp_path / out),
    ]


def _compare_reports_missing_keys(tmp_path):
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "report.json").write_text('{"inputs": [0]}')
    return ["compare", str(tmp_path / "a"), str(tmp_path / "b")]


def _run_onto_existing_file(tmp_path):
    (tmp_path / "taken").write_text("keep\n")
    return _run_args(tmp_path, out="taken")


BAD_REQUESTS = {
    "missing-pattern": lambda t: _run_args(t, pattern=str(t / "missing.txt")),
    "report-missing-keys": _compare_reports_missing_keys,
    "out-is-a-file": _run_onto_existing_file,
    "duplicate-inputs": lambda t: _run_args(t, "--inputs", "0,0,1"),
    "empty-inputs": lambda t: _run_args(t, "--inputs", ""),
}


@pytest.mark.parametrize("case", list(BAD_REQUESTS))
def test_cli_validation_error_exit_code(tmp_path, case):
    proc = run_cli(*BAD_REQUESTS[case](tmp_path))
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1, proc.stderr
    assert not (tmp_path / "out").exists()
    if case == "out-is-a-file":
        assert (tmp_path / "taken").read_text() == "keep\n"


def test_cli_compare_flags_disagreement(tmp_path):
    # seed-matched runs of different inputs disagree hard on the parity cell
    out1, out2 = tmp_path / "x", tmp_path / "y"
    for out, inputs in ((out1, "0"), (out2, "1")):
        run_cli(
            "run",
            "--mode",
            "qfhe-circuit",
            "--pattern",
            "reference",
            "--inputs",
            inputs,
            "--shots",
            "400",
            "--out",
            str(out),
        )
    # rewrite the second report's input label so the tables align
    report = json.loads((out2 / "report.json").read_text())
    report["inputs"] = [0]
    report["ones"] = {"0": report["ones"]["1"]}
    report["joints"] = {"0": report["joints"]["1"]}
    (out2 / "report.json").write_text(json.dumps(report))
    proc = run_cli("compare", str(out1), str(out2))
    assert proc.returncode == 1
