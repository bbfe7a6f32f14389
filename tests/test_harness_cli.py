"""Experiment driver, reports, comparison statistics, CLI, selftest."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from fuzzing import READER_FUZZ
from hypothesis import given, strategies as st

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
from qfhesim.cli import _load_placement, main
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


def test_chi2_p_matches_scipy():
    # Tables whose statistic runs over [0, 50], against chi2.sf at 1 dof.
    stats = pytest.importorskip("scipy.stats")
    seen = []
    for ones_b in range(500, 700):
        a, b, c, d = 500, 500, ones_b, 1000 - ones_b
        stat = 2000 * (a * d - b * c) ** 2 / ((a + b) * (c + d) * (a + c) * (b + d))
        want = stats.chi2.sf(stat, df=1)
        assert two_sample_chi2_p(500, 1000, ones_b, 1000) == pytest.approx(want, rel=1e-12)
        seen.append(stat)
    assert min(seen) == 0.0 and max(seen) > 50.0


def run_python(*args):
    """A fresh interpreter that imports qfhesim from this checkout's src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(REPO / "src"), env.get("PYTHONPATH")) if part
    )
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env
    )


def test_import_leaves_scipy_out():
    code = "import sys, qfhesim, qfhesim.cli; print('scipy' in sys.modules)"
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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
    return run_python("-m", "qfhesim.cli", *args)


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


def test_main_reuses_one_parser(tmp_path, capsys):
    # main builds its argument parser once per process.  Two calls with
    # different argv must still print and write what fresh processes do,
    # and a bad flag between them must still exit 2.
    from qfhesim import cli

    def masked(text, out):
        return re.sub(r"wall time \S+", "wall time T", text.replace(str(out), "OUT"))

    for mode, seed in (("interactive", "3"), ("qfhe", "4")):
        argv = ["run", "--mode", mode, "--pattern", "reference", "--inputs", "1,6",
                "--shots", "50", "--seed", seed]
        here, fresh = tmp_path / f"here-{mode}", tmp_path / f"fresh-{mode}"
        assert main([*argv, "--out", str(here)]) == 0
        printed = capsys.readouterr().out
        proc = run_cli(*argv, "--out", str(fresh))
        assert proc.returncode == 0, proc.stderr
        assert masked(printed, here) == masked(proc.stdout, fresh)
        for name in ("report.json", "table.csv"):
            assert (here / name).read_bytes() == (fresh / name).read_bytes()
        with pytest.raises(SystemExit) as exc:
            main(["run", "--bogus-flag"])
        assert exc.value.code == 2
    assert cli._build_parser() is cli._build_parser()


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


GOOD_REPORT = {
    "inputs": [0],
    "shots": 4,
    "output_nodes": [7, 8],
    "ones": {"0": [1, 2]},
    "joints": {"0": {"00": 2, "01": 1, "11": 1}},
}


def _compare_reports(base=GOOD_REPORT, **changes):
    def args(tmp_path):
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            report = json.dumps({**base, **changes})
            (tmp_path / name / "report.json").write_text(report)
        return ["compare", str(tmp_path / "a"), str(tmp_path / "b")]

    return args


def _run_onto_existing_file(tmp_path):
    (tmp_path / "taken").write_text("keep\n")
    return _run_args(tmp_path, out="taken")


def _run_with_placement(text, mode="qfhe"):
    def args(tmp_path):
        (tmp_path / "placement.txt").write_text(text)
        coupling = str(REPO / "couplings" / "ladder16.txt")
        placement = str(tmp_path / "placement.txt")
        argv = _run_args(tmp_path, "--coupling", coupling, "--placement", placement)
        argv[argv.index("--mode") + 1] = mode
        return argv

    return args


def _run_with_file(flag, name, text, mode="qfhe"):
    def args(tmp_path):
        (tmp_path / name).write_text(text)
        argv = _run_args(tmp_path, flag, str(tmp_path / name))
        argv[argv.index("--mode") + 1] = mode
        return argv

    return args


LADDER = str(REPO / "couplings" / "ladder16.txt")
# The reference pattern's default placement as a placement file.
REFERENCE_PLACEMENT = "".join(
    f"{f'c{label[1]}' if isinstance(label, tuple) else label} {phys}\n"
    for label, phys in default_placement(reference_pattern()).items()
)

BAD_REQUESTS = {
    "missing-pattern": lambda t: _run_args(t, pattern=str(t / "missing.txt")),
    "report-missing-keys": _compare_reports({"inputs": [0]}),
    "out-is-a-file": _run_onto_existing_file,
    "duplicate-inputs": lambda t: _run_args(t, "--inputs", "0,0,1"),
    "empty-inputs": lambda t: _run_args(t, "--inputs", ""),
    "empty-input-items": lambda t: _run_args(t, "--inputs", ",3,,"),
    "negative-seed": lambda t: _run_args(t, "--seed", "-1"),
    "placement-bad-label": _run_with_placement("x1 3\n"),
    "placement-repeated-label": _run_with_placement("1 0\n1 3\n"),
    "placement-unknown-label": _run_with_placement(
        REFERENCE_PLACEMENT + "99 15\n", "qfhe-circuit"
    ),
    "noise-outside-noisy-mode": _run_with_file("--noise", "noise.txt", "p2 0.5\n"),
    "coupling-outside-circuit-modes": lambda t: _run_args(t, "--coupling", LADDER),
    "placement-outside-circuit-modes": _run_with_file(
        "--placement", "placement.txt", "1 0\n", "interactive"
    ),
    "placement-without-coupling": _run_with_file(
        "--placement", "placement.txt", "1 0\n", "qfhe-circuit"
    ),
    "placement-missing-file": lambda t: _run_args(t, "--placement", str(t / "no.txt")),
    "transcript-outside-qfhe": lambda t: [
        "run", "--mode", "interactive", "--pattern", "reference", "--shots", "2",
        "--dump-transcript", "--out", str(t / "out"),
    ],
    "noise-out-of-range": _run_with_file(
        "--noise", "noise.txt", "p1 2\n", "qfhe-circuit-noisy"
    ),
    "noise-repeated-key": _run_with_file(
        "--noise", "noise.txt", "p1 0.1\np1 0.2\n", "qfhe-circuit-noisy"
    ),
    "report-string-counts": _compare_reports(ones={"0": ["1", "2"]}),
    "report-float-joint": _compare_reports(joints={"0": {"00": 2.5}}),
    "report-zero-shots": _compare_reports(shots=0),
    "report-short-ones": _compare_reports(ones={"0": [1]}),
    "report-count-above-shots": _compare_reports(ones={"0": [1, 5]}),
    "report-joint-not-bits": _compare_reports(joints={"0": {"0z": 4}}),
    "report-joint-wrong-width": _compare_reports(joints={"0": {"000": 4}}),
    "report-joints-short-of-shots": _compare_reports(joints={"0": {"00": 2, "11": 1}}),
    "p-threshold-negative": lambda t: [*_compare_reports()(t), "--p-threshold=-1"],
    "p-threshold-nan": lambda t: [*_compare_reports()(t), "--p-threshold", "nan"],
}


@pytest.mark.parametrize("case", list(BAD_REQUESTS))
def test_cli_validation_error_exit_code(tmp_path, case):
    proc = run_cli(*BAD_REQUESTS[case](tmp_path))
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1, proc.stderr
    assert not (tmp_path / "out").exists()
    if case.startswith("report-"):
        report = tmp_path / "a" / "report.json"
        assert proc.stderr.startswith(f"error: {report}: malformed report")
    if case == "out-is-a-file":
        assert (tmp_path / "taken").read_text() == "keep\n"
    if case == "negative-seed":
        assert proc.stderr == "error: seed must be >= 0, got -1\n"


@pytest.mark.parametrize(
    "text, where",
    [
        ("x1 3\n", ":1: invalid literal"),
        ("c4 x\n", ":1: invalid literal"),
        ("1 0\n\n# moved\n1 3\n", ":4: label '1' placed twice"),
        ("c4 0\nc4 1\n", ":2: label 'c4' placed twice"),
        ("1 0 2\n", ":1: expected '<label> <physical>'"),
        ("1 0\n\xff 3\n", ":2: 'utf-8' codec can't decode"),
    ],
)
def test_placement_errors_name_path_and_line(tmp_path, text, where):
    path = tmp_path / "placement.txt"
    path.write_text(text, encoding="latin-1")
    with pytest.raises(ValueError) as err:
        _load_placement(str(path))
    assert str(err.value).startswith(f"{path}{where}")


PLACEMENT_TOKENS = ["1", "c4", "c", "x1", "0", "15", "-2", "3.5", "#", "", "1 2 3"]


@READER_FUZZ
@given(st.lists(st.lists(st.sampled_from(PLACEMENT_TOKENS), max_size=3), max_size=6))
def test_placement_reader_fuzz(tmp_path, lines):
    path = tmp_path / "placement.txt"
    path.write_text("\n".join(" ".join(tokens) for tokens in lines) + "\n")
    try:
        _load_placement(str(path))
    except ValueError as exc:
        assert re.match(rf"{re.escape(str(path))}:[1-9][0-9]*: ", str(exc)), exc


@pytest.mark.parametrize(
    "flag, mode, line1",
    [
        ("--pattern", "interactive", "node 1"),
        ("--coupling", "qfhe-circuit", "16"),
        ("--noise", "qfhe-circuit-noisy", "p1 0"),
        ("--placement", "qfhe-circuit", "1 0"),
    ],
)
def test_run_names_path_and_line_of_a_bad_byte(tmp_path, capsys, flag, mode, line1):
    path = tmp_path / "input.txt"
    path.write_bytes(line1.encode() + b"\n\xff\n")
    argv = ["run", "--mode", mode, "--pattern", "reference", flag, str(path)]
    if flag == "--placement":
        argv += ["--coupling", LADDER]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:2: 'utf-8' codec can't decode")
    assert len(err.splitlines()) == 1


def test_compare_report_without_outputs(tmp_path, capsys):
    argv = _compare_reports(output_nodes=[], ones={"0": []}, joints={"0": {"": 4}})(
        tmp_path
    )
    assert main(argv) == 0
    assert capsys.readouterr().out.endswith("min p-value 1\n")


@pytest.fixture(scope="module")
def saved_report(tmp_path_factory):
    table, stats = run_experiment(small_config(mode="qfhe", shots=20))
    out = tmp_path_factory.mktemp("report")
    return emit_report(table, stats, out)["report"].read_bytes()


REPORT_VALUES = [-1, 0, 1, 7, 21, 10**9, 2.5, "3", None, True, [], {}]
REPORT_EDITS = st.lists(
    st.tuples(
        st.sampled_from(["value"] * 6 + ["delete"] * 2 + ["byte"]),
        st.integers(0, 60),
        st.sampled_from(REPORT_VALUES),
    ),
    min_size=1,
    max_size=4,
)


def _slots(node):
    """Every (container, key) pair in a parsed JSON document, depth first."""
    keys = node.keys() if isinstance(node, dict) else range(len(node))
    for key in list(keys):
        yield node, key
        if isinstance(node[key], (dict, list)):
            yield from _slots(node[key])


def _mutate_report(data: bytes, edits) -> bytes:
    report = json.loads(data)
    for op, at, value in edits:
        slots = list(_slots(report))
        if op != "byte" and slots:
            node, key = slots[at % len(slots)]
            if op == "value":
                node[key] = value
            else:
                del node[key]
    lines = json.dumps(report, indent=2, sort_keys=True).encode().splitlines()
    for op, at, _ in edits:
        if op == "byte":
            line = lines[at % len(lines)]
            lines[at % len(lines)] = line[:3] + b"\xff" + line[3:]
    return b"\n".join(lines) + b"\n"


@READER_FUZZ
@given(REPORT_EDITS)
def test_compare_report_reader_fuzz(tmp_path, capsys, saved_report, edits):
    # A mutated report either compares cleanly with itself or `compare`
    # exits 2 naming the report.
    run = tmp_path / "run"
    run.mkdir(exist_ok=True)
    (run / "report.json").write_bytes(_mutate_report(saved_report, edits))
    code = main(["compare", str(run), str(run)])
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
    else:
        assert code == 2
        assert err.startswith(f"error: {run / 'report.json'}: malformed report")
        assert len(err.splitlines()) == 1


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
