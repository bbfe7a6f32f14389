"""Command-line entry point.

Subcommands: ``run`` (execute an experiment and write reports), ``selftest``
(oracle suite), ``compare`` (chi-squared and TV comparison of two reports).
Exit codes: 0 success, 1 check failure, 2 validation error.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from pathlib import Path

from . import harness, noise as noise_mod
from .circuit import load_coupling, read_records
from .pattern import load_pattern


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser every ``main`` call reuses; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="qfhesim",
        description="Measurement-pattern and delegated-execution simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment across classical inputs")
    run_p.add_argument("--mode", required=True, choices=harness.MODES)
    run_p.add_argument("--pattern", required=True, help="pattern file, or 'reference'")
    run_p.add_argument(
        "--inputs",
        default=None,
        help="comma-separated classical inputs (default: all)",
    )
    run_p.add_argument("--shots", type=int, default=harness.DEFAULT_SHOTS)
    run_p.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    run_p.add_argument("--noise", default=None, help="noise config file")
    run_p.add_argument("--coupling", default=None, help="coupling map file")
    run_p.add_argument("--placement", default=None, help="placement file")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--dump-transcript", action="store_true")

    sub.add_parser("selftest", help="run the built-in oracle suite")

    cmp_p = sub.add_parser("compare", help="compare two run directories")
    cmp_p.add_argument("a")
    cmp_p.add_argument("b")
    cmp_p.add_argument("--p-threshold", type=float, default=0.001)
    return parser


def _load_placement(path: str) -> dict:
    """Lines: ``<node-id or c<node-id>> <physical-index>``."""
    placement: dict = {}

    def record(tokens):
        if len(tokens) != 2:
            raise ValueError("expected '<label> <physical>'")
        label, phys = tokens
        key = ("companion", int(label[1:])) if label.startswith("c") else int(label)
        if key in placement:
            raise ValueError(f"label {label!r} placed twice")
        placement[key] = int(phys)

    return read_records(path, record, lambda: placement)


def _cmd_run(args) -> int:
    if Path(args.out).exists() and not Path(args.out).is_dir():
        raise ValueError(f"--out {args.out} exists and is not a directory")
    if args.pattern == "reference":
        pattern = harness.reference_pattern()
    else:
        pattern = load_pattern(args.pattern)

    if args.inputs is None:
        inputs = list(range(1 << len(pattern.graph.inputs)))
    else:
        items = args.inputs.split(",")
        if "" in items:
            raise ValueError(f"--inputs {args.inputs!r} has an empty item")
        inputs = [int(v) for v in items]

    noise_model = None
    if args.noise:
        noise_model = noise_mod.load_noise_model(args.noise)
    coupling = load_coupling(args.coupling) if args.coupling else None
    placement = _load_placement(args.placement) if args.placement else None
    if coupling is not None and placement is None:
        placement = harness.default_placement(pattern)

    config = harness.ExperimentConfig(
        mode=args.mode,
        pattern=pattern,
        inputs=inputs,
        shots=args.shots,
        seed=args.seed,
        noise=noise_model,
        coupling=coupling,
        placement=placement,
        dump_transcript=args.dump_transcript,
    )
    table, stats = harness.run_experiment(config)
    paths = harness.emit_report(table, stats, args.out)
    print(f"wrote {paths['report']} and {paths['csv']}")
    print(f"wall time {stats['extras']['wall_time_s']:.3f}s")
    return 0


def _table_from_report(path: Path) -> harness.CountsTable:
    report_path = path / "report.json"
    try:
        data = json.loads(report_path.read_text(encoding="utf-8"))
        inputs, shots = list(data["inputs"]), data["shots"]
        harness.require_shots(shots)
        outputs = list(data["output_nodes"])
        table = harness.CountsTable(inputs=inputs, shots=shots, output_nodes=outputs)
        for v in inputs:
            ones = table.ones[v] = list(data["ones"][str(v)])
            joints = table.joints[v] = dict(data["joints"][str(v)])
            if len(ones) != len(outputs):
                raise ValueError(f"input {v}: {len(ones)} ones, {len(outputs)} outputs")
            for c in [*ones, *joints.values()]:
                if type(c) is not int or not 0 <= c <= shots:
                    raise ValueError(f"input {v}: count {c!r} outside [0, {shots}]")
            width = len(outputs)
            if sum(joints.values()) != shots or any(
                len(k) != width or set(k) - {"0", "1"} for k in joints
            ):
                raise ValueError(f"input {v}: joints are not {shots} {width}-bit readouts")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{report_path}: malformed report ({exc!r})") from exc
    return table


def _cmd_compare(args) -> int:
    if not 0.0 <= args.p_threshold <= 1.0:  # NaN fails too
        raise ValueError(f"--p-threshold {args.p_threshold} outside [0, 1]")
    ta = _table_from_report(Path(args.a))
    tb = _table_from_report(Path(args.b))
    stats = harness.compare_tables(ta, tb)
    worst = 1.0
    for v in ta.inputs:
        ps = " ".join(f"{p:.4g}" for p in stats["p_values"][v])
        print(f"input {v}: p-values [{ps}] tv {stats['tv'][v]:.4f}")
        worst = min([worst, *stats["p_values"][v]])
    print(f"min p-value {worst:.4g}")
    return 0 if worst >= args.p_threshold else 1


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "selftest":
            return harness.selftest()
        return _cmd_compare(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
