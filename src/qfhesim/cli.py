"""Command-line entry point.

Subcommands: ``run`` (execute an experiment and write reports), ``selftest``
(oracle suite), ``compare`` (chi-squared and TV comparison of two reports).
Exit codes: 0 success, 1 check failure, 2 validation error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import harness, noise as noise_mod
from .circuit import CircuitFormatError, load_coupling
from .pattern import FlowError, PatternFormatError, load_pattern


def _build_parser() -> argparse.ArgumentParser:
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
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            if len(tokens) != 2:
                raise ValueError(f"{path}:{lineno}: expected '<label> <physical>'")
            label, phys = tokens
            key = (
                ("companion", int(label[1:])) if label.startswith("c") else int(label)
            )
            placement[key] = int(phys)
    return placement


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
        inputs = [int(v) for v in args.inputs.split(",") if v != ""]

    noise_model = None
    if args.noise:
        noise_model = noise_mod.load_noise_model(args.noise)
    coupling = load_coupling(args.coupling) if args.coupling else None
    placement = None
    if coupling is not None:
        placement = (
            _load_placement(args.placement)
            if args.placement
            else harness.default_placement(pattern)
        )

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
        inputs = list(data["inputs"])
        table = harness.CountsTable(
            inputs=inputs,
            shots=int(data["shots"]),
            output_nodes=list(data["output_nodes"]),
        )
        for v in inputs:
            table.ones[v] = list(data["ones"][str(v)])
            table.joints[v] = dict(data["joints"][str(v)])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{report_path}: malformed report ({exc!r})") from exc
    return table


def _cmd_compare(args) -> int:
    ta = _table_from_report(Path(args.a))
    tb = _table_from_report(Path(args.b))
    stats = harness.compare_tables(ta, tb)
    worst = 1.0
    for v in ta.inputs:
        ps = " ".join(f"{p:.4g}" for p in stats["p_values"][v])
        print(f"input {v}: p-values [{ps}] tv {stats['tv'][v]:.4f}")
        worst = min(worst, *stats["p_values"][v])
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
    except (
        PatternFormatError,
        CircuitFormatError,
        FlowError,
        OSError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
