"""Self-tests of the benchmark.

    python3 perfbench/selftest.py

* Smoke: a tiny run of every workload, untraced and traced, prints the
  result line with exactly the metric names and units of BENCHMARK.json.
* Teeth: a corrupted job output raises ``failed``: a count moved to an
  impossible outcome, a report whose bytes differ from the golden hashes,
  and an exact oracle tampered with by a test wrapper.
* Tracing is harmless: traced jobs write the same bytes as untraced ones,
  counters repeat exactly from cycle to cycle, and uninstalling restores
  every original function.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter

import run
import tracing
import workloads

failures: list[str] = []


def check(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else ""))
    if not ok:
        failures.append(name)


def smoke() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in spec["workloads"]:
        for trace in (0, 1):
            argv = [
                sys.executable, "perfbench/run.py", "--workload", workload["name"],
                "--seed", str(workloads.DEFAULT_SEED), "--seconds", "0.01",
                "--trace", str(trace),
            ]
            proc = subprocess.run(
                argv, cwd=run.ROOT, capture_output=True, text=True, timeout=300
            )
            name = f"smoke {workload['name']} trace {trace}"
            if proc.returncode != 0:
                check(name, False, proc.stderr.strip()[-300:])
                continue
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            check(
                name,
                set(line) == {"correct", "attempted", "failed", "metrics"}
                and line["correct"] is True
                and line["attempted"] >= 1
                and line["failed"] == 0
                and got == want[trace]
                and all(
                    set(v) == {"value", "unit"} and isinstance(v["value"], (int, float))
                    for v in line["metrics"].values()
                ),
                f"{line['attempted']} jobs, {len(got)} metrics",
            )


def ledger_after(wl, results) -> run.Ledger:
    ledger = run.Ledger(wl)
    for position, result, error in results:
        ledger.record(position, result, error)
    return ledger


def one_cycle(wl):
    out = []
    for position in range(len(wl.jobs)):
        _, result, error = run.run_job(wl, position)
        out.append((position, result, error))
    return out


def teeth(pkg) -> None:
    workdir = run.RUNS / "work" / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    harness, protocol = pkg.harness, pkg.protocol
    original_run, original_enum = harness.run_experiment, protocol.enumerate_branches

    def moved_count(config):
        # Move one shot of the deterministic middle output to the wrong value,
        # consistently in ones, joints and the table.
        table, stats = original_run(config)
        report = stats["report"]
        v = config.inputs[0]
        joint = table.joints[v]
        key = max(joint, key=joint.get)
        bad = key[0] + ("0" if key[1] == "1" else "1") + key[2]
        joint[key] -= 1
        joint[bad] = joint.get(bad, 0) + 1
        if joint[key] == 0:
            del joint[key]
        table.ones[v][1] += 1 if bad[1] == "1" else -1
        report["ones"][str(v)] = table.ones[v]
        report["joints"][str(v)] = dict(sorted(joint.items()))
        return table, stats

    def extra_key(config):
        table, stats = original_run(config)
        stats["report"]["note"] = "tampered"
        return table, stats

    def biased_oracle(pattern, bits, mode="interactive", **kwargs):
        dist = dict(original_enum(pattern, bits, mode=mode, **kwargs))
        if mode == "qfhe":
            key = max(dist, key=dist.get)
            dist[key] -= 1e-6
            flipped = "".join("1" if c == "0" else "0" for c in key)
            dist[flipped] = dist.get(flipped, 0.0) + 1e-6
        return dist

    try:
        wl = workloads.DelegateShots(pkg, 1, workdir / "delegate")
        wl.prepare_checks()
        clean = ledger_after(wl, one_cycle(wl))
        check("delegate-shots clean cycle passes", clean.failed == 0, str(clean.problems[:1]))

        harness.run_experiment = moved_count
        try:
            wl.jobs = wl.jobs[:2]
            tampered = ledger_after(wl, one_cycle(wl))
        finally:
            harness.run_experiment = original_run
        check(
            "a moved count raises failed_frac",
            tampered.failed == tampered.attempted == 2,
            tampered.problems[0] if tampered.problems else "",
        )

        wl = workloads.NoiseSweep(pkg, workloads.DEFAULT_SEED, workdir / "sweep")
        wl.prepare_checks()
        wl.golden = json.loads((workloads.HERE / "golden.json").read_text())[wl.name]
        clean = ledger_after(wl, one_cycle(wl))
        check("golden hashes hold at the default seed", clean.failed == 0, str(clean.problems[:1]))
        harness.run_experiment = extra_key
        try:
            tampered = ledger_after(wl, one_cycle(wl))
        finally:
            harness.run_experiment = original_run
        check(
            "changed report bytes fail the golden check",
            tampered.failed == tampered.attempted == len(wl.jobs),
            tampered.problems[0] if tampered.problems else "",
        )

        wl = workloads.ExactOracle(pkg, 1, workdir / "oracle")
        clean = ledger_after(wl, one_cycle(wl))
        check("exact-oracle clean cycle passes", clean.failed == 0, str(clean.problems[:1]))
        protocol.enumerate_branches = biased_oracle
        try:
            tampered = ledger_after(wl, one_cycle(wl))
        finally:
            protocol.enumerate_branches = original_enum
        check(
            "a tampered oracle raises failed_frac",
            tampered.failed > 0,
            f"{tampered.failed} of {tampered.attempted} verdicts false",
        )

        repeat = ledger_after(wl, one_cycle(wl) + one_cycle(wl))
        check("repeated jobs give identical outputs", repeat.failed == 0)
    finally:
        harness.run_experiment, protocol.enumerate_branches = original_run, original_enum
        shutil.rmtree(workdir, ignore_errors=True)


def tracing_harmless(pkg) -> None:
    workdir = run.RUNS / "work" / "selftest-trace"
    owners = [getattr(pkg, m) for m in run.MODULES] + [
        pkg.statevec.StateVector,
        pkg.pattern.OpenGraph,
        pkg.pattern.FlowMap,
        pkg.pattern.MeasurementPattern,
    ]
    before = [dict(vars(owner)) for owner in owners]
    try:
        for cls in (workloads.NoiseSweep, workloads.DelegateShots, workloads.ExactOracle):
            wl = cls(pkg, 3, workdir / cls.name)
            plain = [r["digest"] for _, r, _ in one_cycle(wl)]
            tracer = tracing.Tracer()
            tracer.install()
            try:
                first = [r["digest"] for _, r, _ in one_cycle(wl)]
                after_one = tracer.snapshot()
                one_cycle(wl)
                second = Counter(tracer.snapshot())
                second.subtract(after_one)
            finally:
                tracer.uninstall()
            check(f"{cls.name}: traced outputs equal untraced", plain == first)
            check(
                f"{cls.name}: counters repeat exactly",
                tracing.counters_of(second) == tracing.counters_of(after_one),
            )
            metrics = tracing.layer_metrics(tracer, after_one, 2)
            check(
                f"{cls.name}: every per-layer metric reported",
                list(metrics) == [name for name, _ in tracing.PER_LAYER],
            )
        restored = all(
            vars(owner).get(name) is value
            for owner, names in zip(owners, before)
            for name, value in names.items()
        )
        check("uninstall restores every original", restored)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    pkg = run.import_package()
    teeth(pkg)
    tracing_harmless(pkg)
    smoke()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
