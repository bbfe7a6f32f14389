"""Benchmark runner for qfhesim.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree; the package is imported from ``src``.
One process runs one workload on one thread.  Set-up (import, input
generation, file loads and one warm-up job) is repeated three times and its
median reported; then the workload's job cycle repeats for ``--seconds``
seconds, rounded up to a whole cycle.  Every job's output is checked.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics.
With ``--trace 1`` half the time runs untraced and half traced; the last line
carries the per-layer metrics of the traced half, and the difference between
the halves is the tracing overhead.  A result file with an environment stamp
goes to ``.perfbench_runs/results/``.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy loads: one thread per benchmark.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from hashlib import sha256
from pathlib import Path
from types import SimpleNamespace

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
SETUP_REPEATS = 3
MODULES = ("statevec", "pattern", "protocol", "circuit", "compiler", "noise", "harness", "cli")

# End-to-end metrics and units, in BENCHMARK.json order.
END_TO_END = (
    ("throughput", "1/s"),
    ("job_s.p50", "s"),
    ("job_s.tail", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package() -> SimpleNamespace:
    sys.path.insert(0, str(SRC))
    pkg = SimpleNamespace(
        **{m: importlib.import_module(f"qfhesim.{m}") for m in MODULES}
    )
    origin = Path(pkg.cli.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise RuntimeError(f"qfhesim was imported from {origin}, not {SRC}")
    return pkg


def fresh_import_seconds() -> float:
    """Wall time of ``import qfhesim`` in a new interpreter, as a CLI pays it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import qfhesim"],
        cwd=ROOT,
        env=env,
        check=True,
        timeout=120,
    )
    return time.perf_counter() - started


def run_job(wl, position: int):
    """Run one job; returns (seconds, collected outputs or None, error)."""
    started = time.perf_counter()
    try:
        returned = wl.run(wl.jobs[position])
    except Exception as exc:  # a failing job is counted, never fatal
        return time.perf_counter() - started, None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - started
    try:
        return elapsed, wl.collect(wl.jobs[position], returned), None
    except Exception as exc:
        return elapsed, None, f"{type(exc).__name__}: {exc}"


class Ledger:
    """Outcome of every job: full check of each cycle position's first output,
    byte-for-byte comparison of every later output with that first one."""

    def __init__(self, wl):
        self.wl = wl
        self.first: dict[int, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, position: int, result, error, counted: bool = True) -> None:
        bad = None
        if error is not None:
            bad = error
        elif position not in self.first:
            self.first[position] = result
            found = self.wl.check(position, result)
            if found:
                bad = "; ".join(found)
                result["bad"] = bad
        elif result["digest"] != self.first[position]["digest"]:
            bad = "output differs from the first run of the same job"
        else:
            bad = self.first[position].get("bad")
        if not counted:
            if bad:
                self.note(position, bad)
            return
        self.attempted += 1
        if bad:
            self.failed += 1
            self.note(position, bad)

    def note(self, position, text) -> None:
        if len(self.problems) < 20:
            self.problems.append(f"job {position} {self.wl.jobs[position]!r:.80}: {text}")


def run_window(wl, ledger: Ledger, seconds: float, tracer=None) -> dict:
    """Repeat the job cycle for ``seconds``, rounded up to whole cycles."""
    times: list[float] = []
    items = 0
    snapshots = []
    cpu_started = time.process_time()
    started = time.perf_counter()
    while True:
        for position in range(len(wl.jobs)):
            elapsed, result, error = run_job(wl, position)
            times.append(elapsed)
            if result is not None:
                items += result["items"]
            ledger.record(position, result, error)
        if tracer is not None and len(snapshots) < 2:
            snapshots.append(tracer.snapshot())
        if time.perf_counter() - started >= seconds:
            break
    wall = time.perf_counter() - started
    return {
        "times": times,
        "items": items,
        "wall_s": wall,
        "cpu_s": time.process_time() - cpu_started,
        "cycles": len(times) // len(wl.jobs),
        "snapshots": snapshots,
    }


def timing_metrics(window: dict, tail_pct: int) -> dict:
    # job_s.p50 takes each cycle position's median over its repeats first:
    # the host's speed drifts within a run, and the plain median of a mix of
    # job kinds lands on whichever kind's fastest repeats sit at the middle.
    positions = len(window["times"]) // window["cycles"]
    per_job = [
        statistics.median(window["times"][p::positions]) for p in range(positions)
    ]
    times = sorted(window["times"])
    n = len(times)
    rank = max(1, math.ceil(tail_pct / 100 * n))  # nearest rank
    return {
        "throughput": window["items"] / window["wall_s"],
        "job_s.p50": statistics.median(per_job),
        "job_s.tail": times[rank - 1],
        "tail_percentile": tail_pct,
        "tail_jobs_beyond": n - rank,
        "jobs": n,
        "wall_s": window["wall_s"],
        "cpu_s": window["cpu_s"],
    }


def git_revision() -> str | None:
    """HEAD of the source tree, or None outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment_stamp(load_start) -> dict:
    import numpy
    import scipy

    source = sha256()
    for path in sorted((SRC / "qfhesim").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_revision": git_revision(),
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_pins": {
            k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
        },
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qfhesim" / "__init__.py").is_file():
        print(f"error: no qfhesim sources under {SRC}", file=sys.stderr)
        return 2
    load_start = os.getloadavg()

    started = time.perf_counter()
    pkg = import_package()
    import_in_process_s = time.perf_counter() - started

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]
    workdir = RUNS / "work" / f"{args.workload}-{os.getpid()}"
    try:
        return measure(args, pkg, cls, workdir, import_in_process_s, load_start)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, pkg, cls, workdir, import_in_process_s, load_start) -> int:
    setups = []
    for _ in range(SETUP_REPEATS):
        import_s = fresh_import_seconds()
        started = time.perf_counter()
        wl = cls(pkg, args.seed, workdir)
        inputs_s = time.perf_counter() - started
        warm_s, warm_result, warm_error = run_job(wl, 0)
        setups.append({"import_s": import_s, "inputs_s": inputs_s, "warmup_s": warm_s})
    setup_s = statistics.median(s["import_s"] + s["inputs_s"] + s["warmup_s"] for s in setups)

    started = time.perf_counter()
    wl.prepare_checks()
    if args.seed == workloads.DEFAULT_SEED:
        golden = json.loads((workloads.HERE / "golden.json").read_text(encoding="utf-8"))
        wl.golden = golden.get(wl.name)
    check_setup_s = time.perf_counter() - started

    tail_pct = workloads.SPEC["tail_percentile"][wl.name]
    ledger = Ledger(wl)
    ledger.record(0, warm_result, warm_error, counted=False)
    result = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "item": wl.item,
        "cycle_jobs": len(wl.jobs),
        "golden_checked": wl.golden is not None,
        "setup": {
            "setup_s": setup_s,
            "repeats": setups,
            "import_in_process_s": import_in_process_s,
            "check_setup_s": check_setup_s,
        },
    }

    if args.trace == 0:
        window = run_window(wl, ledger, args.seconds)
        timing = timing_metrics(window, tail_pct)
        values = {
            "throughput": timing["throughput"],
            "job_s.p50": timing["job_s.p50"],
            "job_s.tail": timing["job_s.tail"],
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        result["timing"] = timing
        result[f"{wl.item}_per_s"] = timing["throughput"]
    else:
        plain = timing_metrics(run_window(wl, ledger, args.seconds / 2), tail_pct)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            window = run_window(wl, ledger, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        traced = timing_metrics(window, tail_pct)
        first = window["snapshots"][0]
        repeat = None
        if len(window["snapshots"]) > 1:
            second = Counter(window["snapshots"][1])
            second.subtract(first)
            repeat = tracing.counters_of(second) == tracing.counters_of(first)
        metrics = tracing.layer_metrics(tracer, first, window["cycles"])
        result["timing"] = {"untraced": plain, "traced": traced}
        result["tracing_overhead"] = {
            k: traced[k] / plain[k] - 1.0 for k in ("throughput", "job_s.p50", "job_s.tail")
        }
        result["counters_repeat"] = repeat
        print(
            "tracing overhead: "
            + ", ".join(f"{k} {v:+.1%}" for k, v in result["tracing_overhead"].items())
            + f"; counters repeat between cycles: {repeat}"
        )

    result.update(
        {
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "failed_frac": ledger.failed / ledger.attempted,
            "problems": ledger.problems,
            "metrics": metrics,
            "environment": environment_stamp(load_start),
        }
    )
    out = RUNS / "results" / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")

    for problem in ledger.problems:
        print(f"check failed: {problem}")
    if args.trace == 0:
        t = result["timing"]
        print(
            f"{wl.name}: {t['jobs']} jobs, p{t['tail_percentile']} tail with"
            f" {t['tail_jobs_beyond']} jobs beyond; result file {out.relative_to(ROOT)}"
        )
    print(
        json.dumps(
            {
                "correct": ledger.failed == 0,
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
