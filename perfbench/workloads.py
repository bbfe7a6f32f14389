"""The benchmark's workloads: generated inputs, jobs and output checks.

Each workload turns its seed into input files and a *cycle*, a fixed list of
jobs.  A run repeats the cycle until its time is up and always ends on a
whole cycle, so every run does the same mix of work.  Jobs drive qfhesim only
through ``qfhesim.cli.main`` and the public functions of its modules, looked
up on the module at call time so that the tracer's wrappers see the calls.

Checks never trust the program under test: at the default seed, report and
table bytes must equal the hashes recorded from the seed commit; at any seed,
counts must agree with the exact branch-enumeration law, or with the
criterion 8 band under default noise, within six standard deviations (about
2e-9 false failures per test), and oracle verdicts must return their
expected answer.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import zlib
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
DEFAULT_SEED = SPEC["default_seed"]

Z_LIMIT = 6.0  # standard deviations a sampled frequency may stray
EXACT_TOL = 1e-9  # tolerance of the exact oracles, as in the acceptance suite
NOISE_BAND = (0.35, 0.65)  # criterion 8: marginals under default noise


class JobError(RuntimeError):
    """A CLI call inside a job returned an unexpected exit code."""


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Workload:
    """Inputs, job cycle and checks of one workload.

    Subclasses set ``name``, ``item`` (what throughput counts) and fill
    ``self.jobs`` in ``__init__``; ``run`` is the timed part of a job and
    ``collect`` turns its outputs into a ``dict`` with ``items``, ``digest``
    (compared across repeats of the job) and ``files`` (output label ->
    sha256, the golden-hash check).  The default ``collect`` reads one
    ``run --out`` directory of ``SHOTS`` shots.
    """

    name = ""
    item = ""

    def __init__(self, pkg, seed: int, workdir: Path):
        self.pkg = pkg
        self.inputs_dir = workdir / "inputs"
        self.out_dir = workdir / "out"
        self.inputs_dir.mkdir(parents=True, exist_ok=True)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.rng = np.random.default_rng([seed, zlib.crc32(self.name.encode())])
        self.reference = pkg.harness.reference_pattern()
        self.jobs: list = []
        self.golden: list | None = None

    # -- generated input files ---------------------------------------------

    def write_pattern(self) -> str:
        path = self.inputs_dir / "pattern.txt"
        self.pkg.pattern.save_pattern(self.reference, path)
        loaded = self.pkg.pattern.load_pattern(path)
        if (loaded.graph, loaded.angles) != (self.reference.graph, self.reference.angles):
            raise RuntimeError("generated pattern file does not round-trip")
        return str(path)

    def write_coupling(self) -> str:
        path = self.inputs_dir / "ladder16.txt"
        self.pkg.circuit.save_coupling(self.pkg.circuit.ladder16(), path)
        self.pkg.circuit.load_coupling(path)
        return str(path)

    def write_placement(self) -> str:
        path = self.inputs_dir / "placement.txt"
        lines = []
        for label, phys in self.pkg.harness.default_placement(self.reference).items():
            name = f"c{label[1]}" if isinstance(label, tuple) else str(label)
            lines.append(f"{name} {phys}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    def write_noise(self, p2: float) -> str:
        path = self.inputs_dir / f"noise-p2-{p2:g}.txt"
        path.write_text(f"p1 0\np2 {p2!r}\np_ro 0\np_idle 0\n", encoding="utf-8")
        self.pkg.noise.load_noise_model(path)
        return str(path)

    # -- running -----------------------------------------------------------

    def cli(self, argv: list[str], allowed=(0,)) -> str:
        """Run ``qfhesim`` in-process; returns what it printed."""
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            code = self.pkg.cli.main(argv)
        if code not in allowed:
            raise JobError(f"qfhesim {argv[0]} exited {code}")
        return sink.getvalue()

    def run(self, job):
        raise NotImplementedError

    def collect(self, job, returned) -> dict:
        """Outputs of a job that made one ``run --out`` directory."""
        report, files, table = read_run(self.out_dir)
        return {
            "items": self.SHOTS,
            "digest": sha256(json.dumps(files, sort_keys=True).encode()),
            "files": files,
            "run": (report, table),
        }

    # -- checking ------------------------------------------------------------

    def prepare_checks(self) -> None:
        """Precompute what the checks compare against; not set-up time."""

    def exact_laws(self) -> dict[int, dict[str, float]]:
        """Noiseless output law of every input, by branch enumeration."""
        bits = self.pkg.harness.input_bits_of
        return {
            v: self.pkg.protocol.enumerate_branches(
                self.reference, bits(self.reference, v), mode="qfhe"
            )
            for v in range(8)
        }

    def check(self, position: int, result: dict) -> list[str]:
        problems = []
        if self.golden is not None:
            want = self.golden[position]
            for label, digest in result["files"].items():
                if want.get(label) != digest:
                    problems.append(f"{label} differs from the seed commit's bytes")
        return problems + self.check_outputs(self.jobs[position], result)

    def check_outputs(self, job, result) -> list[str]:
        raise NotImplementedError


# -- shared output reading and checks ---------------------------------------


def read_run(out: Path) -> tuple[dict, dict, str]:
    """Parsed report, file hashes, and the table text of one ``run --out``."""
    report_bytes = (out / "report.json").read_bytes()
    table_bytes = (out / "table.csv").read_bytes()
    files = {"report.json": sha256(report_bytes), "table.csv": sha256(table_bytes)}
    return json.loads(report_bytes), files, table_bytes.decode("utf-8")


def report_problems(report: dict, table: str, value: int, shots: int) -> list[str]:
    """Internal consistency of one single-input report and its table."""
    key = str(value)
    if report.get("inputs") != [value] or report.get("shots") != shots:
        return [f"report covers inputs {report.get('inputs')} x {report.get('shots')}"]
    ones = report["ones"][key]
    joints = report["joints"][key]
    problems = []
    if sum(joints.values()) != shots:
        problems.append(f"joint counts sum to {sum(joints.values())}, not {shots}")
    for k, count in enumerate(ones):
        from_joint = sum(c for s, c in joints.items() if s[k] == "1")
        if count != from_joint:
            problems.append(f"ones[{k}] = {count} but the joints say {from_joint}")
    rows = ["input,output_index,ones,shots"] + [
        f"{value},{k},{count},{shots}" for k, count in enumerate(ones)
    ]
    if table != "\n".join(rows) + "\n":
        problems.append("table.csv disagrees with report.json")
    return problems


def cell_probabilities(law: dict[str, float], width: int = 3) -> list[float]:
    return [sum(p for s, p in law.items() if s[k] == "1") for k in range(width)]


def law_problems(
    report: dict, value: int, law: dict[str, float], slack: float = 0.0
) -> list[str]:
    """Counts against an exact law.

    With ``slack`` 0 the counts must be samples of the law itself: no
    outcome of probability 0, deterministic cells exact, the rest within
    Z_LIMIT standard deviations.  A positive ``slack`` bounds how far the
    sampled law may sit from ``law``, as under sparse noise.
    """
    key = str(value)
    shots = report["shots"]
    problems = []
    if slack == 0.0:
        for s in report["joints"][key]:
            if law.get(s, 0.0) <= EXACT_TOL:
                problems.append(f"outcome {s} has exact probability 0")
    for k, p in enumerate(cell_probabilities(law)):
        f = report["ones"][key][k] / shots
        if slack == 0.0 and min(p, 1.0 - p) <= EXACT_TOL:
            if abs(f - p) > EXACT_TOL:
                problems.append(f"deterministic cell {k} read {f}, law {p}")
            continue
        sigma = math.sqrt(max(p * (1.0 - p), 0.25 if slack else 0.0) / shots)
        if abs(f - p) > slack + Z_LIMIT * sigma:
            problems.append(f"cell {k} frequency {f:.4f} vs exact {p:.4f}")
    return problems


def marginal_problems(
    report: dict, value: int, lo: float, hi: float, slack: float = 0.0
) -> list[str]:
    """Server-view raw marginals inside [lo, hi] up to sampling error."""
    margins = report.get("server_view", {}).get("output_marginals", {}).get(str(value))
    if margins is None:
        return ["report has no server-view marginals"]
    band = slack + Z_LIMIT * 0.5 / math.sqrt(report["shots"])
    return [
        f"raw marginal {k} = {m:.4f} outside [{lo}, {hi}]"
        for k, m in enumerate(margins)
        if not lo - band <= m <= hi + band
    ]


def band_problems(report: dict, value: int, lo: float, hi: float) -> list[str]:
    """Corrected marginals inside [lo, hi] up to sampling error."""
    shots = report["shots"]
    band = Z_LIMIT * 0.5 / math.sqrt(shots)
    return [
        f"cell {k} frequency {c / shots:.4f} outside [{lo}, {hi}]"
        for k, c in enumerate(report["ones"][str(value)])
        if not lo - band <= c / shots <= hi + band
    ]


def chi2_p(ones_a: int, n_a: int, ones_b: int, n_b: int) -> float:
    """Two-sample binomial chi-squared p-value, 1 dof, written independently."""
    a, b, c, d = ones_a, n_a - ones_a, ones_b, n_b - ones_b
    denom = (a + b) * (c + d) * (a + c) * (b + d)
    if denom == 0:
        return 1.0
    stat = (n_a + n_b) * (a * d - b * c) ** 2 / denom
    return math.erfc(math.sqrt(stat / 2.0))


def tv_distance(p: dict[str, float], q: dict[str, float]) -> float:
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in set(p) | set(q))


def max_deviation(p: dict[str, float], q: dict[str, float]) -> float:
    return max(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in set(p) | set(q))


# -- workloads ---------------------------------------------------------------


class DelegateShots(Workload):
    """The README flow for one input: three modes, then compare."""

    name = "delegate-shots"
    item = "shots"
    MODES = ("interactive", "qfhe", "qfhe-circuit")
    SHOTS = 64

    def __init__(self, pkg, seed, workdir):
        super().__init__(pkg, seed, workdir)
        self.pattern_file = self.write_pattern()
        inputs = self.rng.permutation(8)
        seeds = self.rng.integers(0, 2**31, size=8)
        self.jobs = [(int(v), int(s)) for v, s in zip(inputs, seeds)]

    def run(self, job):
        value, seed = job
        for mode in self.MODES:
            self.cli(
                [
                    "run", "--mode", mode, "--pattern", self.pattern_file,
                    "--inputs", str(value), "--shots", str(self.SHOTS),
                    "--seed", str(seed), "--out", str(self.out_dir / mode),
                ]
            )
        return self.cli(
            ["compare", str(self.out_dir / "interactive"), str(self.out_dir / "qfhe")],
            allowed=(0, 1),
        )

    def prepare_checks(self) -> None:
        self.laws = self.exact_laws()

    def collect(self, job, returned) -> dict:
        runs, files = {}, {}
        for mode in self.MODES:
            report, hashes, table = read_run(self.out_dir / mode)
            runs[mode] = (report, table)
            files.update({f"{mode}/{k}": h for k, h in hashes.items()})
        digest = sha256(json.dumps([files, returned], sort_keys=True).encode())
        return {
            "items": self.SHOTS * len(self.MODES),
            "digest": digest,
            "files": files,
            "runs": runs,
            "compare": returned,
        }

    def check_outputs(self, job, result) -> list[str]:
        value, _ = job
        problems = []
        for mode, (report, table) in result["runs"].items():
            found = report_problems(report, table, value, self.SHOTS)
            if not found:
                found = law_problems(report, value, self.laws[value])
                if mode != "interactive":
                    found += marginal_problems(report, value, 0.5, 0.5)
            problems += [f"{mode}: {p}" for p in found]
        if not problems:
            problems += self.compare_problems(value, result)
        return problems

    def compare_problems(self, value, result) -> list[str]:
        a = result["runs"]["interactive"][0]["ones"][str(value)]
        b = result["runs"]["qfhe"][0]["ones"][str(value)]
        want = min(chi2_p(x, self.SHOTS, y, self.SHOTS) for x, y in zip(a, b))
        lines = result["compare"].strip().splitlines()
        if not lines or not lines[-1].startswith("min p-value "):
            return ["compare printed no minimum p-value"]
        got = float(lines[-1].split()[-1])
        if abs(got - want) > 1e-3 * want:
            return [f"compare reports min p {got:.4g}, recomputed {want:.4g}"]
        return []


class NoisyRouted(Workload):
    """Routed, noisy compiled runs on the 16-node ladder at default noise."""

    name = "noisy-routed"
    item = "shots"
    SHOTS = 32

    def __init__(self, pkg, seed, workdir):
        super().__init__(pkg, seed, workdir)
        self.pattern_file = self.write_pattern()
        self.coupling_file = self.write_coupling()
        self.placement_file = self.write_placement()
        inputs = self.rng.permutation(8)
        seeds = self.rng.integers(0, 2**31, size=8)
        self.jobs = [(int(v), int(s)) for v, s in zip(inputs, seeds)]

    def run(self, job):
        value, seed = job
        self.cli(
            [
                "run", "--mode", "qfhe-circuit-noisy", "--pattern", self.pattern_file,
                "--inputs", str(value), "--shots", str(self.SHOTS),
                "--seed", str(seed), "--coupling", self.coupling_file,
                "--placement", self.placement_file, "--out", str(self.out_dir),
            ]
        )

    def check_outputs(self, job, result) -> list[str]:
        value, _ = job
        report, table = result["run"]
        return report_problems(report, table, value, self.SHOTS) or (
            band_problems(report, value, *NOISE_BAND)
            + marginal_problems(report, value, *NOISE_BAND)
        )


class NoiseSweep(Workload):
    """Unrouted noisy runs with only two-qubit errors, p2 from 0 to 5e-2."""

    name = "noise-sweep"
    item = "shots"
    SHOTS = 128
    P2 = (0.0, 1e-3, 1e-2, 5e-2)

    def __init__(self, pkg, seed, workdir):
        super().__init__(pkg, seed, workdir)
        self.pattern_file = self.write_pattern()
        self.noise_files = {p2: self.write_noise(p2) for p2 in self.P2}
        inputs = self.rng.permutation(8)[:2]
        seeds = self.rng.integers(0, 2**31, size=len(inputs) * len(self.P2))
        self.jobs = [
            (int(v), p2, int(s))
            for (v, p2), s in zip(
                ((v, p2) for v in inputs for p2 in self.P2), seeds
            )
        ]

    def run(self, job):
        value, p2, seed = job
        self.cli(
            [
                "run", "--mode", "qfhe-circuit-noisy", "--pattern", self.pattern_file,
                "--inputs", str(value), "--shots", str(self.SHOTS),
                "--seed", str(seed), "--noise", self.noise_files[p2],
                "--out", str(self.out_dir),
            ]
        )

    def prepare_checks(self) -> None:
        self.laws = self.exact_laws()
        # Chance that at least one two-qubit error fires in a trajectory.
        # Without one, the trajectory samples the noiseless law exactly, so
        # no cell can move further than this.
        self.fire = {}
        for v in range(8):
            bits = self.pkg.harness.input_bits_of(self.reference, v)
            comp = self.pkg.compiler.compile_qfhe_to_circuit(self.reference, bits)
            two = sum(1 for i in comp.circuit.instructions if len(i.wires) == 2)
            self.fire[v] = {p2: 1.0 - (1.0 - p2) ** two for p2 in self.P2}

    def check_outputs(self, job, result) -> list[str]:
        value, p2, _ = job
        report, table = result["run"]
        slack = self.fire[value][p2]
        return report_problems(report, table, value, self.SHOTS) or (
            law_problems(report, value, self.laws[value], slack)
            + marginal_problems(report, value, 0.5, 0.5, slack)
        )


class ExactOracle(Workload):
    """One job is one verdict of an exact oracle; each must come out true."""

    name = "exact-oracle"
    item = "verdicts"
    PASSES = 2

    def __init__(self, pkg, seed, workdir):
        super().__init__(pkg, seed, workdir)
        c = pkg.circuit
        self.placement = pkg.harness.default_placement(self.reference)
        self.ladder = c.load_coupling(self.write_coupling())
        self.maps = (
            c.ring(5),
            induced_submap(c, self.ladder, [0, 1, 2, 8, 9, 10]),
            induced_submap(c, self.ladder, [4, 5, 6, 12, 13, 14]),
        )
        # One pass holds the exact verdicts the test suite gates on, in the
        # suite's numbers: tests/test_acceptance.py criteria 2 (8 reference
        # and 50 random-pattern branch walks), 4 (8 blindness marginals),
        # 5 (8 inputs x 2 modes of one-time pad) and 7 (10 random circuits,
        # each routed onto 3 coupling maps), and the compiled-circuit laws
        # of tests/test_compiler_routing.py (8 unrouted, 1 routed on
        # ladder16).  A routing verdict is one circuit on all three maps, as
        # test_routing_equivalence_on_ring_and_ladder_submaps has one case
        # per circuit.  The suite's fixed seeds become generated ones, and a
        # cycle is two passes with their own draws, which steadies the
        # cycle's cost from seed to seed.
        values = range(8)
        for _ in range(self.PASSES):
            self.jobs += [("branches", v) for v in values]
            for _ in range(50):
                pat = pkg.pattern.random_pattern(self.rng, max_measured=5)
                bits = [int(self.rng.integers(2)) for _ in pat.graph.inputs]
                self.jobs.append(("random-pattern", (pat, bits)))
            self.jobs += [("blind", v) for v in values]
            self.jobs += [
                ("pad", (v, m)) for v in values for m in ("interactive", "qfhe")
            ]
            for _ in range(10):
                circ = random_circuit(c, self.rng, 5, 12)
                self.jobs.append(("routing", circ))
            self.jobs += [("compiled", v) for v in values]
            self.jobs.append(("compiled-routed", int(self.rng.integers(8))))
        self.jobs = interleave(self.jobs)

    def run(self, job):
        kind, arg = job
        pkg, ref = self.pkg, self.reference
        enumerate_branches = pkg.protocol.enumerate_branches
        if kind in ("branches", "pad", "blind", "compiled", "compiled-routed"):
            value = arg[0] if kind == "pad" else arg
            bits = pkg.harness.input_bits_of(ref, value)
        if kind == "branches":
            dev = tv_distance(
                enumerate_branches(ref, bits, mode="interactive"),
                enumerate_branches(ref, bits, mode="qfhe"),
            )
        elif kind == "pad":
            dev = max_deviation(
                enumerate_branches(ref, bits, mode=arg[1]),
                enumerate_branches(ref, bits, mode=arg[1], direct_input_prep=True),
            )
        elif kind == "blind":
            marg = pkg.protocol.server_output_marginals_exact(ref, bits)
            dev = max(abs(p - 0.5) for p in marg.values())
        elif kind in ("compiled", "compiled-routed"):
            routing = {}
            if kind == "compiled-routed":
                routing = {"placement": self.placement, "coupling": self.ladder}
            comp = pkg.compiler.compile_qfhe_to_circuit(ref, bits, **routing)
            readout = pkg.circuit.exact_readout_distribution(comp.circuit)
            joint: dict[str, float] = {}
            for s, p in readout.items():
                key = "".join(s[comp.output_positions[o]] for o in ref.graph.outputs)
                joint[key] = joint.get(key, 0.0) + p
            dev = tv_distance(joint, enumerate_branches(ref, bits, mode="qfhe"))
        elif kind == "random-pattern":
            pat, bits = arg
            dev = tv_distance(
                enumerate_branches(pat, bits, mode="interactive"),
                enumerate_branches(pat, bits, mode="qfhe"),
            )
        else:
            init = {w: w for w in range(arg.num_wires)}
            sound, dev = True, 0.0
            for coupling in self.maps:
                routed, final = pkg.circuit.route(arg, coupling, init)
                pkg.circuit.check_conformance(routed, coupling)
                same, d = pkg.circuit.verify_equivalence(
                    arg, routed, up_to_global_phase=True, wire_perm=final, input_perm=init
                )
                sound, dev = sound and bool(same), max(dev, d)
            return sound and dev < EXACT_TOL, dev
        return dev < EXACT_TOL, dev

    def collect(self, job, returned) -> dict:
        verdict, dev = returned
        return {
            "items": 1,
            "digest": sha256(repr((job[0], verdict, float(dev).hex())).encode()),
            "files": {},
            "verdict": verdict,
            "deviation": float(dev),
        }

    def check_outputs(self, job, result) -> list[str]:
        if result["verdict"] is not True:
            return [f"{job[0]} verdict is false (deviation {result['deviation']:.3g})"]
        return []


def interleave(jobs: list) -> list:
    """The jobs with each kind spread evenly over the list, order kept within a kind.

    The host's speed drifts within a run; a kind run back to back would be
    timed in one moment of it, and job_s.p50 falls on one kind.
    """
    kinds: dict[str, list] = {}
    for job in jobs:
        kinds.setdefault(job[0], []).append(job)
    keyed = [
        ((i + 0.5) / len(group), k, job)
        for k, group in enumerate(kinds.values())
        for i, job in enumerate(group)
    ]
    keyed.sort(key=lambda item: item[:2])
    return [job for _, _, job in keyed]


def induced_submap(c, coupling, keep):
    """The coupling map restricted to ``keep``, renumbered from 0."""
    remap = {v: i for i, v in enumerate(sorted(keep))}
    edges = {
        (remap[a], remap[b]) for a, b in coupling.edges if a in remap and b in remap
    }
    return c.CouplingMap(len(remap), frozenset(edges))


def random_circuit(c, rng, wires: int, length: int):
    """Random 1q/2q gate list, logical SWAPs included."""
    pool_1q = ["h", "x", "z", "s", "t", "sdg", "tdg"]
    pool_2q = ["cnot", "cz", "swap"]
    ins = []
    for _ in range(length):
        if rng.random() < 0.45:
            a, b = rng.choice(wires, size=2, replace=False)
            ins.append(c.gate(str(rng.choice(pool_2q)), int(a), int(b)))
        else:
            ins.append(c.gate(str(rng.choice(pool_1q)), int(rng.integers(wires))))
    return c.circuit(wires, ins)


WORKLOADS = {w.name: w for w in (DelegateShots, NoisyRouted, NoiseSweep, ExactOracle)}
