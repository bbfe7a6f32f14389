"""Per-layer spans and counters, recorded from outside the package.

``Tracer.install`` replaces public functions and methods of the qfhesim
modules with timing wrappers and ``uninstall`` puts the originals back.  A
span is named ``<module>.<function>``; kernel methods share one span per kind
(``statevec.gate``, ``statevec.measure``).  A call made while a span of the
same name is innermost merges into it, so ``apply_gate -> _apply_1q`` counts
once.  Self time is busy time minus the time of child spans.

Wrappers only observe: they draw no random numbers and change no argument or
result, so traced and untraced runs of a job write the same bytes.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

# (span name, module, attribute) for every timed entry point.
SPANS = (
    ("statevec.gate", "statevec", "StateVector.apply_gate"),
    ("statevec.gate", "statevec", "StateVector._apply_1q"),
    ("statevec.gate", "statevec", "StateVector._apply_cz"),
    ("statevec.gate", "statevec", "StateVector._apply_cnot"),
    ("statevec.gate", "statevec", "StateVector._apply_swap"),
    ("statevec.measure", "statevec", "StateVector.measure_z"),
    ("statevec.measure", "statevec", "StateVector.measure_rotated"),
    ("statevec.measure", "statevec", "StateVector.measure_pauli_basis"),
    ("statevec.measure", "statevec", "StateVector.project_z"),
    ("statevec.measure", "statevec", "StateVector.project_rotated"),
    ("statevec.measure", "statevec", "StateVector.probability_one"),
    ("statevec.copy", "statevec", "StateVector.copy"),
    ("pattern.run_interactive", "pattern", "run_interactive"),
    ("pattern.validate", "pattern", "MeasurementPattern.validate"),
    ("protocol.run_qfhe_detailed", "protocol", "run_qfhe_detailed"),
    ("protocol.enumerate_branches", "protocol", "enumerate_branches"),
    (
        "protocol.server_output_marginals_exact",
        "protocol",
        "server_output_marginals_exact",
    ),
    ("circuit.route", "circuit", "route"),
    ("circuit.exact_readout_distribution", "circuit", "exact_readout_distribution"),
    ("circuit.sample_counts", "circuit", "sample_counts"),
    ("circuit.verify_equivalence", "circuit", "verify_equivalence"),
    ("circuit.unitary_of", "circuit", "unitary_of"),
    ("circuit.parity_postprocess", "circuit", "parity_postprocess"),
    ("compiler.compile_qfhe_to_circuit", "compiler", "compile_qfhe_to_circuit"),
    ("noise.noisy_execute", "noise", "noisy_execute"),
    ("harness.run_experiment", "harness", "run_experiment"),
    ("harness.emit_report", "harness", "emit_report"),
    ("harness.compare_tables", "harness", "compare_tables"),
    ("cli.main", "cli", "main"),
)

# (counter name, module, attribute) for entry points counted, not timed:
# they are cheap and called often, so a span would distort their callers.
COUNTED = (
    ("pattern.neighbours.calls", "pattern", "OpenGraph.neighbours"),
    ("pattern.predecessor.calls", "pattern", "FlowMap.predecessor"),
    ("pattern.z_dependency_set.calls", "pattern", "z_dependency_set"),
    ("noise.depolarize.calls", "noise", "depolarize"),
    ("noise.flip_readout.calls", "noise", "flip_readout"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in SPANS))

# Per-circuit statistics: (metric, summed counter, counter of circuits).
PER_CIRCUIT = (
    ("compiler.instructions", "compiler.circuits"),
    ("compiler.controlled_sdg", "compiler.circuits"),
    ("circuit.routed.instructions", "circuit.routed.circuits"),
    ("circuit.routed.two_qubit", "circuit.routed.circuits"),
    ("circuit.routed.depth", "circuit.routed.circuits"),
    ("circuit.routed.swaps", "circuit.routed.circuits"),
    ("circuit.compacted_wires", "noise.runs"),
)

# Every per-layer metric the traced run reports, with its unit.
PER_LAYER = (
    *(
        (f"{span}.{part}", unit)
        for span in SPAN_NAMES
        for part, unit in (("calls", "count"), ("busy_s", "s"), ("self_s", "s"))
    ),
    ("statevec.gate.bytes", "B"),
    ("statevec.qubits.max", "count"),
    ("statevec.project.zero_frac", "ratio"),
    *((name, "count") for name, _, _ in COUNTED),
    ("noise.trajectories", "count"),
    ("noise.trajectory_s", "s"),
    *((name, "count") for name, _ in PER_CIRCUIT),
)


class Tracer:
    """Spans and counters for one run: create, install, run jobs, read."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.max_qubits = 0
        self._stack: list[list] = []  # [span name, child seconds]
        self._restore: list[tuple] = []
        self._route_input = None
        self._schedule_layers = None

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn, after=None):
        stack = self._stack
        counts = self.counts
        calls, busy, own = f"{name}.calls", f"{name}.busy_s", f"{name}.self_s"

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                stack.pop()
                counts[calls] += 1
                counts[busy] += elapsed
                counts[own] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- hooks for computed and derived counts --------------------------------

    def _after_gate(self, args, kwargs, result):
        # Computed, not measured: a dense kernel reads and writes every
        # amplitude once, 2 x 16 B x 2^n.
        self.counts["statevec.gate.bytes"] += 2 * 16 * (1 << args[0].num_qubits)

    def _counting_projections(self, fn):
        counts = self.counts

        def project_z(*args, **kwargs):
            p = fn(*args, **kwargs)
            counts["statevec.project.calls"] += 1
            if p == 0.0:
                counts["statevec.project.zero"] += 1
            return p

        return project_z

    def _recording_width(self, fn):
        def init(sv, *args, **kwargs):
            fn(sv, *args, **kwargs)
            self.max_qubits = max(self.max_qubits, sv.num_qubits)

        return init

    def _after_route(self, args, kwargs, result):
        logical, routed = args[0], result[0]
        self._route_input = logical
        # A logical SWAP is a relabelling that route emits no gate for.
        two_logical = sum(1 for i in logical.instructions if i.gate in ("cnot", "cz"))
        two_routed = sum(1 for i in routed.instructions if len(i.wires) == 2)
        c = self.counts
        c["circuit.routed.circuits"] += 1
        c["circuit.routed.instructions"] += len(routed.instructions)
        c["circuit.routed.two_qubit"] += two_routed
        c["circuit.routed.depth"] += len(self._schedule_layers(routed))
        # Derived: every logical CNOT or CZ lowers to one CNOT, every
        # inserted SWAP to three.
        c["circuit.routed.swaps"] += (two_routed - two_logical) / 3

    def _forgetting_route(self, fn):
        def compile_qfhe_to_circuit(*args, **kwargs):
            self._route_input = None
            return fn(*args, **kwargs)

        return compile_qfhe_to_circuit

    def _after_compile(self, args, kwargs, result):
        # The logical circuit is the one handed to route, if routing ran.
        logical = self._route_input or result.circuit
        c = self.counts
        c["compiler.circuits"] += 1
        c["compiler.instructions"] += len(logical.instructions)
        c["compiler.controlled_sdg"] += result.num_controlled_sdg

    def _after_noisy(self, args, kwargs, result):
        circ = args[0]
        c = self.counts
        c["noise.runs"] += 1
        c["noise.trajectories"] += sum(result.values())
        c["circuit.compacted_wires"] += len(
            {w for ins in circ.instructions for w in ins.wires}
        )

    # -- installation ---------------------------------------------------------

    def _wrapper_for(self, name: str, attr: str):
        after = {
            "route": self._after_route,
            "compile_qfhe_to_circuit": self._after_compile,
            "noisy_execute": self._after_noisy,
        }.get(attr)
        if name == "statevec.gate":
            after = self._after_gate

        def wrap(fn):
            if attr == "StateVector.project_z":
                fn = self._counting_projections(fn)
            wrapped = self._span(name, fn, after)
            if attr == "compile_qfhe_to_circuit":
                wrapped = self._forgetting_route(wrapped)
            return wrapped

        return wrap

    def install(self) -> None:
        """Wrap every entry point in SPANS and COUNTED across qfhesim."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        mods = {
            name.split(".", 1)[1]: mod
            for name, mod in sys.modules.items()
            if name.startswith("qfhesim.")
        }
        self._schedule_layers = mods["noise"].schedule_layers
        for name, mod, attr in SPANS:
            self._patch(mods, mods[mod], attr, self._wrapper_for(name, attr))
        for name, mod, attr in COUNTED:
            self._patch(
                mods, mods[mod], attr, lambda fn, name=name: self._counted(name, fn)
            )
        self._patch(
            mods, mods["statevec"], "StateVector.__init__", self._recording_width
        )

    def _patch(self, mods, module, attr, wrap) -> None:
        if "." in attr:
            cls_name, method = attr.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[method]
            setattr(owner, method, wrap(original))
            self._restore.append((owner, method, original))
            return
        original = getattr(module, attr)
        wrapped = wrap(original)
        # Rebind every module-level reference, including names imported with
        # ``from .pattern import run_interactive``.
        for mod in [*mods.values(), sys.modules["qfhesim"]]:
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapped)
                    self._restore.append((mod, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def snapshot(self) -> Counter:
        return Counter(self.counts)


def counters_of(cycle: Counter) -> dict:
    """The deterministic part of a cycle's counts: calls and computed sizes."""
    return {
        k: v
        for k, v in cycle.items()
        if v and not (k.endswith(".busy_s") or k.endswith(".self_s"))
    }


def layer_metrics(tracer: Tracer, first_cycle: Counter, cycles: int) -> dict:
    """Per-layer metrics of a traced run.

    Counts come from the first traced job cycle, so they repeat exactly from
    run to run.  Times are seconds per job cycle, averaged over all traced
    cycles.  Per-circuit statistics are means per circuit in the first cycle.
    """
    total = tracer.counts
    out: dict[str, float] = {}
    for span in SPAN_NAMES:
        out[f"{span}.calls"] = first_cycle[f"{span}.calls"]
        out[f"{span}.busy_s"] = total[f"{span}.busy_s"] / cycles
        out[f"{span}.self_s"] = total[f"{span}.self_s"] / cycles
    out["statevec.gate.bytes"] = first_cycle["statevec.gate.bytes"]
    out["statevec.qubits.max"] = tracer.max_qubits
    projections = first_cycle["statevec.project.calls"]
    out["statevec.project.zero_frac"] = (
        first_cycle["statevec.project.zero"] / projections if projections else 0.0
    )
    for name, _, _ in COUNTED:
        out[name] = first_cycle[name]
    out["noise.trajectories"] = first_cycle["noise.trajectories"]
    trajectories = total["noise.trajectories"]
    out["noise.trajectory_s"] = (
        total["noise.noisy_execute.busy_s"] / trajectories if trajectories else 0.0
    )
    for name, per in PER_CIRCUIT:
        n = first_cycle[per]
        out[name] = first_cycle[name] / n if n else 0.0
    units = dict(PER_LAYER)
    return {name: {"value": out[name], "unit": units[name]} for name in units}
