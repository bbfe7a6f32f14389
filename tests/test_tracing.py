"""The benchmark's tracer still finds every entry point it wraps.

``perfbench/tracing.py`` patches kernel methods through
``owner.__dict__[name]``; renaming or deleting one of them would break
traced benchmark runs with a KeyError.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import qfhesim
from qfhesim.cli import main
from qfhesim.statevec import StateVector, new_plus_state

REPO = Path(__file__).resolve().parents[1]


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", REPO / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(mod: str, attr: str):
    obj = sys.modules[f"qfhesim.{mod}"]
    if "." in attr:
        cls_name, name = attr.split(".")
        return getattr(obj, cls_name).__dict__[name]
    return getattr(obj, attr)


def test_tracer_installs_and_uninstalls_on_the_package():
    tracing = _load_tracing()
    entries = [(mod, attr) for _, mod, attr in (*tracing.SPANS, *tracing.COUNTED)]
    originals = [_resolve(mod, attr) for mod, attr in entries]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(_resolve(m, a) is not o for (m, a), o in zip(entries, originals))
        new_plus_state(2).measure_z(0, np.random.default_rng(0))
        StateVector(2).apply_gate("cnot", (0, 1))
    finally:
        tracer.uninstall()
    assert all(_resolve(m, a) is o for (m, a), o in zip(entries, originals))
    assert tracer.counts["statevec.measure.calls"] == 1
    assert tracer.counts["statevec.gate.calls"] == 1
    assert qfhesim.StateVector is StateVector


def test_traced_run_writes_the_untraced_bytes(tmp_path):
    tracing = _load_tracing()
    args = ["run", "--mode", "qfhe-circuit-noisy", "--pattern", "reference"]
    args += ["--inputs", "5", "--shots", "4", "--seed", "3"]
    args += ["--coupling", str(REPO / "couplings" / "ladder16.txt")]
    assert main([*args, "--out", str(tmp_path / "plain")]) == 0
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert main([*args, "--out", str(tmp_path / "traced")]) == 0
    finally:
        tracer.uninstall()
    assert tracer.counts["noise.trajectories"] == 4
    for name in ("report.json", "table.csv"):
        plain = (tmp_path / "plain" / name).read_bytes()
        assert (tmp_path / "traced" / name).read_bytes() == plain
