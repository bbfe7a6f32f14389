"""The breadth-first branch walk against a recursive reference walk.

The reference walks one branch at a time on the scalar ``StateVector``: a
copy per branch, collapsed with ``project_rotated``.  It shares no
projection code with ``protocol._walk_branches``, whose rows are branches.
"""

from math import pi

import numpy as np
import pytest

from qfhesim import protocol
from qfhesim.circuit import readout_code, readout_strings
from qfhesim.harness import input_bits_of, reference_pattern
from qfhesim.pattern import (
    FlowMap,
    MeasurementPattern,
    OpenGraph,
    _corrected_angle_k,
    _with_input_flips,
    input_keys,
    random_pattern,
)
from qfhesim.protocol import (
    _corrected_bit,
    client_basis,
    enumerate_branches,
    server_output_marginals_exact,
)
from qfhesim.statevec import Y_BASIS_ANGLE, ZERO_BRANCH_P, BranchBatch

TOL = 1e-12


def recursive_walk(pattern, input_bits, mode, direct_input_prep=False):
    """Exact output law, one measurement branch at a time, depth first."""
    plan = pattern.plan
    keys = input_keys(pattern, input_bits)
    direct = None
    if direct_input_prep:
        direct, keys = dict(keys), {v: 0 for v in keys}
    register = plan.graph_register if mode == "interactive" else plan.register
    sv0 = _with_input_flips(register, plan.wire_of, direct)
    order, outs = pattern.flow.order, pattern.graph.outputs
    width = len(outs)
    code = readout_code(sv0.num_qubits, [plan.wire_of[o] for o in outs])
    dist = {}

    def branches(sv, q, phi):
        for bit in (0, 1):
            nxt = sv.copy()
            p = nxt.project_rotated(q, phi, bit)
            if p > 0.0:
                yield bit, p, nxt

    def walk(sv, prob, idx, b, alpha):
        if prob <= 1e-15:
            return
        if idx == len(order):
            mask = 0
            if mode != "raw":
                for pos, o in enumerate(outs):
                    mask |= plan.corrected_output(o, 0, b) << (width - 1 - pos)
            law = np.bincount(code, weights=np.abs(sv.amps) ** 2, minlength=1 << width)
            for raw, p in enumerate(law):
                if p > 0.0:
                    key = format(raw ^ mask, f"0{width}b")
                    dist[key] = dist.get(key, 0.0) + prob * p
            return
        i = order[idx]
        if mode == "interactive":
            x, z = plan.byproducts(i, b, keys)
            phi = _corrected_angle_k(pattern.angles[i], x, z) * pi / 4
        else:
            phi = pattern.angle_rad(i)
        companions = [(None, 1.0, sv)]
        if mode == "qfhe" and plan.family[i] == "gadget":
            basis = client_basis(plan.byproducts(i, b, keys)[0])
            phi_c = 0.0 if basis == "X" else Y_BASIS_ANGLE
            companions = branches(sv, plan.wire_of[("companion", i)], phi_c)
        for a_out, pa, mid in companions:
            alpha2 = alpha if a_out is None else {**alpha, i: a_out}
            for outcome, ps, nxt in branches(mid, plan.wire_of[i], phi):
                bit = outcome
                if mode == "qfhe":
                    bit = _corrected_bit(pattern, i, {i: outcome}, b, alpha2, keys)
                walk(nxt, prob * pa * ps, idx + 1, {**b, i: bit}, alpha2)

    walk(sv0, 1.0, 0, {}, {})
    return dist


def assert_same_law(got, want, where):
    for key in set(got) | set(want):
        p, q = got.get(key, 0.0), want.get(key, 0.0)
        assert abs(p - q) <= TOL, (where, key, p, q)
        if max(p, q) > TOL:
            assert key in got and key in want, (where, key, p, q)


def assert_same_raw_readouts(pattern, bits, where):
    """The raw-readout law, and the blindness marginals taken from it."""
    law = recursive_walk(pattern, bits, "raw")
    assert_same_law(
        readout_strings(protocol._walk_branches(pattern, bits, "raw")), law, where
    )
    want = {
        o: sum(p for key, p in law.items() if key[pos] == "1")
        for pos, o in enumerate(pattern.graph.outputs)
    }
    got = server_output_marginals_exact(pattern, bits)
    assert got.keys() == want.keys()
    for o in want:
        assert abs(got[o] - want[o]) <= TOL, (where, o, got[o], want[o])


@pytest.mark.parametrize("value", range(8))
def test_reference_pattern_agrees_with_recursive_walk(value):
    ref = reference_pattern()
    bits = input_bits_of(ref, value)
    for mode in ("interactive", "qfhe"):
        for direct in (False, True):
            assert_same_law(
                enumerate_branches(ref, bits, mode, direct),
                recursive_walk(ref, bits, mode, direct),
                (value, mode, direct),
            )
    assert_same_raw_readouts(ref, bits, (value, "raw"))


def test_random_patterns_agree_with_recursive_walk():
    rng = np.random.default_rng(2718)
    for trial in range(50):
        pat = random_pattern(rng, max_measured=5)
        bits = [int(rng.integers(2)) for _ in pat.graph.inputs]
        for mode in ("interactive", "qfhe"):
            assert_same_law(
                enumerate_branches(pat, bits, mode),
                recursive_walk(pat, bits, mode),
                (trial, mode),
            )
        assert_same_raw_readouts(pat, bits, (trial, "raw"))


def j0_chain():
    graph = OpenGraph((1, 2), ((1, 2),), (1,), (2,))
    return MeasurementPattern(graph, FlowMap({1: 2}, (1,)), {1: 0})


@pytest.mark.parametrize(
    "pattern, bits, mode",
    [
        (reference_pattern(), [0, 1, 0], "qfhe"),
        (reference_pattern(), [1, 1, 0], "interactive"),
        (reference_pattern(), [0, 0, 1], "raw"),
        (j0_chain(), [0], "interactive"),
        (j0_chain(), [1], "qfhe"),
    ],
)
def test_walk_never_holds_more_than_the_register(monkeypatch, pattern, bits, mode):
    sizes = []  # (rows, columns) before and after every split
    real = BranchBatch.measure

    def spy(self, wire, phi=None):
        before = self.amps.shape
        bit = real(self, wire, phi)
        sizes.extend((before, self.amps.shape))
        return bit

    monkeypatch.setattr(BranchBatch, "measure", spy)
    protocol._walk_branches(pattern, bits, mode)
    n = len(pattern.graph.nodes) if mode == "interactive" else len(pattern.plan.wire_of)
    assert sizes and all(rows * cols <= 1 << n for rows, cols in sizes)


@pytest.mark.parametrize("bits", [[0], [1]])
@pytest.mark.parametrize("mode", ["interactive", "qfhe", "raw"])
def test_pruned_law_keeps_the_outcomes_of_the_recursive_walk(bits, mode):
    # The j0 chain's corrected readout is deterministic, so its interactive
    # and qfhe laws each have an outcome of probability zero; either walk
    # may keep it as a key of rounding residue, at or below ZERO_BRANCH_P.
    def support(law):
        return {key for key, p in law.items() if p > ZERO_BRANCH_P}

    law = readout_strings(protocol._walk_branches(j0_chain(), bits, mode))
    assert support(law) == support(recursive_walk(j0_chain(), bits, mode))
