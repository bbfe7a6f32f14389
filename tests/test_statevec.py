"""Gate kernel, preparation, and measurement contracts."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from math import pi, sqrt

from qfhesim.statevec import (
    GATES_1Q,
    GATES_2Q,
    BranchBatch,
    ShotBatch,
    StateVector,
    Y_BASIS_ANGLE,
    apply_rows,
    gate_matrix,
    make_bell_pair,
    new_plus_state,
    rz_matrix,
    split_rows,
    trace_distance_pure,
)


def rand_state(rng, n=1):
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return v / np.linalg.norm(v)


# -- preparation ----------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_plus_state_amplitudes(n):
    sv = new_plus_state(n)
    assert np.allclose(sv.amps, 2.0 ** (-n / 2.0), atol=1e-15)
    assert abs(sv.norm() - 1.0) < 1e-12


@pytest.mark.parametrize("n", [0, -1, 21])
def test_plus_state_range_guard(n):
    with pytest.raises(ValueError):
        new_plus_state(n)


# -- gate application -----------------------------------------------------


def test_h_on_zero_gives_plus():
    sv = StateVector(1).apply_gate("h", (0,))
    assert np.allclose(sv.amps, [1 / sqrt(2), 1 / sqrt(2)], atol=1e-15)


def test_cz_on_plus_plus():
    sv = new_plus_state(2).apply_gate("cz", (0, 1))
    assert np.allclose(sv.amps, [0.5, 0.5, 0.5, -0.5], atol=1e-15)


def test_t_phases_one():
    sv = StateVector(1, np.array([0, 1], dtype=complex)).apply_gate("t", (0,))
    assert np.allclose(sv.amps, [0, np.exp(1j * pi / 4)], atol=1e-15)


def test_apply_gate_errors():
    sv = StateVector(2)
    with pytest.raises(ValueError):
        sv.apply_gate("cnot", (0,))
    with pytest.raises(ValueError):
        sv.apply_gate("h", (2,))
    with pytest.raises(ValueError):
        sv.apply_gate("cz", (1, 1))
    with pytest.raises(ValueError):
        sv.apply_gate("nope", (0,))


def test_rz_without_angle_is_rejected():
    with pytest.raises(ValueError, match="rz requires an angle parameter"):
        gate_matrix("rz")
    with pytest.raises(ValueError, match="rz requires an angle parameter"):
        StateVector(1).apply_gate("rz", (0,))


def test_gate_application_matches_matrices():
    # Dense-kernel application must agree with explicit kron products.
    rng = np.random.default_rng(5)
    for name in list(GATES_1Q) + ["rz"]:
        param = 0.7 if name == "rz" else None
        m = gate_matrix(name, param)
        psi = rand_state(rng, 3)
        for q in range(3):
            sv = StateVector(3, psi.copy()).apply_gate(name, (q,), param)
            full = [np.eye(2)] * 3
            full[q] = m
            ref = np.kron(np.kron(full[2], full[1]), full[0]) @ psi
            assert np.allclose(sv.amps, ref, atol=1e-12), (name, q)
    for name in GATES_2Q:
        m = gate_matrix(name)
        psi = rand_state(rng, 2)
        sv = StateVector(2, psi.copy()).apply_gate(name, (0, 1))
        assert np.allclose(sv.amps, m @ psi, atol=1e-12), name
        # reversed wire order for the directional gate
        sv = StateVector(2, psi.copy()).apply_gate(name, (1, 0))
        swap = gate_matrix("swap")
        ref = swap @ m @ swap @ psi
        assert np.allclose(sv.amps, ref, atol=1e-12), name


def test_unitarity_of_all_gate_kinds():
    for name in GATES_1Q:
        m = gate_matrix(name)
        assert np.allclose(m.conj().T @ m, np.eye(2), atol=1e-12)
    for theta in (0.3, pi / 4, 5.1):
        m = rz_matrix(theta)
        assert np.allclose(m.conj().T @ m, np.eye(2), atol=1e-12)
    for name in GATES_2Q:
        m = gate_matrix(name)
        assert np.allclose(m.conj().T @ m, np.eye(4), atol=1e-12)


def test_gate_involutions_and_powers():
    rng = np.random.default_rng(6)
    psi = rand_state(rng, 2)
    for name in ("h", "x", "z"):
        sv = StateVector(2, psi.copy())
        sv.apply_gate(name, (1,)).apply_gate(name, (1,))
        assert np.allclose(sv.amps, psi, atol=1e-12)
    tt = StateVector(2, psi.copy()).apply_gate("t", (0,)).apply_gate("t", (0,))
    s = StateVector(2, psi.copy()).apply_gate("s", (0,))
    assert np.allclose(tt.amps, s.amps, atol=1e-12)
    ss = StateVector(2, psi.copy()).apply_gate("s", (0,)).apply_gate("s", (0,))
    z = StateVector(2, psi.copy()).apply_gate("z", (0,))
    assert np.allclose(ss.amps, z.amps, atol=1e-12)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["h", "x", "y", "z", "s", "t", "cz", "cnot", "swap"]),
                          st.integers(0, 2), st.integers(0, 2)), max_size=25))
def test_norm_preserved_by_random_sequences(ops):
    sv = new_plus_state(3)
    for name, a, b in ops:
        if name in GATES_1Q:
            sv.apply_gate(name, (a,))
        elif a != b:
            sv.apply_gate(name, (a, b))
    assert abs(sv.norm() - 1.0) < 1e-10


def generic_1q(amps, m, q):
    """The generic 2x2 product the kernel ran for every one-qubit gate."""
    view = amps.reshape(-1, 2, 1 << q)
    v0 = view[:, 0, :]
    v1 = view[:, 1, :]
    t0 = m[0, 0] * v0 + m[0, 1] * v1
    t1 = m[1, 0] * v0 + m[1, 1] * v1
    view[:, 0, :] = t0
    view[:, 1, :] = t1


def permuted_2q(amps, name, a, b):
    """A two-qubit gate as the index permutation (and sign) it is."""
    idx = np.arange(len(amps))
    bit_a, bit_b = (idx >> a) & 1, (idx >> b) & 1
    if name == "cz":
        return np.where(bit_a & bit_b, -amps, amps)
    if name == "cnot":
        return amps[idx ^ (bit_a << b)]
    return amps[idx ^ ((bit_a ^ bit_b) * ((1 << a) | (1 << b)))]


@pytest.mark.parametrize("num_rows", [1, 3])
@pytest.mark.parametrize("n", range(1, 13))
def test_row_kernel_matches_generic_product(n, num_rows):
    # Every gate kind on every target (ordered pair), on rows with exact
    # zeros: apply_rows gives the generic formula's amplitudes exactly.
    rng = np.random.default_rng(1000 * n + num_rows)
    for name in [*GATES_1Q, "rz", *GATES_2Q]:
        arity = 2 if name in GATES_2Q else 1
        for targets in itertools.permutations(range(n), arity):
            rows = rng.normal(size=(num_rows, 1 << n)) + 1j * rng.normal(
                size=(num_rows, 1 << n)
            )
            rows[rng.random(rows.shape) < 0.25] = 0.0
            param = float(rng.uniform(-pi, pi)) if name == "rz" else None
            want = rows.copy()
            for row in want:
                if arity == 1:
                    generic_1q(row, gate_matrix(name, param), targets[0])
                else:
                    row[:] = permuted_2q(row, name, *targets)
            apply_rows(rows, name, targets, param)
            assert np.array_equal(rows, want), (name, targets)


# -- Bell pairs -----------------------------------------------------------


@pytest.mark.parametrize(
    "x,y,want",
    [
        # index = first_qubit + 2 * second_qubit
        (0, 0, [1, 0, 0, 1]),
        (0, 1, [0, 1, 1, 0]),
        (1, 0, [1, 0, 0, -1]),
        (1, 1, [0, -1, 1, 0]),
    ],
)
def test_bell_pair_table(x, y, want):
    got = make_bell_pair(x, y).amps * sqrt(2)
    assert np.allclose(got, want, atol=1e-12)


def test_bell_correlations():
    rng = np.random.default_rng(7)
    for x, y in [(0, 0), (1, 0), (0, 1), (1, 1)]:
        same = x in (0, 1) and y == 0
        for _ in range(20):
            sv = make_bell_pair(x, y)
            b0 = sv.measure_z(0, rng).bit
            b1 = sv.measure_z(1, rng).bit
            if same:
                assert b0 == b1
            else:
                assert b0 != b1


# -- computational measurement ---------------------------------------------


def test_measure_zero_state_deterministic():
    rng = np.random.default_rng(8)
    out = StateVector(1).measure_z(0, rng)
    assert out.bit == 0 and abs(out.probability - 1.0) < 1e-12


def test_measure_plus_is_unbiased():
    rng = np.random.default_rng(9)
    ones = sum(new_plus_state(1).measure_z(0, rng).bit for _ in range(4000))
    assert 1800 < ones < 2200


def test_remeasure_same_basis_is_stable():
    rng = np.random.default_rng(10)
    sv = new_plus_state(2)
    first = sv.measure_z(1, rng)
    again = sv.measure_z(1, rng)
    assert again.bit == first.bit and abs(again.probability - 1.0) < 1e-12
    phi = 3 * pi / 4
    sv2 = new_plus_state(1)
    b = sv2.measure_rotated(0, phi, rng).bit
    again = sv2.measure_rotated(0, phi, rng)
    assert again.bit == b and abs(again.probability - 1.0) < 1e-12


def test_measurement_completeness():
    rng = np.random.default_rng(11)
    for _ in range(25):
        psi = rand_state(rng, 2)
        for q in (0, 1):
            p1 = StateVector(2, psi.copy()).probability_one(q)
            assert -1e-12 <= p1 <= 1 + 1e-12
            p0 = StateVector(2, psi.copy()).project_z(q, 0)
            p1b = StateVector(2, psi.copy()).project_z(q, 1)
            assert abs(p0 + p1b - 1.0) < 1e-12


# -- rotated measurement ----------------------------------------------------


def equatorial(phi, sign=1):
    return np.array([1, sign * np.exp(1j * phi)], dtype=complex) / sqrt(2)


def test_rotated_eigenstate_deterministic():
    rng = np.random.default_rng(12)
    for phi in (0.0, pi / 4, 5 * pi / 4):
        sv = StateVector(1, equatorial(phi))
        out = sv.measure_rotated(0, phi, rng)
        assert out.bit == 0 and abs(out.probability - 1.0) < 1e-12
        sv = StateVector(1, equatorial(phi, sign=-1))
        out = sv.measure_rotated(0, phi, rng)
        assert out.bit == 1 and abs(out.probability - 1.0) < 1e-12


class FixedDraw:
    """Generator stand-in whose uniform draws all return one value."""

    def __init__(self, u):
        self.u = u
        self.calls = 0

    def random(self):
        self.calls += 1
        return self.u


@pytest.mark.parametrize("p1", [0.0, 1e-16, 1 - 1e-16])
@pytest.mark.parametrize("u", [0.0, 1 - 2**-53])
def test_measure_z_reports_the_branch_it_projects(p1, u):
    # Extreme draws pick the near-impossible branch where one exists; the
    # reported bit must be the one the state collapses onto.
    sv = StateVector(1, [sqrt(1 - p1), sqrt(p1)])
    rng = FixedDraw(u)
    out = sv.measure_z(0, rng)
    assert rng.calls == 1
    assert out.probability > 0.5
    assert sv.probability_one(0) == pytest.approx(out.bit, abs=1e-12)


@pytest.mark.parametrize("p1", [0.0, 1e-16, 1 - 1e-16])
@pytest.mark.parametrize("u", [0.0, 1 - 2**-53])
def test_shot_batch_reports_the_branch_measure_z_reports(p1, u):
    amps = [sqrt(1 - p1), sqrt(p1)]
    want = StateVector(1, amps).measure_z(0, FixedDraw(u)).bit
    batch = ShotBatch(StateVector(1, amps), [[u]])
    assert batch.measure(0).tolist() == [want]
    assert batch.wires == [] and batch.amps.shape == (1, 1)
    assert abs(batch.amps[0, 0]) == pytest.approx(1.0)


def test_shot_batch_matches_scalar_measurements():
    # Every shot of the batch must read the bits the scalar register reads
    # from the same generator, in the rz/H frame, wire by wire.  As in the
    # protocol, a shot's angle is picked by its earlier bits, so shots that
    # share a row share it while the rows' angles differ.
    rng = np.random.default_rng(14)
    n, shots = 5, 16
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    amps /= np.linalg.norm(amps)
    order = [3, 0, 4, 1, 2]
    phis = rng.uniform(0, 2 * pi, size=(n, 1 << n))
    uniforms = [np.random.default_rng([7, r]).random(n) for r in range(shots)]
    batch = ShotBatch(StateVector(n, amps), uniforms)
    history = np.zeros(shots, dtype=int)
    bits, distinct = [], set()
    for step, wire in enumerate(order):
        phi = None if step == 2 else phis[step][history]
        if phi is not None:
            distinct.add(len(set(phi.tolist())))
        bits.append(batch.measure(wire, phi))
        history += bits[-1] << step
    assert max(distinct) > 1
    for r in range(shots):
        sv, draw = StateVector(n, amps), np.random.default_rng([7, r])
        past = 0
        for step, wire in enumerate(order):
            if step == 2:
                out = sv.measure_z(wire, draw)
            else:
                out = sv.measure_rotated(wire, phis[step][past], draw)
            assert out.bit == bits[step][r]
            past += out.bit << step


def test_shot_batch_rejects_two_angles_in_one_row():
    # Both shots start on the one row: they share a history, so they cannot
    # carry two angles.  Once their bits part them, they can.
    batch = ShotBatch(new_plus_state(2), [[0.0, 0.5], [1 - 2**-53, 0.5]])
    with pytest.raises(ValueError, match="share a row"):
        batch.measure(0, [0.0, pi / 2])
    assert batch.measure(0).tolist() == [1, 0]
    assert len(batch.amps) == 2
    batch.measure(1, [0.0, pi / 2])


def test_split_rows_gives_each_drawn_pair_one_row_key_major():
    # Items on rows 2, 0, 2, 2, 0 of 3 with keys 0, 1, 0, 1, 0: the pairs
    # (key, row) drawn are (0, 0), (0, 2), (1, 0), (1, 2), in that order.
    old, key = np.array([2, 0, 2, 2, 0]), np.array([0, 1, 0, 1, 0])
    parent, kept, row_of = split_rows(old, key, 3)
    assert parent.tolist() == [0, 2, 0, 2] and kept.tolist() == [0, 0, 1, 1]
    assert row_of.tolist() == [1, 2, 1, 3, 0]
    rng = np.random.default_rng(17)
    for rows in (1, 2, 7):
        old = rng.integers(0, rows, size=20)
        key = rng.random(20) < 0.3
        parent, kept, row_of = split_rows(old, key, rows)
        # One row per pair some item has, none for the rest, key-major.
        assert list(zip(kept.tolist(), parent.tolist())) == sorted(
            set(zip(key.astype(int).tolist(), old.tolist()))
        )
        assert np.array_equal(parent[row_of], old) and np.array_equal(kept[row_of], key)


def test_branch_rows_are_the_halves_shot_batch_keeps():
    # A one-row ShotBatch whose uniforms force each bit (0 reads 1, just
    # below 1 reads 0) must keep, step by step, the BranchBatch row of the
    # same bits, normalized.  The latest bit leads, so the row of bits
    # b0..bk is b0 + 2 b1 + ... + 2^k bk, and bit k broadcasts to it.
    rng = np.random.default_rng(16)
    n = 5
    for _ in range(6):
        amps = rand_state(rng, n)
        order = [int(w) for w in rng.permutation(n)]
        computational = rng.choice(n, 2, replace=False)
        phis = [
            None if k in computational else rng.uniform(0, 2 * pi, size=(2,) * k)
            for k in range(n)
        ]
        branch = BranchBatch(StateVector(n, amps))
        steps = []
        for k, wire in enumerate(order):
            bit = branch.measure(wire, phis[k])
            assert bit.shape == (2,) + (1,) * k and branch.shape == (2,) * (k + 1)
            assert branch.amps.shape == (2 << k, 1 << (n - 1 - k))
            steps.append((bit, branch.amps.copy()))
        assert np.sum(np.abs(branch.amps) ** 2) == pytest.approx(1.0, abs=1e-12)
        for r in range(1 << n):
            bits = [(r >> k) & 1 for k in range(n)]
            uniforms = [0.0 if b else 1 - 2**-53 for b in bits]
            shot = ShotBatch(StateVector(n, amps), [uniforms])
            for k, (wire, (bit, rows)) in enumerate(zip(order, steps)):
                phi = phis[k]
                if phi is not None:
                    phi = [phi[tuple(bits[:k][::-1])]]
                assert shot.measure(wire, phi).tolist() == [bits[k]]
                assert np.broadcast_to(bit, (2,) * n).ravel()[r] == bits[k]
                row = rows[r % (2 << k)]
                assert np.allclose(row / np.linalg.norm(row), shot.amps[0], atol=1e-12)


def test_shot_batch_keeps_the_projected_rest():
    rng = np.random.default_rng(15)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    amps /= np.linalg.norm(amps)
    uniforms = [np.random.default_rng(r).random(1) for r in range(4)]
    batch = ShotBatch(StateVector(3, amps), uniforms)
    bits = batch.measure(1, pi / 4)
    assert batch.wires == [0, 2]
    # One row per bit the shots drew, each shot's read through row_of.
    assert len(batch.amps) == len(set(bits.tolist()))
    for r, bit in enumerate(bits):
        sv = StateVector(3, amps)
        p = sv.project_rotated(1, pi / 4, int(bit))
        # The scalar register keeps qubit 1 in |+-_phi>; contract it away.
        view = sv.amps.reshape(2, 2, 2)
        sign = -1 if bit else 1
        rest = (view[:, 0, :] + sign * np.exp(-1j * pi / 4) * view[:, 1, :]) / sqrt(2)
        assert p > 0
        assert np.allclose(batch.amps[batch.row_of[r]], rest.reshape(-1), atol=1e-12)


def test_measure_z_reduces_over_the_register_once(monkeypatch):
    calls = []
    real = StateVector.probability_one
    monkeypatch.setattr(
        StateVector, "probability_one", lambda sv, q: calls.append(q) or real(sv, q)
    )
    out = new_plus_state(3).measure_z(1, np.random.default_rng(0))
    assert calls == [1]
    assert out.probability == pytest.approx(0.5)


def test_rotated_post_state_projected():
    rng = np.random.default_rng(13)
    phi = pi / 2
    sv = StateVector(1)
    out = sv.measure_rotated(0, phi, rng)
    want = equatorial(phi, sign=1 if out.bit == 0 else -1)
    assert trace_distance_pure(out.post_state.amps, want) < 1e-9


def test_zero_state_unbiased_in_any_rotated_basis():
    for phi in (0.0, pi / 4, pi, 3 * pi / 2):
        p = StateVector(1).project_rotated(0, phi, 0)
        assert abs(p - 0.5) < 1e-12


def test_pauli_basis_measurement():
    rng = np.random.default_rng(14)
    out = new_plus_state(1).measure_pauli_basis(0, "X", rng)
    assert out.bit == 0 and abs(out.probability - 1.0) < 1e-12
    p = StateVector(1).project_rotated(0, Y_BASIS_ANGLE, 0)
    assert abs(p - 0.5) < 1e-12
    with pytest.raises(ValueError):
        new_plus_state(1).measure_pauli_basis(0, "Z", rng)


def test_y_basis_outcome_fixed_by_inner_product_oracle():
    # Oracle: explicit overlaps with the Y-basis states at 3*pi/2.
    psi = np.array([1, 1j], dtype=complex) / sqrt(2)
    plus_y = equatorial(Y_BASIS_ANGLE)
    minus_y = equatorial(Y_BASIS_ANGLE, sign=-1)
    p0_oracle = abs(np.vdot(plus_y, psi)) ** 2
    p1_oracle = abs(np.vdot(minus_y, psi)) ** 2
    assert abs(p0_oracle - 0.0) < 1e-12 and abs(p1_oracle - 1.0) < 1e-12

    rng = np.random.default_rng(15)
    out = StateVector(1, psi.copy()).measure_pauli_basis(0, "Y", rng)
    assert out.bit == 1 and abs(out.probability - 1.0) < 1e-12


def test_pauli_conjugation_shifts_measurement_angle():
    # Measuring X|psi> at phi matches |psi> at -phi; Z|psi> at phi matches
    # |psi> at phi + pi.  Checked on probability level for random states.
    rng = np.random.default_rng(16)
    for _ in range(10):
        psi = rand_state(rng, 1)
        for phi in (0.0, pi / 4, pi / 2, pi, 3 * pi / 2):
            for bit in (0, 1):
                x_psi = StateVector(1, psi.copy()).apply_gate("x", (0,))
                p_a = x_psi.copy().project_rotated(0, phi, bit)
                p_b = StateVector(1, psi.copy()).project_rotated(0, -phi, bit)
                assert abs(p_a - p_b) < 1e-12
                z_psi = StateVector(1, psi.copy()).apply_gate("z", (0,))
                p_c = z_psi.copy().project_rotated(0, phi, bit)
                p_d = StateVector(1, psi.copy()).project_rotated(0, phi + pi, bit)
                assert abs(p_c - p_d) < 1e-12


def test_trace_distance_pure_is_stable():
    rng = np.random.default_rng(17)
    psi = rand_state(rng, 1)
    assert trace_distance_pure(psi, psi * np.exp(0.3j)) < 1e-12
    ortho = np.array([psi[1].conj(), -psi[0].conj()])
    assert abs(trace_distance_pure(psi, ortho) - 1.0) < 1e-12
