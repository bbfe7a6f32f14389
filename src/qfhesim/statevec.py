"""Dense state-vector engine for few-qubit registers.

Conventions shared by the whole package:

* Basis states of an ``n``-qubit register are indexed by integers; bit ``q``
  of the index (least significant bit = qubit 0) is the computational value
  of qubit ``q``.
* ``rz(theta)`` is the phase rotation ``diag(1, exp(i*theta))``, so
  ``rz(pi/4) == t`` and ``rz(pi/2) == s`` hold exactly.
* A rotated measurement at angle ``phi`` projects onto
  ``|+_phi> = (|0> + e^{i phi}|1>)/sqrt(2)`` (outcome 0) and
  ``|-_phi> = (|0> - e^{i phi}|1>)/sqrt(2)`` (outcome 1).  ``StateVector``
  realises it as ``rz(-phi)``, ``h``, computational readout, frame restored
  afterwards; ``ShotBatch`` and ``BranchBatch`` project onto it directly
  (``halves``).
* The Y readout basis is the rotated basis at ``phi = 3*pi/2``, i.e.
  outcome 0 corresponds to ``(|0> - i|1>)/sqrt(2)``.  The X basis is
  ``phi = 0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi, sqrt

import numpy as np

MAX_QUBITS = 20
# Branches at or below this probability are impossible: never projected onto.
ZERO_BRANCH_P = 1e-15
# Amplitude bytes the registers of one batch of shots or trajectories may
# hold, whatever the shot count.
SHOT_CHUNK_BYTES = 1 << 20
# At their peaks, ``streams._pcg_raw`` holds this many arrays of its result's
# size, its result among them, and the seed hash this many words per row.
RAW_TEMPORARIES = 8
SEED_HASH_WORDS = 24

_INV_SQRT2 = 1.0 / sqrt(2.0)

Y_BASIS_ANGLE = 3 * pi / 2

GATES_1Q = {
    "h": np.array([[1, 1], [1, -1]], dtype=complex) * _INV_SQRT2,
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
    "t": np.array([[1, 0], [0, np.exp(1j * pi / 4)]], dtype=complex),
    "tdg": np.array([[1, 0], [0, np.exp(-1j * pi / 4)]], dtype=complex),
}

GATES_2Q = ("cz", "cnot", "swap")
# diag(1, phase) gates: only the |1> half changes.
_PHASE_GATES = ("z", "s", "sdg", "t", "tdg", "rz")

GATE_ARITY = {name: 1 for name in GATES_1Q}
GATE_ARITY["rz"] = 1
GATE_ARITY.update({name: 2 for name in GATES_2Q})


def rz_matrix(theta: float) -> np.ndarray:
    """Phase rotation diag(1, e^{i theta})."""
    if theta is None:
        raise ValueError("rz requires an angle parameter")
    return np.array([[1, 0], [0, np.exp(1j * theta)]], dtype=complex)


def gate_matrix(name: str, param: float | None = None) -> np.ndarray:
    """Unitary matrix of a gate kind.

    Two-qubit matrices are given in the basis ``|w1 w0>`` where ``w0`` is the
    first wire argument (index = bit0 + 2*bit1); for ``cnot`` the first wire
    is the control.
    """
    if name == "rz":
        return rz_matrix(param)
    if name in GATES_1Q:
        return GATES_1Q[name].copy()
    if name == "cz":
        return np.diag([1, 1, 1, -1]).astype(complex)
    if name == "cnot":
        m = np.eye(4, dtype=complex)
        m[[1, 3]] = m[[3, 1]]
        return m
    if name == "swap":
        m = np.eye(4, dtype=complex)
        m[[1, 2]] = m[[2, 1]]
        return m
    raise ValueError(f"unknown gate kind: {name!r}")


def rows_per_chunk(num_qubits: int) -> int:
    """Registers of `num_qubits` that ``SHOT_CHUNK_BYTES`` holds, at least 1."""
    return max(1, SHOT_CHUNK_BYTES // (16 << num_qubits))


def shots_per_chunk(draws: int) -> int:
    """Sampled shots of `draws` measurements that ``SHOT_CHUNK_BYTES`` holds.

    A chunk holds the most at once inside ``streams.uniforms``: per shot,
    its seed hash, then its uniforms beside the LCG's arrays of `draws`
    words, at most ``RAW_TEMPORARIES`` of them together.  The protocol then
    holds less: the uniforms, a row index and three bit arrays per draw.
    """
    return max(1, SHOT_CHUNK_BYTES // (8 * (RAW_TEMPORARIES * draws + SEED_HASH_WORDS)))


def require_shots(shots) -> None:
    """Reject a shot count that is not an integer of at least 1 (bools too)."""
    if isinstance(shots, bool) or not isinstance(shots, (int, np.integer)) or shots < 1:
        raise ValueError(f"shots = {shots!r} is not a positive integer")


@dataclass
class MeasurementOutcome:
    """Result of a single projective measurement."""

    bit: int
    probability: float
    post_state: "StateVector"


class StateVector:
    """Amplitudes of an n-qubit register.  Mutable, single-owner.

    Operations mutate in place and return ``self`` so calls can be chained.
    Distinct shots must run on distinct instances.
    """

    __slots__ = ("num_qubits", "amps")

    def __init__(self, num_qubits: int, amps: np.ndarray | None = None):
        if not 1 <= num_qubits <= MAX_QUBITS:
            raise ValueError(
                f"qubit count {num_qubits} outside supported range 1..{MAX_QUBITS}"
            )
        self.num_qubits = num_qubits
        if amps is None:
            amps = np.zeros(1 << num_qubits, dtype=complex)
            amps[0] = 1.0
        else:
            amps = np.array(amps, dtype=complex)
            if amps.shape != (1 << num_qubits,):
                raise ValueError("amplitude vector length must be 2**num_qubits")
        self.amps = amps

    def copy(self) -> "StateVector":
        return StateVector(self.num_qubits, self.amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def _check_targets(self, targets: tuple[int, ...], arity: int) -> None:
        if len(targets) != arity:
            raise ValueError(f"gate expects {arity} target(s), got {len(targets)}")
        if arity == 2 and targets[0] == targets[1]:
            raise ValueError(f"duplicate targets {targets}")
        for q in targets:
            if not 0 <= q < self.num_qubits:
                raise ValueError(f"qubit index {q} out of range 0..{self.num_qubits - 1}")

    def apply_gate(
        self, gate: str, targets: tuple[int, ...] | list[int], param: float | None = None
    ) -> "StateVector":
        targets = tuple(targets)
        arity = GATE_ARITY.get(gate)
        if arity is None:
            raise ValueError(f"unknown gate kind: {gate!r}")
        self._check_targets(targets, arity)
        if arity == 1:
            self._apply_1q(gate, targets[0], param)
        else:
            getattr(self, f"_apply_{gate}")(*targets)
        return self

    # Per-kind entry points (perfbench/tracing.py spans them by name), each
    # one row of ``apply_rows``.
    def _apply_1q(self, gate: str, q: int, param: float | None = None) -> None:
        apply_rows(self.amps[None, :], gate, (q,), param)

    def _apply_cz(self, a: int, b: int) -> None:
        apply_rows(self.amps[None, :], "cz", (a, b))

    def _apply_cnot(self, control: int, target: int) -> None:
        apply_rows(self.amps[None, :], "cnot", (control, target))

    def _apply_swap(self, a: int, b: int) -> None:
        apply_rows(self.amps[None, :], "swap", (a, b))

    # -- measurement -----------------------------------------------------

    def probability_one(self, q: int) -> float:
        """Probability of reading 1 on qubit q in the computational basis."""
        self._check_targets((q,), 1)
        view = self.amps.reshape(-1, 2, 1 << q)
        return float(np.sum(np.abs(view[:, 1, :]) ** 2))

    def _collapse(self, q: int, bit: int, p1: float) -> float:
        """Collapse qubit q onto `bit`, given its probability of reading 1.

        Returns the probability of that branch; the state is left unchanged
        when the branch has probability 0.
        """
        p = p1 if bit else 1.0 - p1
        if p <= ZERO_BRANCH_P:
            return 0.0
        view = self.amps.reshape(-1, 2, 1 << q)
        view[:, 1 - bit, :] = 0.0
        self.amps /= sqrt(p)
        return p

    def project_z(self, q: int, bit: int) -> float:
        """Collapse qubit q onto computational value `bit` (see ``_collapse``)."""
        return self._collapse(q, bit, self.probability_one(q))

    def measure_z(self, q: int, rng: np.random.Generator) -> MeasurementOutcome:
        p1 = self.probability_one(q)
        bit = 1 if rng.random() < p1 else 0
        # Report the other bit when the drawn branch is one _collapse refuses.
        if (p1 if bit else 1.0 - p1) <= ZERO_BRANCH_P:
            bit ^= 1
        return MeasurementOutcome(bit, self._collapse(q, bit, p1), self)

    def _in_rotated_frame(self, q: int, phi: float, readout):
        """Run ``readout()`` with |+_phi>/|-_phi> on q turned into |0>/|1>."""
        self.apply_gate("rz", (q,), -phi).apply_gate("h", (q,))
        result = readout()
        self.apply_gate("h", (q,)).apply_gate("rz", (q,), phi)
        return result

    def project_rotated(self, q: int, phi: float, bit: int) -> float:
        """Collapse qubit q onto |+_phi> (bit 0) or |-_phi> (bit 1)."""
        return self._in_rotated_frame(q, phi, lambda: self.project_z(q, bit))

    def measure_rotated(
        self, q: int, phi: float, rng: np.random.Generator
    ) -> MeasurementOutcome:
        return self._in_rotated_frame(q, phi, lambda: self.measure_z(q, rng))

    def measure_pauli_basis(
        self, q: int, basis: str, rng: np.random.Generator
    ) -> MeasurementOutcome:
        """Measure in the X or Y basis (rotated basis at 0 or 3*pi/2)."""
        if basis not in ("X", "Y"):
            raise ValueError(f"basis must be 'X' or 'Y', got {basis!r}")
        phi = 0.0 if basis == "X" else Y_BASIS_ANGLE
        return self.measure_rotated(q, phi, rng)


class ShotBatch:
    """Sampled shots of one prepared register; measured wires drop out.

    ``amps`` holds one row per distinct outcome history the shots drew so
    far (at most 2^k rows after k measurements, so rows x columns stays at
    or below 2^n whatever the shot count), and ``row_of`` maps each shot to
    its row.  ``wires`` names the wires still present, in qubit order.
    ``uniforms`` holds each shot's draws, one row per shot; ``measure``
    reads them one column per call, in call order.
    """

    __slots__ = ("wires", "amps", "row_of", "uniforms", "_column")

    def __init__(self, state: StateVector, uniforms):
        self.wires = list(range(state.num_qubits))
        self.amps = state.amps[None, :]
        self.uniforms = np.asarray(uniforms, dtype=float)
        self.row_of = np.zeros(len(self.uniforms), dtype=np.intp)
        self._column = 0

    def measure(self, wire: int, phi=None) -> np.ndarray:
        """Measure `wire` of every shot and drop it; returns the bits per shot.

        ``phi`` (a scalar or one angle per shot) projects onto |+_phi>
        (bit 0) or |-_phi> (bit 1); None reads the computational basis.
        Bits follow ``measure_z``: 1 when the shot's uniform is below its
        row's p1, the other bit when that branch has p <= ZERO_BRANCH_P.
        Each (row, bit) the shots drew becomes one row, renormalized.
        """
        q = self.wires.index(wire)
        if np.ndim(phi):
            phi = self._row_angles(np.asarray(phi, dtype=float))
        a0, a1, half = halves(self.amps, q, phi)
        p1 = half * (a1.real**2 + a1.imag**2).sum(axis=(1, 2))
        shot_p1 = p1[self.row_of]
        bit = self.uniforms[:, self._column] < shot_p1
        self._column += 1
        bit ^= np.where(bit, shot_p1, 1.0 - shot_p1) <= ZERO_BRANCH_P
        child = 2 * self.row_of + bit
        present = np.zeros(2 * len(p1), dtype=bool)
        present[child] = True
        self.row_of = (np.cumsum(present) - 1)[child]
        parent, kept_bit = np.divmod(np.flatnonzero(present), 2)
        p = np.where(kept_bit, p1[parent], 1.0 - p1[parent])
        kept = np.where(kept_bit[:, None, None], a1[parent], a0[parent])
        self.amps = (kept * np.sqrt(half / p)[:, None, None]).reshape(len(p), -1)
        del self.wires[q]
        return bit.astype(int)

    def _row_angles(self, phi: np.ndarray) -> np.ndarray:
        """One angle per row from one per shot, splitting rows by angle first.

        Shots that share a row share their history, so in the protocol they
        share their angle; a row whose shots differ becomes one row per angle.
        """
        row_phi = np.empty(len(self.amps))
        row_phi[self.row_of] = phi
        if not np.array_equal(row_phi[self.row_of], phi):
            pairs, inverse = np.unique(
                np.column_stack((self.row_of, phi)), axis=0, return_inverse=True
            )
            self.row_of = inverse.reshape(-1)
            self.amps = self.amps[pairs[:, 0].astype(np.intp)]
            row_phi = pairs[:, 1]
        return row_phi


class BranchBatch:
    """Every outcome branch of a prepared register, one row per branch.

    ``ShotBatch``'s interface without draws: ``measure`` keeps both halves
    of every row, unnormalized, the bit-0 rows first, so the rows hold the
    register's 2^n amplitudes and a row's squared norm is its branch's
    probability.  The rows form the grid ``shape``, the latest outcome on
    the leading axis, so the returned bits broadcast over the rows.
    """

    __slots__ = ("wires", "amps", "shape")

    def __init__(self, state: StateVector):
        self.wires = list(range(state.num_qubits))
        self.amps = state.amps[None, :]
        self.shape = ()

    def measure(self, wire: int, phi=None) -> np.ndarray:
        """Split every row on `wire` and drop it; returns the bits per row.

        ``phi`` is None (computational) or an angle that broadcasts to
        ``shape``, as for ``ShotBatch``.
        """
        q = self.wires.index(wire)
        phi = None if phi is None else np.broadcast_to(phi, self.shape).ravel()
        a0, a1, half = halves(self.amps, q, phi)
        self.amps = np.concatenate((a0, a1)).reshape(2 * len(a0), -1) * sqrt(half)
        del self.wires[q]
        self.shape = (2,) + self.shape
        return np.arange(2).reshape((2,) + (1,) * (len(self.shape) - 1))


def apply_rows(
    rows: np.ndarray, gate: str, targets: tuple[int, ...], param: float | None = None
) -> None:
    """Apply `gate` in place to every row of `rows`, shaped (rows, 2**n).

    Targets are unchecked.  ``h``, ``x`` and the phase gates give the generic
    2x2 product's values (an exact zero may change sign): each kept product
    has the matrix entry on the left, as numpy rounds ``m * v``, ``v * m``
    and ``v *= m`` apart."""
    if gate in GATES_2Q:
        # axes: (row, rest, bit_hi, mid, bit_lo, low) for hi > lo
        hi, lo = sorted(targets, reverse=True)
        view = rows.reshape(len(rows), -1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
        if gate == "cz":
            view[:, :, 1, :, 1, :] *= -1.0
            return
        if gate == "cnot" and targets[0] > targets[1]:  # control is bit_hi
            a, b = view[:, :, 1, :, 0, :], view[:, :, 1, :, 1, :]
        else:  # swap exchanges |01> and |10>; cnot with control bit_lo
            a, b = view[:, :, 0, :, 1, :], view[:, :, 1, :, int(gate == "cnot"), :]
    elif gate == "x":
        a, b, _ = halves(rows, targets[0])
    else:
        v0, v1, _ = halves(rows, targets[0])
        m = rz_matrix(param) if gate == "rz" else GATES_1Q[gate]
        if gate == "h":
            s0, s1 = m[0, 0] * v0, m[0, 0] * v1
            np.add(s0, s1, out=v0)
            np.subtract(s0, s1, out=v1)
        elif gate in _PHASE_GATES:
            v1[...] = m[1, 1] * v1
        else:
            t0 = m[0, 0] * v0 + m[0, 1] * v1
            v1[...] = m[1, 0] * v0 + m[1, 1] * v1
            v0[...] = t0
        return
    tmp = a.copy()  # x, cnot and swap exchange two blocks
    a[...] = b
    b[...] = tmp


def halves(amps: np.ndarray, q: int, phi=None):
    """The two halves of every row of `amps` on its qubit q: ``(a0, a1, half)``.

    Each half is shaped (rows, -1, 1 << q).  ``phi`` (a scalar or one angle
    per row) makes them sqrt(2) times the projections onto |+_phi> and
    |-_phi>; None leaves the |0> and |1> halves.  ``half`` times a squared
    norm is that half's probability.
    """
    view = amps.reshape(len(amps), -1, 2, 1 << q)
    a0, a1 = view[:, :, 0, :], view[:, :, 1, :]
    if phi is None:
        return a0, a1, 1.0
    w = np.exp(-1j * np.reshape(phi, (-1, 1, 1))) * a1
    return a0 + w, a0 - w, 0.5


def new_plus_state(n: int) -> StateVector:
    """Register of n qubits all prepared as |+>."""
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"qubit count {n} outside supported range 1..{MAX_QUBITS}")
    amps = np.full(1 << n, 2.0 ** (-n / 2.0), dtype=complex)
    return StateVector(n, amps)


def trace_distance_pure(a: np.ndarray, b: np.ndarray) -> float:
    """Trace distance between two pure states, sqrt(1 - |<a|b>|^2).

    Evaluated through the projection residual ||a - <b|a> b||, which avoids
    the catastrophic cancellation of computing 1 - |f|^2 directly and stays
    accurate down to machine precision.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    a = a / np.linalg.norm(a)
    b = b / np.linalg.norm(b)
    f = np.vdot(b, a)
    return float(np.linalg.norm(a - f * b))


def make_bell_pair(x: int, y: int) -> StateVector:
    """Two-qubit Bell state beta_xy: H on the first qubit, then CNOT."""
    if x not in (0, 1) or y not in (0, 1):
        raise ValueError("bell pair labels must be bits")
    sv = StateVector(2)
    sv.amps[0] = 0.0
    sv.amps[x + 2 * y] = 1.0
    sv.apply_gate("h", (0,))
    sv.apply_gate("cnot", (0, 1))
    return sv
