"""Dense state-vector engine for few-qubit registers.

Conventions shared by the whole package:

* Basis states of an ``n``-qubit register are indexed by integers; bit ``q``
  of the index (least significant bit = qubit 0) is the computational value
  of qubit ``q``.
* ``rz(theta)`` is the phase rotation ``diag(1, exp(i*theta))``, so
  ``rz(pi/4) == t`` and ``rz(pi/2) == s`` hold exactly.
* A rotated measurement at angle ``phi`` projects onto
  ``|+_phi> = (|0> + e^{i phi}|1>)/sqrt(2)`` (outcome 0) and
  ``|-_phi> = (|0> - e^{i phi}|1>)/sqrt(2)`` (outcome 1).  It is realised as
  ``rz(-phi)``, ``h``, computational readout, frame restored afterwards.
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

GATE_ARITY = {name: 1 for name in GATES_1Q}
GATE_ARITY["rz"] = 1
GATE_ARITY.update({name: 2 for name in GATES_2Q})


def rz_matrix(theta: float) -> np.ndarray:
    """Phase rotation diag(1, e^{i theta})."""
    return np.array([[1, 0], [0, np.exp(1j * theta)]], dtype=complex)


def gate_matrix(name: str, param: float | None = None) -> np.ndarray:
    """Unitary matrix of a gate kind.

    Two-qubit matrices are given in the basis ``|w1 w0>`` where ``w0`` is the
    first wire argument (index = bit0 + 2*bit1); for ``cnot`` the first wire
    is the control.
    """
    if name == "rz":
        if param is None:
            raise ValueError("rz requires an angle parameter")
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
        if len(set(targets)) != len(targets):
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
        if gate == "rz":
            self._apply_1q(rz_matrix(param), targets[0])
        elif arity == 1:
            self._apply_1q(GATES_1Q[gate], targets[0])
        elif gate == "cz":
            self._apply_cz(*targets)
        elif gate == "cnot":
            self._apply_cnot(*targets)
        else:
            self._apply_swap(*targets)
        return self

    def _apply_1q(self, m: np.ndarray, q: int) -> None:
        view = self.amps.reshape(-1, 2, 1 << q)
        v0 = view[:, 0, :]
        v1 = view[:, 1, :]
        t0 = m[0, 0] * v0 + m[0, 1] * v1
        t1 = m[1, 0] * v0 + m[1, 1] * v1
        view[:, 0, :] = t0
        view[:, 1, :] = t1

    def _split_view(self, a: int, b: int) -> np.ndarray:
        # axes: (rest, bit_hi, mid, bit_lo, low) for hi > lo
        hi, lo = (a, b) if a > b else (b, a)
        return self.amps.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)

    def _apply_cz(self, a: int, b: int) -> None:
        view = self._split_view(a, b)
        view[:, 1, :, 1, :] *= -1.0

    def _apply_cnot(self, control: int, target: int) -> None:
        view = self._split_view(control, target)
        if control > target:
            sub = view[:, 1]
            tmp = sub[:, :, 0, :].copy()
            sub[:, :, 0, :] = sub[:, :, 1, :]
            sub[:, :, 1, :] = tmp
        else:
            tmp = view[:, 0, :, 1, :].copy()
            view[:, 0, :, 1, :] = view[:, 1, :, 1, :]
            view[:, 1, :, 1, :] = tmp

    def _apply_swap(self, a: int, b: int) -> None:
        view = self._split_view(a, b)
        tmp = view[:, 0, :, 1, :].copy()
        view[:, 0, :, 1, :] = view[:, 1, :, 0, :]
        view[:, 1, :, 0, :] = tmp

    # -- measurement -----------------------------------------------------

    def probability_one(self, q: int) -> float:
        """Probability of reading 1 on qubit q in the computational basis."""
        self._check_targets((q,), 1)
        view = self.amps.reshape(-1, 2, 1 << q)
        return float(np.sum(np.abs(view[:, 1, :]) ** 2))

    def project_z(self, q: int, bit: int) -> float:
        """Collapse qubit q onto computational value `bit`.

        Returns the probability of that branch; the state is left unchanged
        when the branch has probability 0.
        """
        p1 = self.probability_one(q)
        p = p1 if bit else 1.0 - p1
        if p <= ZERO_BRANCH_P:
            return 0.0
        view = self.amps.reshape(-1, 2, 1 << q)
        view[:, 1 - bit, :] = 0.0
        self.amps /= sqrt(p)
        return p

    def measure_z(self, q: int, rng: np.random.Generator) -> MeasurementOutcome:
        p1 = self.probability_one(q)
        bit = 1 if rng.random() < p1 else 0
        # Report the other bit when the drawn branch is one project_z refuses.
        if (p1 if bit else 1.0 - p1) <= ZERO_BRANCH_P:
            bit ^= 1
        p = self.project_z(q, bit)
        return MeasurementOutcome(bit, p, self)

    def project_rotated(self, q: int, phi: float, bit: int) -> float:
        """Collapse qubit q onto |+_phi> (bit 0) or |-_phi> (bit 1)."""
        self.apply_gate("rz", (q,), -phi).apply_gate("h", (q,))
        p = self.project_z(q, bit)
        self.apply_gate("h", (q,)).apply_gate("rz", (q,), phi)
        return p

    def measure_rotated(
        self, q: int, phi: float, rng: np.random.Generator
    ) -> MeasurementOutcome:
        self.apply_gate("rz", (q,), -phi).apply_gate("h", (q,))
        out = self.measure_z(q, rng)
        self.apply_gate("h", (q,)).apply_gate("rz", (q,), phi)
        return MeasurementOutcome(out.bit, out.probability, self)

    def measure_pauli_basis(
        self, q: int, basis: str, rng: np.random.Generator
    ) -> MeasurementOutcome:
        """Measure in the X or Y basis (rotated basis at 0 or 3*pi/2)."""
        if basis not in ("X", "Y"):
            raise ValueError(f"basis must be 'X' or 'Y', got {basis!r}")
        phi = 0.0 if basis == "X" else Y_BASIS_ANGLE
        return self.measure_rotated(q, phi, rng)


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
