"""Pauli propagation rules: how gates conjugate pending errors.

Two-qubit gates spread bit and phase flips between qubits — the effect the
paper's simulation explicitly models (Section 2.2). Under CX:

* X on the control spreads to an X on both qubits;
* Z on the target spreads to a Z on both qubits;
* X on the target and Z on the control stay put.

Non-Clifford gates (T and small rotations) do not map Paulis to Paulis
exactly: an X passing through T picks up an S component. Following standard
Pauli-frame practice we propagate the Pauli part and ignore the Clifford
remainder; the circuits this library grades by Monte Carlo (the Figure 4
zero-prep strategies) are Clifford-only, so the approximation never affects
a reported number.
"""

from __future__ import annotations

from repro.circuits.gate import Gate, GateType
from repro.error.pauli import PauliFrame

def _propagate_h(frame: PauliFrame, q: int) -> None:
    # H swaps X and Z.
    frame.x[q], frame.z[q] = frame.z[q], frame.x[q]


def _propagate_s(frame: PauliFrame, q: int) -> None:
    # S maps X -> Y (adds a Z on top of an X); Z is fixed.
    if frame.x[q]:
        frame.z[q] ^= 1


def _propagate_cx(frame: PauliFrame, control: int, target: int) -> None:
    if frame.x[control]:
        frame.x[target] ^= 1
    if frame.z[target]:
        frame.z[control] ^= 1


def _propagate_cz(frame: PauliFrame, a: int, b: int) -> None:
    # CZ: X_a -> X_a Z_b, X_b -> X_b Z_a; Z's are fixed.
    if frame.x[a]:
        frame.z[b] ^= 1
    if frame.x[b]:
        frame.z[a] ^= 1


def _propagate_swap(frame: PauliFrame, a: int, b: int) -> None:
    frame.x[a], frame.x[b] = frame.x[b], frame.x[a]
    frame.z[a], frame.z[b] = frame.z[b], frame.z[a]


def propagate_gate(frame: PauliFrame, gate: Gate) -> None:
    """Conjugate the frame through ``gate`` in place.

    Paulis (X/Y/Z) commute or anticommute with the frame — either way the
    frame is unchanged up to phase, so they are no-ops here. Preparations
    reset the frame on their qubit (a fresh qubit carries no prior error).
    Measurements leave the frame untouched; outcome flips are derived from
    the frame by the simulator, not here.
    """
    gt = gate.gate_type
    if gt in (GateType.PREP_0, GateType.PREP_PLUS):
        frame.clear(gate.qubits[0])
    elif gt is GateType.H:
        _propagate_h(frame, gate.qubits[0])
    elif gt is GateType.S:
        _propagate_s(frame, gate.qubits[0])
    elif gt is GateType.S_DAG:
        # S and S-dagger act identically on Pauli frames modulo phase.
        _propagate_s(frame, gate.qubits[0])
    elif gt is GateType.CX:
        _propagate_cx(frame, gate.qubits[0], gate.qubits[1])
    elif gt is GateType.CZ:
        _propagate_cz(frame, gate.qubits[0], gate.qubits[1])
    elif gt is GateType.SWAP:
        _propagate_swap(frame, gate.qubits[0], gate.qubits[1])
    elif gt in (GateType.T, GateType.T_DAG, GateType.RZ):
        # Pauli part of conjugation: Z-axis rotations fix Z; the X image's
        # Pauli part is X (Clifford remainder dropped, see module docstring).
        pass
    elif gt in (GateType.CRZ, GateType.CS):
        pass
    # X, Y, Z, measurements: no frame change.


def measurement_flipped(frame: PauliFrame, gate: Gate) -> bool:
    """Whether the pending error flips this measurement's outcome.

    A Z-basis measurement is flipped by a pending X (or Y); an X-basis
    measurement is flipped by a pending Z (or Y).
    """
    q = gate.qubits[0]
    if gate.gate_type is GateType.MEASURE_Z:
        return bool(frame.x[q])
    if gate.gate_type is GateType.MEASURE_X:
        return bool(frame.z[q])
    raise ValueError(f"{gate.describe()} is not a measurement")
