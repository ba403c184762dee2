"""Lowering circuits to the [[7,1,3]] encoded gate set.

The target set is: transversal gates (X/Y/Z/H/S/S_DAG/CX/CZ, measurements,
preps) plus the ancilla-implemented T/T_DAG. Everything else rewrites:

* CCX (Toffoli) — the standard 15-gate Clifford+T network (7 T-layer
  gates, 6 CX, 2 H);
* CS — 3 T-layer gates and 2 CX;
* CRZ(pi/2^k) — CZ when k=1, the CS network when k=2, otherwise two CX
  and three single-qubit pi/2^(k+1) rotations (Section 2.5);
* RZ(pi/2^k) — exact for k <= 2, else a Fowler H/T sequence
  (:mod:`repro.ancilla.rotations`);
* SWAP — three CX.

The pass is idempotent on already-lowered circuits. The same target set
serves every concatenation level: a self-concatenated Steane code is
still self-dual CSS, so H and S stay transversal.
"""

from __future__ import annotations

from typing import Optional

from repro.ancilla.rotations import RotationSynthesizer, default_synthesizer
from repro.circuits import Circuit
from repro.circuits.gate import GateType

#: Gate types legal in the lowered circuit.
ENCODED_GATE_SET = frozenset(
    {
        GateType.PREP_0,
        GateType.PREP_PLUS,
        GateType.X,
        GateType.Y,
        GateType.Z,
        GateType.H,
        GateType.S,
        GateType.S_DAG,
        GateType.T,
        GateType.T_DAG,
        GateType.CX,
        GateType.CZ,
        GateType.MEASURE_Z,
        GateType.MEASURE_X,
    }
)


def _emit_ccx(circ: Circuit, a: int, b: int, t: int) -> None:
    """Standard 7-T Toffoli decomposition."""
    circ.h(t)
    circ.cx(b, t)
    circ.tdg(t)
    circ.cx(a, t)
    circ.t(t)
    circ.cx(b, t)
    circ.tdg(t)
    circ.cx(a, t)
    circ.t(b)
    circ.t(t)
    circ.h(t)
    circ.cx(a, b)
    circ.t(a)
    circ.tdg(b)
    circ.cx(a, b)


def _emit_cs(circ: Circuit, a: int, b: int) -> None:
    """Controlled-S from T gates: T a, T b, CX, Tdg b, CX."""
    circ.t(a)
    circ.t(b)
    circ.cx(a, b)
    circ.tdg(b)
    circ.cx(a, b)


def _emit_rotation(
    circ: Circuit, qubit: int, k: int, synthesizer: RotationSynthesizer,
    inverse: bool = False,
) -> None:
    """Emit RZ(pi/2^k) (or its inverse) as an exact or synthesized word."""
    if k == 0:
        circ.z(qubit)
        return
    if k == 1:
        (circ.sdg if inverse else circ.s)(qubit)
        return
    if k == 2:
        (circ.tdg if inverse else circ.t)(qubit)
        return
    word = synthesizer.synthesize(k).gates
    if inverse:
        word = tuple(reversed([_ADJOINT[g] for g in word]))
    for gate_type in word:
        _EMITTERS[gate_type](circ, qubit)


_ADJOINT = {
    GateType.H: GateType.H,
    GateType.T: GateType.T_DAG,
    GateType.T_DAG: GateType.T,
    GateType.S: GateType.S_DAG,
    GateType.S_DAG: GateType.S,
    GateType.Z: GateType.Z,
}


_EMITTERS = {
    GateType.H: lambda c, q: c.h(q),
    GateType.T: lambda c, q: c.t(q),
    GateType.T_DAG: lambda c, q: c.tdg(q),
    GateType.S: lambda c, q: c.s(q),
    GateType.S_DAG: lambda c, q: c.sdg(q),
    GateType.Z: lambda c, q: c.z(q),
}


def _emit_crz(
    circ: Circuit, control: int, target: int, k: int,
    synthesizer: RotationSynthesizer,
) -> None:
    """Controlled-RZ(pi/2^k): Section 2.5's CX-plus-three-rotations form."""
    if k == 1:
        circ.cz(control, target)
        return
    if k == 2:
        _emit_cs(circ, control, target)
        return
    _emit_rotation(circ, control, k + 1, synthesizer)
    _emit_rotation(circ, target, k + 1, synthesizer)
    circ.cx(control, target)
    _emit_rotation(circ, target, k + 1, synthesizer, inverse=True)
    circ.cx(control, target)


def decompose_to_encoded_gates(
    circuit: Circuit,
    synthesizer: Optional[RotationSynthesizer] = None,
) -> Circuit:
    """Lower a circuit to the [[7,1,3]] encoded gate set.

    Args:
        circuit: Any circuit over this library's gate set.
        synthesizer: Rotation synthesizer for pi/2^k angles with k >= 3;
            the shared default is used when omitted.

    Returns:
        A new circuit containing only :data:`ENCODED_GATE_SET` gates.
    """
    synth = synthesizer or default_synthesizer()
    out = Circuit(circuit.num_qubits, name=f"{circuit.name}_encoded")
    for gate in circuit:
        gt = gate.gate_type
        if gt in ENCODED_GATE_SET:
            out.append(gate)
        elif gt is GateType.CCX:
            _emit_ccx(out, *gate.qubits)
        elif gt is GateType.CS:
            _emit_cs(out, *gate.qubits)
        elif gt is GateType.CRZ:
            _emit_crz(out, gate.qubits[0], gate.qubits[1], gate.angle_k, synth)
        elif gt is GateType.RZ:
            _emit_rotation(out, gate.qubits[0], gate.angle_k, synth)
        elif gt is GateType.SWAP:
            a, b = gate.qubits
            out.cx(a, b)
            out.cx(b, a)
            out.cx(a, b)
        else:
            raise ValueError(f"cannot lower gate {gate.describe()}")
    return out
