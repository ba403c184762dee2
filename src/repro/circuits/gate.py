"""Gate records and gate-set metadata.

The gate set covers what the paper needs:

* the transversal gates of the [[7,1,3]] Steane code — X, Y, Z, H, S
  (the "Phase" gate), S_DAG and CX (Section 2.1);
* the non-transversal pi/8 gate T / T_DAG (Section 2.4);
* small controlled rotations CRZ(pi/2^k) used by the QFT (Section 2.5),
  carried symbolically with their ``k``;
* state preparation, measurement, and classically conditioned corrections
  (used by error-correction and the pi/8-ancilla consumption circuit);
* the two-qubit CZ and CS gates appearing in the pi/8 ancilla prepare
  (Figure 5b).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple


class GateKind(enum.Enum):
    """Broad operational class of a gate, used for latency lookup."""

    PREP = "prep"
    ONE_QUBIT = "one_qubit"
    TWO_QUBIT = "two_qubit"
    MEASURE = "measure"


class GateType(enum.Enum):
    """Concrete gate identities."""

    PREP_0 = "prep_0"
    PREP_PLUS = "prep_plus"
    X = "x"
    Y = "y"
    Z = "z"
    H = "h"
    S = "s"
    S_DAG = "sdg"
    T = "t"
    T_DAG = "tdg"
    RZ = "rz"
    CX = "cx"
    CZ = "cz"
    CS = "cs"
    CRZ = "crz"
    SWAP = "swap"
    CCX = "ccx"  # Toffoli macro; decomposed before encoded execution
    MEASURE_Z = "measure_z"
    MEASURE_X = "measure_x"


GATE_ARITY = {
    GateType.PREP_0: 1,
    GateType.PREP_PLUS: 1,
    GateType.X: 1,
    GateType.Y: 1,
    GateType.Z: 1,
    GateType.H: 1,
    GateType.S: 1,
    GateType.S_DAG: 1,
    GateType.T: 1,
    GateType.T_DAG: 1,
    GateType.RZ: 1,
    GateType.CX: 2,
    GateType.CZ: 2,
    GateType.CS: 2,
    GateType.CRZ: 2,
    GateType.SWAP: 2,
    GateType.CCX: 3,
    GateType.MEASURE_Z: 1,
    GateType.MEASURE_X: 1,
}

_KIND_BY_TYPE = {
    GateType.PREP_0: GateKind.PREP,
    GateType.PREP_PLUS: GateKind.PREP,
    GateType.MEASURE_Z: GateKind.MEASURE,
    GateType.MEASURE_X: GateKind.MEASURE,
}

#: Gates with a transversal implementation on the [[7,1,3]] code (Section 2.1).
TRANSVERSAL_GATES = frozenset(
    {
        GateType.X,
        GateType.Y,
        GateType.Z,
        GateType.H,
        GateType.S,
        GateType.S_DAG,
        GateType.CX,
        GateType.CZ,
        GateType.MEASURE_Z,
        GateType.MEASURE_X,
    }
)

#: Gates requiring an encoded-ancilla construction on the [[7,1,3]] code.
NON_TRANSVERSAL_GATES = frozenset(
    {GateType.T, GateType.T_DAG, GateType.RZ, GateType.CRZ, GateType.CS, GateType.CCX}
)

#: Gates consuming one encoded pi/8 ancilla when executed encoded
#: (Figure 5a). Shared by the kernel analysis and both dataflow engines,
#: which must agree on it exactly.
PI8_CONSUMING_GATES = frozenset({GateType.T, GateType.T_DAG})

#: Gates in the Clifford group (stabilizer-preserving), for Pauli propagation.
CLIFFORD_GATES = frozenset(
    {
        GateType.X,
        GateType.Y,
        GateType.Z,
        GateType.H,
        GateType.S,
        GateType.S_DAG,
        GateType.CX,
        GateType.CZ,
        GateType.SWAP,
    }
)

TWO_QUBIT_GATES = frozenset(t for t, n in GATE_ARITY.items() if n == 2)

_ROTATION_GATES = (GateType.RZ, GateType.CRZ)
_MEASUREMENT_GATES = (GateType.MEASURE_Z, GateType.MEASURE_X)


@dataclass(frozen=True)
class Gate:
    """One gate application in a circuit.

    Attributes:
        gate_type: Which gate this is.
        qubits: The qubit indices it acts on; for controlled gates the
            control comes first.
        angle_k: For RZ / CRZ, the rotation is by ``pi / 2**angle_k``
            (so ``angle_k=3`` is the pi/8 gate T up to convention).
        condition: Optional classical bit name; if set, the gate is applied
            conditioned on that measurement outcome being 1.
        result: Optional classical bit name a measurement writes to.
    """

    gate_type: GateType
    qubits: Tuple[int, ...]
    angle_k: Optional[int] = None
    condition: Optional[str] = None
    result: Optional[str] = None
    tag: Optional[str] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        gate_type, qubits = self.gate_type, self.qubits
        expected = GATE_ARITY[gate_type]
        if len(qubits) != expected:
            raise ValueError(
                f"{gate_type.value} acts on {expected} qubit(s), "
                f"got {len(qubits)}"
            )
        if expected > 1 and len(set(qubits)) != expected:
            raise ValueError(f"duplicate qubit in {qubits}")
        if min(qubits) < 0:
            raise ValueError(f"negative qubit index in {qubits}")
        if gate_type in _ROTATION_GATES:
            if self.angle_k is None or self.angle_k < 1:
                raise ValueError(
                    f"{gate_type.value} requires angle_k >= 1, got {self.angle_k}"
                )
        if self.result is None and gate_type in _MEASUREMENT_GATES:
            raise ValueError("measurements must name a result bit")

    @property
    def kind(self) -> GateKind:
        """The operational class used for latency lookup."""
        if self.gate_type in _KIND_BY_TYPE:
            return _KIND_BY_TYPE[self.gate_type]
        if GATE_ARITY[self.gate_type] >= 2:
            return GateKind.TWO_QUBIT
        return GateKind.ONE_QUBIT

    @property
    def is_measurement(self) -> bool:
        return self.gate_type in _MEASUREMENT_GATES

    @property
    def is_prep(self) -> bool:
        return self.gate_type in (GateType.PREP_0, GateType.PREP_PLUS)

    @property
    def is_two_qubit(self) -> bool:
        return GATE_ARITY[self.gate_type] == 2

    @property
    def is_transversal(self) -> bool:
        """Whether the encoded version of this gate is transversal."""
        if self.gate_type in TRANSVERSAL_GATES:
            return True
        return self.is_prep

    @property
    def is_non_transversal(self) -> bool:
        return self.gate_type in NON_TRANSVERSAL_GATES

    @property
    def is_clifford(self) -> bool:
        return self.gate_type in CLIFFORD_GATES

    def describe(self) -> str:
        """Human-readable one-line description."""
        parts = [self.gate_type.value.upper()]
        if self.angle_k is not None:
            parts.append(f"(pi/2^{self.angle_k})")
        parts.append(" " + ",".join(f"q{q}" for q in self.qubits))
        if self.condition:
            parts.append(f" if {self.condition}")
        if self.result:
            parts.append(f" -> {self.result}")
        return "".join(parts)
