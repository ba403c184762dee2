"""Transversal-gate rules for the [[7,1,3]] code (Sections 2.1 and 2.4).

Maps each logical gate type to how it is implemented on encoded data:
transversally (bitwise physical gates), by consuming a prepared encoded
ancilla (the pi/8 gate), or by decomposition into other gates first.
It is the oracle for the gate classification the engines read
(``TRANSVERSAL_GATES``, ``NON_TRANSVERSAL_GATES`` and
``PI8_CONSUMING_GATES`` in :mod:`repro.circuits.gate`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.circuits.gate import NON_TRANSVERSAL_GATES, Gate, GateType


class Implementation(enum.Enum):
    """How an encoded gate is realized."""

    TRANSVERSAL = "transversal"
    ANCILLA = "ancilla"  # consumes a prepared encoded ancilla (pi/8 style)
    DECOMPOSED = "decomposed"  # rewritten into other gates first


@dataclass(frozen=True)
class TransversalRule:
    """Implementation rule for one encoded gate type.

    ``physical_gate`` is the physical gate a transversal gate applies
    bitwise; ``ancillae_required`` counts the encoded pi/8 ancillae an
    ANCILLA gate consumes.
    """

    gate_type: GateType
    implementation: Implementation
    physical_gate: GateType | None = None
    ancillae_required: int = 0


_T, _A, _D = Implementation.TRANSVERSAL, Implementation.ANCILLA, Implementation.DECOMPOSED
_RULES = {rule.gate_type: rule for rule in (
    TransversalRule(GateType.X, _T, GateType.X),
    TransversalRule(GateType.Y, _T, GateType.Y),
    TransversalRule(GateType.Z, _T, GateType.Z),
    # The Steane code is self-dual, so bitwise H implements logical H.
    TransversalRule(GateType.H, _T, GateType.H),
    # Bitwise S-dagger implements logical S on the Steane code.
    TransversalRule(GateType.S, _T, GateType.S_DAG),
    TransversalRule(GateType.S_DAG, _T, GateType.S),
    TransversalRule(GateType.CX, _T, GateType.CX),
    TransversalRule(GateType.CZ, _T, GateType.CZ),
    TransversalRule(GateType.SWAP, _T, GateType.SWAP),
    TransversalRule(GateType.MEASURE_Z, _T, GateType.MEASURE_Z),
    TransversalRule(GateType.MEASURE_X, _T, GateType.MEASURE_X),
    # A fresh encoded zero from a factory (plus transversal H for |+>).
    TransversalRule(GateType.PREP_0, _A),
    TransversalRule(GateType.PREP_PLUS, _A),
    # Each consumes one encoded pi/8 ancilla (Figure 5a).
    TransversalRule(GateType.T, _A, ancillae_required=1),
    TransversalRule(GateType.T_DAG, _A, ancillae_required=1),
    # RZ is synthesized into H/T words, CRZ into CX plus three rotations
    # (Section 2.5); CS and the Toffoli into CX, H and T layers.
    TransversalRule(GateType.RZ, _D),
    TransversalRule(GateType.CRZ, _D),
    TransversalRule(GateType.CS, _D),
    TransversalRule(GateType.CCX, _D),
)}


def transversal_rule(gate_type: GateType) -> TransversalRule:
    """Implementation rule for ``gate_type`` on the [[7,1,3]] code."""
    return _RULES[gate_type]


def is_directly_executable(gate: Gate) -> bool:
    """Whether the encoded gate runs without prior decomposition."""
    return transversal_rule(gate.gate_type).implementation is not _D


def pi8_ancillae_for(gate: Gate) -> int:
    """Encoded pi/8 ancillae consumed directly by this gate."""
    if gate.gate_type in NON_TRANSVERSAL_GATES:
        return transversal_rule(gate.gate_type).ancillae_required
    return 0
