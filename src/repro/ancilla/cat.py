"""Cat-state preparation circuits.

A k-qubit cat state (|0...0> + |1...1>)/sqrt(2) is used to measure weight-k
operators fault-tolerantly: verification of encoded zeros uses 3-qubit cats
(Figure 4), and the pi/8 ancilla prepare uses a 7-qubit cat (Figure 5b).

The preparation is a Hadamard on the head qubit followed by a CX chain. The
paper's Cat Prep functional unit performs "two CX's in succession" for the
3-qubit case (Table 5), matching the chain construction here.
"""

from __future__ import annotations

from repro.circuits import Circuit


def cat_prep_circuit(num_qubits: int, include_prep: bool = True) -> Circuit:
    """Chain-style cat state preparation on ``num_qubits`` qubits.

    Args:
        num_qubits: Cat width; must be at least 2.
        include_prep: Include physical |0> preparations (factories fed by a
            Zero Prep stage receive already-prepared qubits).
    """
    if num_qubits < 2:
        raise ValueError(f"a cat state needs at least 2 qubits, got {num_qubits}")
    circ = Circuit(num_qubits, name=f"cat{num_qubits}_prep")
    if include_prep:
        for q in range(num_qubits):
            circ.prep_0(q)
    circ.h(0)
    for q in range(num_qubits - 1):
        circ.cx(q, q + 1)
    return circ
