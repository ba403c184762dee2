"""Classical bit-vector evaluation of reversible circuits.

The adder kernels are classical reversible circuits (X / CX / CCX / SWAP
on computational-basis states), so their functional correctness — QRCA and
QCLA actually computing a + b — is checked by propagating basis states
through the gate list. Gates outside the reversible set raise, which also
guards against accidentally grading a non-classical kernel this way.
No command needs it: it is the adder kernels' test oracle.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.circuits import Circuit
from repro.circuits.gate import GateType


def evaluate_reversible(circuit: Circuit, bits: Sequence[int]) -> List[int]:
    """Propagate a basis state through a reversible circuit.

    Args:
        circuit: Circuit containing only X, CX, CCX and SWAP gates.
        bits: Initial bit per qubit (length must equal circuit width).

    Returns:
        Final bit values per qubit.
    """
    if len(bits) != circuit.num_qubits:
        raise ValueError(
            f"state has {len(bits)} bits, circuit has {circuit.num_qubits} qubits"
        )
    state = [int(b) & 1 for b in bits]
    for gate in circuit:
        gt = gate.gate_type
        if gt is GateType.X:
            state[gate.qubits[0]] ^= 1
        elif gt is GateType.CX:
            control, target = gate.qubits
            state[target] ^= state[control]
        elif gt is GateType.CCX:
            c1, c2, target = gate.qubits
            state[target] ^= state[c1] & state[c2]
        elif gt is GateType.SWAP:
            q1, q2 = gate.qubits
            state[q1], state[q2] = state[q2], state[q1]
        else:
            raise ValueError(
                f"gate {gate.describe()} is not classically evaluable"
            )
    return state


def pack_bits(value: int, width: int) -> List[int]:
    """Little-endian bit decomposition of ``value``."""
    if value < 0 or value >= (1 << width):
        raise ValueError(f"value {value} does not fit in {width} bits")
    return [(value >> i) & 1 for i in range(width)]


def unpack_bits(bits: Sequence[int]) -> int:
    """Little-endian bit composition."""
    return sum((int(b) & 1) << i for i, b in enumerate(bits))


def run_adder(
    circuit: Circuit,
    a_qubits: Sequence[int],
    b_qubits: Sequence[int],
    sum_qubits: Sequence[int],
    a: int,
    b: int,
    ancilla_qubits: Sequence[int] = (),
) -> Dict[str, int]:
    """Drive an adder circuit with operand values and read back results.

    Returns a dict with the output ``sum`` and the final ``a`` register
    value, plus ``ancilla`` (which should be 0 for clean uncompute).
    """
    bits = [0] * circuit.num_qubits
    for q, bit in zip(a_qubits, pack_bits(a, len(a_qubits))):
        bits[q] = bit
    for q, bit in zip(b_qubits, pack_bits(b, len(b_qubits))):
        bits[q] = bit
    final = evaluate_reversible(circuit, bits)
    return {
        "sum": unpack_bits([final[q] for q in sum_qubits]),
        "a": unpack_bits([final[q] for q in a_qubits]),
        "ancilla": unpack_bits([final[q] for q in ancilla_qubits]),
    }
