"""The Quantum Carry-Lookahead Adder (Section 3.1).

The out-of-place logarithmic-depth adder of Draper, Kutin, Rains and Svore
(the paper's citation [19]). Carries are computed by a Brent-Kung-style
prefix tree over propagate/generate bits in O(log n) Toffoli depth, which
is what gives the QCLA its roughly order-of-magnitude higher encoded
ancilla bandwidth demand than the serial ripple-carry adder (Table 3).

Register layout (width n):
    a_i       : qubits [0, n)          first addend (unchanged)
    b_i       : qubits [n, 2n)         second addend (unchanged at the end)
    z_j       : qubits [2n, 3n+1)      output sum s_0..s_n
    P_t[i]    : qubits [3n+1, ...)     propagate-tree ancillae (restored)

For n=32 this uses 123 qubits — matching the paper's Table 9 data area of
861 macroblocks at 7 physical qubits per encoded qubit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.circuits import Circuit


def _floor_log2(value: int) -> int:
    return value.bit_length() - 1


@dataclass(frozen=True)
class QclaRegisters:
    """Qubit index map for a width-n out-of-place QCLA."""

    width: int
    _p_tree: Dict[Tuple[int, int], int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        n = self.width
        next_index = 3 * n + 1
        tree: Dict[Tuple[int, int], int] = {}
        for t in range(1, _floor_log2(n) + 1):
            for i in range(1, n // (2 ** t)):
                tree[(t, i)] = next_index
                next_index += 1
        object.__setattr__(self, "_p_tree", tree)

    @property
    def a(self) -> List[int]:
        return list(range(0, self.width))

    @property
    def b(self) -> List[int]:
        return list(range(self.width, 2 * self.width))

    @property
    def z(self) -> List[int]:
        """Sum register z_0..z_n (n+1 qubits)."""
        return list(range(2 * self.width, 3 * self.width + 1))

    def p(self, t: int, i: int) -> int:
        """Qubit holding P_t[i]; P_0[i] is aliased onto b_i."""
        if t == 0:
            return self.b[i]
        return self._p_tree[(t, i)]

    @property
    def tree_ancillae(self) -> int:
        return len(self._p_tree)

    @property
    def num_qubits(self) -> int:
        return 3 * self.width + 1 + self.tree_ancillae


def _p_rounds(circ: Circuit, regs: QclaRegisters, inverse: bool = False) -> None:
    """Propagate tree: P_t[i] = P_{t-1}[2i] AND P_{t-1}[2i+1]."""
    n = regs.width
    rounds = range(1, _floor_log2(n) + 1)
    for t in (reversed(rounds) if inverse else rounds):
        for i in range(1, n // (2 ** t)):
            circ.ccx(regs.p(t - 1, 2 * i), regs.p(t - 1, 2 * i + 1), regs.p(t, i))


def _g_rounds(circ: Circuit, regs: QclaRegisters) -> None:
    """Generate sweep: G[m + 2^t] ^= P_{t-1}[2i+1] AND G[m + 2^{t-1}]
    for m = i * 2^t — carries at power-of-two strides."""
    n = regs.width
    z = regs.z
    for t in range(1, _floor_log2(n) + 1):
        for i in range(0, n // (2 ** t)):
            base = i * (2 ** t)
            circ.ccx(regs.p(t - 1, 2 * i + 1), z[base + 2 ** (t - 1)], z[base + 2 ** t])


def _c_rounds(circ: Circuit, regs: QclaRegisters) -> None:
    """Carry fill-in sweep for positions off the power-of-two spine."""
    n = regs.width
    z = regs.z
    top = _floor_log2(2 * n // 3) if n >= 2 else 0
    for t in range(top, 0, -1):
        for i in range(1, (n - 2 ** (t - 1)) // (2 ** t) + 1):
            base = i * (2 ** t)
            circ.ccx(regs.p(t - 1, 2 * i), z[base], z[base + 2 ** (t - 1)])


def qcla_circuit(width: int = 32, restore_inputs: bool = True) -> Circuit:
    """Build the out-of-place carry-lookahead adder: z <- a + b.

    Args:
        width: Operand bit width.
        restore_inputs: Undo the propagate transformation on b at the end,
            leaving both inputs intact (the textbook out-of-place contract).
    """
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    regs = QclaRegisters(width)
    circ = Circuit(regs.num_qubits, name=f"qcla{width}")
    a, b, z = regs.a, regs.b, regs.z
    # Generates into z, propagates into b.
    for i in range(width):
        circ.ccx(a[i], b[i], z[i + 1])
    for i in range(width):
        circ.cx(a[i], b[i])
    # Carry tree.
    _p_rounds(circ, regs)
    _g_rounds(circ, regs)
    _c_rounds(circ, regs)
    _p_rounds(circ, regs, inverse=True)
    # Sums: z_i = c_i XOR p_i.
    for i in range(width):
        circ.cx(b[i], z[i])
    if restore_inputs:
        for i in range(width):
            circ.cx(a[i], b[i])
    return circ


def qcla_registers(width: int = 32) -> QclaRegisters:
    return QclaRegisters(width)
