"""Unit tests for repro.kernels.qrca."""

import pytest

from repro.circuits.gate import GateType
from repro.testing.classical import run_adder
from repro.kernels.qrca import qrca_circuit, qrca_registers


class TestRegisters:
    def test_paper_qubit_count(self):
        # Two n-bit inputs plus n+1 ancillae (Section 3): 97 qubits at n=32.
        regs = qrca_registers(32)
        assert regs.num_qubits == 97
        assert regs.data_ancillae == 33

    def test_registers_disjoint(self):
        regs = qrca_registers(8)
        all_qubits = regs.a + regs.b + [regs.b_high] + regs.c
        assert len(set(all_qubits)) == regs.num_qubits

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            qrca_circuit(0)


class TestStructure:
    def test_toffoli_count(self):
        # n forward CARRYs (2 each) + n-1 reverse CARRYs (2 each).
        circ = qrca_circuit(8)
        assert circ.count(GateType.CCX) == 2 * 8 + 2 * 7

    def test_gate_types_are_reversible_set(self):
        circ = qrca_circuit(4)
        allowed = {GateType.CX, GateType.CCX, GateType.X}
        assert set(circ.gate_counts()) <= allowed

    def test_depth_linear_in_width(self):
        shallow = qrca_circuit(4).depth()
        deep = qrca_circuit(16).depth()
        assert deep > 3 * shallow  # serial ripple structure


class TestCorrectness:
    @pytest.mark.parametrize("a,b", [(0, 0), (1, 1), (255, 255), (170, 85), (200, 56)])
    def test_addition_8bit(self, a, b):
        regs = qrca_registers(8)
        circ = qrca_circuit(8)
        out = run_adder(
            circ, regs.a, regs.b, regs.b + [regs.b_high], a, b, regs.c
        )
        assert out["sum"] == a + b
        assert out["a"] == a
        assert out["ancilla"] == 0

    def test_addition_1bit(self):
        regs = qrca_registers(1)
        circ = qrca_circuit(1)
        for a in (0, 1):
            for b in (0, 1):
                out = run_adder(
                    circ, regs.a, regs.b, regs.b + [regs.b_high], a, b, regs.c
                )
                assert out["sum"] == a + b

    def test_carry_chain_32bit(self):
        """All-ones plus one exercises the full carry ripple."""
        regs = qrca_registers(32)
        circ = qrca_circuit(32)
        a = (1 << 32) - 1
        out = run_adder(circ, regs.a, regs.b, regs.b + [regs.b_high], a, 1, regs.c)
        assert out["sum"] == 1 << 32
        assert out["ancilla"] == 0
