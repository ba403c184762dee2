"""Unit tests for repro.kernels.qcla."""

import pytest

from repro.circuits.gate import GateType
from repro.testing.classical import run_adder
from repro.kernels.qcla import qcla_circuit, qcla_registers


class TestRegisters:
    def test_paper_qubit_count_32(self):
        # 123 qubits matches Table 9's 861-macroblock data area (861/7).
        assert qcla_registers(32).num_qubits == 123

    def test_tree_ancilla_count_32(self):
        # sum over t of (floor(n / 2^t) - 1) = 15+7+3+1 = 26 at n=32.
        assert qcla_registers(32).tree_ancillae == 26

    def test_p0_aliases_onto_b(self):
        regs = qcla_registers(8)
        assert regs.p(0, 3) == regs.b[3]

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            qcla_circuit(0)


class TestStructure:
    def test_log_depth_advantage(self):
        """The QCLA must be much shallower than the QRCA at equal width —
        the source of its higher ancilla bandwidth demand (Table 3)."""
        from repro.kernels.qrca import qrca_circuit

        assert qcla_circuit(32).depth() < qrca_circuit(32).depth() / 4

    def test_toffoli_count_32(self):
        # init(32) + P(26) + G(31) + C(26) + inverse P(26) = 141: matches
        # the paper-implied pi/8 demand of the 32-bit QCLA (987 T = 141x7).
        assert qcla_circuit(32).count(GateType.CCX) == 141

    def test_reversible_gate_set(self):
        circ = qcla_circuit(8)
        assert set(circ.gate_counts()) <= {GateType.CX, GateType.CCX}


class TestCorrectness:
    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 8, 16])
    def test_exhaustive_small_or_sampled(self, width):
        import random

        regs = qcla_registers(width)
        circ = qcla_circuit(width)
        rng = random.Random(width)
        pairs = (
            [(a, b) for a in range(1 << width) for b in range(1 << width)]
            if width <= 2
            else [(rng.randrange(1 << width), rng.randrange(1 << width)) for _ in range(25)]
        )
        tree = [regs.p(t, i) for (t, i) in regs._p_tree]
        for a, b in pairs:
            out = run_adder(circ, regs.a, regs.b, regs.z, a, b, tree)
            assert out["sum"] == a + b, (width, a, b)
            assert out["a"] == a
            assert out["ancilla"] == 0  # tree ancillae uncomputed

    def test_inputs_restored(self):
        regs = qcla_registers(8)
        circ = qcla_circuit(8)
        out = run_adder(circ, regs.a, regs.b, regs.z, 201, 47, [])
        assert out["a"] == 201

    def test_without_restore_b_holds_propagate(self):
        regs = qcla_registers(4)
        circ = qcla_circuit(4, restore_inputs=False)
        out = run_adder(circ, regs.a, regs.b, regs.z, 5, 3, [])
        assert out["sum"] == 8  # sum still correct

    def test_full_carry_32(self):
        regs = qcla_registers(32)
        circ = qcla_circuit(32)
        a = (1 << 32) - 1
        out = run_adder(circ, regs.a, regs.b, regs.z, a, 1, [])
        assert out["sum"] == 1 << 32
