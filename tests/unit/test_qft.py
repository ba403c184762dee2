"""Unit tests for repro.kernels.qft."""

import pytest

from repro.circuits.gate import GateType
from repro.kernels.qft import qft_circuit
from repro.testing.rotations import qft_rotation_count


class TestStructure:
    def test_hadamard_per_qubit(self):
        circ = qft_circuit(8)
        assert circ.count(GateType.H) == 8

    def test_rotation_count_full(self):
        circ = qft_circuit(8)
        assert circ.count(GateType.CRZ) == 8 * 7 // 2

    def test_rotation_count_helper(self):
        assert qft_rotation_count(32) == 496
        assert qft_rotation_count(8) == 28

    def test_angles_grow_with_distance(self):
        circ = qft_circuit(4)
        ks = [g.angle_k for g in circ if g.gate_type is GateType.CRZ]
        assert ks == [2, 3, 4, 2, 3, 2]

    def test_truncation(self):
        circ = qft_circuit(8, max_rotation_k=3)
        ks = [g.angle_k for g in circ if g.gate_type is GateType.CRZ]
        assert max(ks) == 3
        assert len(ks) == qft_rotation_count(8, max_rotation_k=3)

    def test_swaps_off_by_default(self):
        assert qft_circuit(6).count(GateType.SWAP) == 0

    def test_swaps_on_request(self):
        assert qft_circuit(6, include_swaps=True).count(GateType.SWAP) == 3

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            qft_circuit(0)

    def test_invalid_truncation(self):
        with pytest.raises(ValueError):
            qft_circuit(4, max_rotation_k=0)

    def test_single_qubit_qft_is_hadamard(self):
        circ = qft_circuit(1)
        assert len(circ) == 1
        assert circ[0].gate_type is GateType.H

    def test_controls_precede_targets_structurally(self):
        """Each CRZ is controlled by a later qubit onto an earlier one."""
        for gate in qft_circuit(6):
            if gate.gate_type is GateType.CRZ:
                control, target = gate.qubits
                assert control > target
