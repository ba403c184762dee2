"""Unit tests for repro.ancilla.cat."""

import pytest

from repro.ancilla.cat import cat_prep_circuit
from repro.circuits.gate import GateType


class TestCatPrep:
    def test_three_qubit_census(self):
        circ = cat_prep_circuit(3)
        counts = circ.gate_counts()
        assert counts[GateType.PREP_0] == 3
        assert counts[GateType.H] == 1
        assert counts[GateType.CX] == 2

    def test_seven_qubit_chain(self):
        circ = cat_prep_circuit(7)
        assert circ.count(GateType.CX) == 6

    def test_no_prep_variant(self):
        circ = cat_prep_circuit(3, include_prep=False)
        assert circ.count(GateType.PREP_0) == 0

    def test_chain_is_connected(self):
        circ = cat_prep_circuit(5, include_prep=False)
        cx_pairs = [g.qubits for g in circ if g.gate_type is GateType.CX]
        assert cx_pairs == [(0, 1), (1, 2), (2, 3), (3, 4)]

    def test_minimum_width(self):
        with pytest.raises(ValueError):
            cat_prep_circuit(1)

    def test_cat_state_x_on_head_spreads_everywhere(self):
        """An X before the chain fans out to all cat qubits — the defining
        propagation property of the cat preparation."""
        from repro.error.pauli import PauliFrame
        from repro.error.propagation import propagate_gate

        from repro.circuits.gate import GateType

        circ = cat_prep_circuit(4, include_prep=False)
        frame = PauliFrame(4)
        frame.apply_x(0)  # after the head Hadamard, before the CX chain
        for gate in circ:
            if gate.gate_type is GateType.CX:
                propagate_gate(frame, gate)
        assert frame.support() == (0, 1, 2, 3)
