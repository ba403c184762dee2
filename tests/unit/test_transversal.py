"""Unit tests for repro.testing.transversal, and the gate classification
it is the oracle for."""

from repro.circuits.gate import (
    GATE_ARITY,
    NON_TRANSVERSAL_GATES,
    PI8_CONSUMING_GATES,
    TRANSVERSAL_GATES,
    Gate,
    GateType,
)
from repro.testing.transversal import (
    Implementation,
    is_directly_executable,
    pi8_ancillae_for,
    transversal_rule,
)


class TestRules:
    def test_every_gate_type_covered(self):
        for gate_type in GATE_ARITY:
            assert transversal_rule(gate_type) is not None

    def test_cx_transversal(self):
        rule = transversal_rule(GateType.CX)
        assert rule.implementation is Implementation.TRANSVERSAL

    def test_hadamard_self_dual(self):
        rule = transversal_rule(GateType.H)
        assert rule.physical_gate is GateType.H

    def test_s_maps_to_sdg_bitwise(self):
        """On the Steane code, bitwise S-dagger implements logical S."""
        rule = transversal_rule(GateType.S)
        assert rule.physical_gate is GateType.S_DAG

    def test_t_needs_one_ancilla(self):
        rule = transversal_rule(GateType.T)
        assert rule.implementation is Implementation.ANCILLA
        assert rule.ancillae_required == 1

    def test_rotations_decomposed(self):
        for gt in (GateType.RZ, GateType.CRZ, GateType.CS, GateType.CCX):
            assert transversal_rule(gt).implementation is Implementation.DECOMPOSED


class TestHelpers:
    def test_directly_executable(self):
        assert is_directly_executable(Gate(GateType.CX, (0, 1)))
        assert is_directly_executable(Gate(GateType.T, (0,)))
        assert not is_directly_executable(Gate(GateType.CCX, (0, 1, 2)))

    def test_pi8_ancillae_for_t(self):
        assert pi8_ancillae_for(Gate(GateType.T, (0,))) == 1
        assert pi8_ancillae_for(Gate(GateType.T_DAG, (0,))) == 1

    def test_pi8_ancillae_for_clifford(self):
        assert pi8_ancillae_for(Gate(GateType.H, (0,))) == 0


class TestGateClassification:
    """The sets the engines read agree with the Section 2.1 table."""

    def test_transversal_gates_have_transversal_rules(self):
        for gate_type in TRANSVERSAL_GATES:
            rule = transversal_rule(gate_type)
            assert rule.implementation is Implementation.TRANSVERSAL

    def test_non_transversal_gates_need_ancillae_or_decomposition(self):
        for gate_type in NON_TRANSVERSAL_GATES:
            rule = transversal_rule(gate_type)
            assert rule.implementation is not Implementation.TRANSVERSAL

    def test_pi8_consumers_are_the_ancilla_gates(self):
        assert PI8_CONSUMING_GATES == {
            gate_type for gate_type in GATE_ARITY
            if transversal_rule(gate_type).ancillae_required
        }
