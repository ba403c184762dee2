"""Unit tests for repro.circuits.latency."""

from repro.circuits.gate import Gate, GateType
from repro.circuits.latency import LogicalLatencyModel
from repro.testing.dag import PhysicalLatencyModel
from repro.tech import ION_TRAP


class TestPhysicalLatencyModel:
    model = PhysicalLatencyModel(ION_TRAP)

    def test_one_qubit(self):
        assert self.model.gate_latency(Gate(GateType.H, (0,))) == 1.0

    def test_two_qubit(self):
        assert self.model.gate_latency(Gate(GateType.CX, (0, 1))) == 10.0

    def test_measurement(self):
        gate = Gate(GateType.MEASURE_Z, (0,), result="m")
        assert self.model.gate_latency(gate) == 50.0

    def test_prep(self):
        assert self.model.gate_latency(Gate(GateType.PREP_0, (0,))) == 51.0


class TestLogicalLatencyModel:
    model = LogicalLatencyModel(ION_TRAP)

    def test_transversal_one_qubit_costs_physical(self):
        assert self.model.gate_latency(Gate(GateType.H, (0,))) == ION_TRAP.t_1q

    def test_transversal_two_qubit_costs_physical(self):
        assert self.model.gate_latency(Gate(GateType.CX, (0, 1))) == ION_TRAP.t_2q

    def test_t_gate_costs_ancilla_interaction(self):
        expected = ION_TRAP.t_2q + ION_TRAP.t_meas + ION_TRAP.t_1q
        assert self.model.gate_latency(Gate(GateType.T, (0,))) == expected

    def test_interaction_latency_value(self):
        # CX + measure + conditional correct = 10 + 50 + 1 = 61us.
        assert self.model.non_transversal_interaction_latency() == 61.0

    def test_qec_interaction_is_two_corrections(self):
        # Bit plus phase correction: 2 x 61 = 122us.
        assert self.model.qec_interaction_latency() == 122.0

    def test_tdg_same_as_t(self):
        t = self.model.gate_latency(Gate(GateType.T, (0,)))
        tdg = self.model.gate_latency(Gate(GateType.T_DAG, (0,)))
        assert t == tdg

    def test_scaled_technology_scales_qec(self):
        fast = LogicalLatencyModel(ION_TRAP.scaled(0.5))
        assert fast.qec_interaction_latency() == 61.0
