"""Unit tests for repro.ancilla.t_ancilla: the pi/8 ancilla circuit."""

from repro.ancilla.t_ancilla import (
    PI8_STAGE_NAMES,
    pi8_ancilla_circuit,
    pi8_stage_slices,
)
from repro.circuits.gate import GateType


class TestPi8AncillaCircuit:
    def test_width_is_two_blocks(self):
        assert pi8_ancilla_circuit().num_qubits == 14

    def test_has_seven_qubit_cat_prep(self):
        circ = pi8_ancilla_circuit()
        assert circ.count(GateType.PREP_0) == 7

    def test_transversal_interaction_gates(self):
        circ = pi8_ancilla_circuit()
        # Seven each of CZ, CS plus the transversal pi/8 layer.
        assert circ.count(GateType.CZ) == 7
        assert circ.count(GateType.CS) == 7
        assert circ.count(GateType.T) == 7

    def test_single_measurement(self):
        circ = pi8_ancilla_circuit()
        assert circ.count(GateType.MEASURE_Z) == 1

    def test_conditional_z_layer(self):
        circ = pi8_ancilla_circuit()
        conditionals = [g for g in circ if g.condition == "pi8_m"]
        assert len(conditionals) == 7
        assert all(g.gate_type is GateType.Z for g in conditionals)


class TestStageSlices:
    def test_four_stages(self):
        slices = pi8_stage_slices()
        assert tuple(slices) == PI8_STAGE_NAMES

    def test_stage_union_matches_full_circuit(self):
        slices = pi8_stage_slices()
        total = sum(len(c) for c in slices.values())
        assert total == len(pi8_ancilla_circuit())

    def test_decode_mirrors_encoder(self):
        decode = pi8_stage_slices()["decode_store"]
        assert decode.count(GateType.CX) == 9
        assert decode.count(GateType.H) == 3

    def test_cat_stage_is_chain(self):
        cat = pi8_stage_slices()["cat_state_prepare"]
        assert cat.count(GateType.CX) == 6


class TestConsumption:
    def test_data_side_cost_matches_latency_model(self):
        """The consumption circuit's data-side critical path equals the
        LogicalLatencyModel interaction price (CX + measure + correct)."""
        from repro.circuits.latency import LogicalLatencyModel
        from repro.tech import ION_TRAP

        model = LogicalLatencyModel(ION_TRAP)
        price = model.non_transversal_interaction_latency()
        assert price == ION_TRAP.t_2q + ION_TRAP.t_meas + ION_TRAP.t_1q
