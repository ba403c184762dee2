"""Unit tests for the Figure 4 zero-prep strategy table and the
sub-circuits its entries run (repro.ancilla.evaluation)."""

import numpy as np

from repro.ancilla.evaluation import (
    _BIT,
    _CAT3,
    _ENCODER,
    _PHASE,
    _RECIPES,
    _VERIFY_CHECK,
    CAT_WIDTH,
    VERIFY_SUPPORT,
    PrepStrategy,
)
from repro.circuits.gate import GateType
from repro.codes.steane import STEANE
from repro.error.montecarlo import MonteCarloSimulator, TrialOutcome
from repro.tech import ErrorRates

CLEAN = ErrorRates(gate=0.0, movement=0.0, measurement=0.0)


def _executed(strategy):
    """The sub-circuits one fault-free scalar trial of ``strategy`` runs."""
    sim = MonteCarloSimulator(CLEAN)
    run = sim.run_circuit
    circuits = []

    def recording(circuit, *args, **kwargs):
        circuits.append(circuit)
        return run(circuit, *args, **kwargs)

    sim.run_circuit = recording
    assert _RECIPES[strategy].trial(sim) is TrialOutcome.GOOD
    return circuits


def _count(circuits, gate_type):
    return sum(circuit.count(gate_type) for circuit in circuits)


class TestVerifySupport:
    def test_support_is_logical_z_representative(self):
        rep = np.zeros(7, dtype=np.uint8)
        rep[list(VERIFY_SUPPORT)] = 1
        assert not STEANE.z_error_syndrome(rep).any()
        assert STEANE.is_logical_z(rep)


class TestSubCircuits:
    def test_check_census(self):
        assert _VERIFY_CHECK.num_qubits == 7 + CAT_WIDTH
        assert _VERIFY_CHECK.count(GateType.CX) == 3
        assert _VERIFY_CHECK.count(GateType.MEASURE_Z) == 3
        assert len(_VERIFY_CHECK) == 6

    def test_bit_correction_census(self):
        circuit = _BIT[0]
        assert circuit.count(GateType.CX) == 7
        assert circuit.count(GateType.MEASURE_Z) == 7
        assert len(circuit) == 14
        # The target block controls: its X errors copy onto the helper.
        assert all(g.qubits[0] < 7 for g in circuit if g.gate_type is GateType.CX)

    def test_phase_correction_census(self):
        circuit = _PHASE[0]
        assert circuit.count(GateType.CX) == 7
        assert circuit.count(GateType.MEASURE_X) == 7
        assert len(circuit) == 14
        # The helper controls: the target's Z errors copy onto it.
        assert all(g.qubits[0] >= 7 for g in circuit if g.gate_type is GateType.CX)


class TestBasic:
    def test_is_encoder(self):
        assert _ENCODER.num_qubits == 7
        assert _ENCODER.count(GateType.CX) == 9
        assert _executed(PrepStrategy.BASIC) == [_ENCODER]


class TestVerifyOnly:
    def test_width(self):
        assert _RECIPES[PrepStrategy.VERIFY_ONLY].width == 10

    def test_has_three_measurements(self):
        executed = _executed(PrepStrategy.VERIFY_ONLY)
        assert _count(executed, GateType.MEASURE_Z) == 3

    def test_verification_cx_count(self):
        # 9 encoder + 2 cat chain + 3 parity check.
        executed = _executed(PrepStrategy.VERIFY_ONLY)
        assert executed == [_ENCODER, _CAT3, _VERIFY_CHECK]
        assert _count(executed, GateType.CX) == 14


class TestCorrectOnly:
    def test_width_three_blocks(self):
        recipe = _RECIPES[PrepStrategy.CORRECT_ONLY]
        assert recipe.width == 21
        assert len(recipe.blocks) == 3 and not recipe.cat

    def test_three_encoders(self):
        executed = _executed(PrepStrategy.CORRECT_ONLY)
        assert _count(executed, GateType.PREP_0) == 21
        assert _count(executed, GateType.H) == 9

    def test_correction_measurements(self):
        executed = _executed(PrepStrategy.CORRECT_ONLY)
        assert _count(executed, GateType.MEASURE_Z) == 7
        assert _count(executed, GateType.MEASURE_X) == 7


class TestVerifyAndCorrect:
    def test_three_verifications(self):
        executed = _executed(PrepStrategy.VERIFY_AND_CORRECT)
        # 9 verification measurements + 7 bit-correct measurements.
        assert _count(executed, GateType.MEASURE_Z) == 9 + 7
        assert _count(executed, GateType.MEASURE_X) == 7

    def test_cx_census(self):
        executed = _executed(PrepStrategy.VERIFY_AND_CORRECT)
        # 3 x (9 encoder + 2 cat + 3 check) + 7 bit + 7 phase = 56.
        assert _count(executed, GateType.CX) == 56
