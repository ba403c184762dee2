"""Unit tests: concatenation-level technology re-characterization."""

import pytest

from repro.factory.simple import SimpleZeroFactory
from repro.tech import ION_TRAP, ErrorRates, TechnologyParams, at_level
from repro.tech.levels import (
    BLOCK_SIZE,
    DEFAULT_CALIBRATION_SEED,
    DEFAULT_CALIBRATION_TRIALS,
    level_one_logical_error_rate,
)


class TestLevelOne:
    def test_level_one_is_identity(self):
        assert at_level(ION_TRAP, 1) is ION_TRAP
        assert ION_TRAP.at_level(1) is ION_TRAP

    def test_invalid_levels_rejected(self):
        with pytest.raises(ValueError):
            at_level(ION_TRAP, 0)
        with pytest.raises(TypeError):
            at_level(ION_TRAP, 2.0)


class TestLeveledLatencies:
    def test_level_two_latency_model(self):
        level2 = ION_TRAP.at_level(2)
        qec = 2.0 * (ION_TRAP.t_2q + ION_TRAP.t_meas + ION_TRAP.t_1q)
        assert level2.t_1q == ION_TRAP.t_1q + qec
        assert level2.t_2q == ION_TRAP.t_2q + qec
        assert level2.t_meas == ION_TRAP.t_meas
        # Encoded prep is a full simple-factory pass at the level below
        # (323 us with the paper's latencies).
        assert level2.t_prep == SimpleZeroFactory(ION_TRAP).latency_us == 323.0
        assert level2.t_move == ION_TRAP.t_move * BLOCK_SIZE
        assert level2.t_turn == ION_TRAP.t_turn * BLOCK_SIZE
        assert level2.name == "ion-trap@L2"

    def test_level_three_recursion(self):
        level2 = ION_TRAP.at_level(2)
        level3 = ION_TRAP.at_level(3)
        qec2 = 2.0 * (level2.t_2q + level2.t_meas + level2.t_1q)
        assert level3.t_1q == level2.t_1q + qec2
        assert level3.t_prep == SimpleZeroFactory(level2).latency_us
        assert level3.t_1q > level2.t_1q > ION_TRAP.t_1q

    def test_memoized_per_tech_and_level(self):
        assert ION_TRAP.at_level(2) is ION_TRAP.at_level(2)
        assert ION_TRAP.at_level(3) is at_level(ION_TRAP, 3)
        other = ION_TRAP.scaled(2.0)
        assert other.at_level(2) is not ION_TRAP.at_level(2)

    def test_scaled_then_leveled_composes(self):
        fast = ION_TRAP.scaled(0.5)
        leveled = fast.at_level(2)
        qec = 2.0 * (fast.t_2q + fast.t_meas + fast.t_1q)
        assert leveled.t_1q == fast.t_1q + qec


class TestLeveledErrors:
    def test_calibration_is_deterministic_and_memoized(self):
        first = level_one_logical_error_rate(ION_TRAP.errors)
        second = level_one_logical_error_rate(ION_TRAP.errors)
        assert first == second
        assert 0.0 <= first <= 1.0

    def test_level_two_gate_error_is_the_mc_rate(self):
        """The scaling law is anchored so p(2) == the measured level-1
        logical rate: C = p1/p0^2 and p(2) = C * p0^2 = p1."""
        p1 = level_one_logical_error_rate(
            ION_TRAP.errors, DEFAULT_CALIBRATION_TRIALS, DEFAULT_CALIBRATION_SEED
        )
        assert ION_TRAP.at_level(2).errors.gate == pytest.approx(p1)

    def test_scaling_law_square(self):
        """p(L+1)/p(L) follows the quadratic law with the same constant."""
        p0 = ION_TRAP.errors.gate
        p2 = ION_TRAP.at_level(2).errors.gate
        p3 = ION_TRAP.at_level(3).errors.gate
        constant = p2 / (p0 * p0)
        assert p3 == pytest.approx(min(1.0, constant * p2 * p2))

    def test_suppression_below_pseudothreshold(self):
        """A technology above the protocol's pseudothreshold is
        *suppressed* level over level (p1 < p0 forces a shrinking
        quadratic law), while the default ion-trap point sits below it
        and degrades — both faces of the same threshold law."""
        clean = ION_TRAP.with_errors(
            ErrorRates(gate=1e-5, movement=1e-8, measurement=0.0)
        )
        # p1 is ~6e-6 here (98 failures in 16M trials), only 1.6x under
        # p0: 400k trials expect ~2.5 failures and fail the assertion at
        # >= 4, which a quarter of RNG streams do. 4M trials expect ~25
        # against a bound of 40.
        trials = 4_000_000
        p1 = level_one_logical_error_rate(clean.errors, trials=trials)
        assert p1 < clean.errors.gate  # suppressing regime at this point
        level2 = clean.at_level(2, mc_trials=trials)
        level3 = clean.at_level(3, mc_trials=trials)
        assert level2.errors.gate < clean.errors.gate
        assert level3.errors.gate < level2.errors.gate

    def test_zero_event_measurement_reports_resolution_floor(self):
        """Zero observed failures must not report an exact zero rate."""
        spotless = ErrorRates(gate=1e-9, movement=0.0, measurement=0.0)
        rate = level_one_logical_error_rate(spotless, trials=2_000)
        assert 0.0 < rate <= 1.0 / 1_000

    def test_zero_error_stays_zero(self):
        perfect = ION_TRAP.with_errors(
            ErrorRates(gate=0.0, movement=0.0, measurement=0.0)
        )
        leveled = perfect.at_level(2)
        assert leveled.errors.gate == 0.0
        assert leveled.errors.movement == 0.0


class TestLeveledAnalysis:
    def test_analyze_kernel_code_level_equals_leveled_tech(self):
        from repro.kernels import analyze_kernel

        direct = analyze_kernel("qrca", 8, ION_TRAP.at_level(2))
        via_level = analyze_kernel("qrca", 8, code_level=2)
        assert via_level is direct  # one shared memoized characterization

    def test_leveled_execution_slower_but_same_circuit(self):
        from repro.kernels import analyze_kernel

        level1 = analyze_kernel("qcla", 8)
        level2 = analyze_kernel("qcla", 8, code_level=2)
        # Same logical kernel (the decomposition is level-independent)...
        assert len(level2.circuit) == len(level1.circuit)
        assert level2.circuit.num_qubits == level1.circuit.num_qubits
        assert level2.data_qubits == level1.data_qubits
        # ...characterized under slower effective operations.
        assert level2.execution_time_us > level1.execution_time_us
        assert level2.zero_bandwidth_per_ms < level1.zero_bandwidth_per_ms
