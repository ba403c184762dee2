"""Unit tests for repro.error.montecarlo."""

import math

import pytest

from repro.ancilla.evaluation import _TRIALS, PrepStrategy
from repro.circuits import Circuit
from repro.error.montecarlo import (
    MonteCarloResult,
    MonteCarloSimulator,
    TrialOutcome,
)
from repro.error.pauli import PauliFrame
from repro.tech import ErrorRates


class TestMonteCarloResult:
    def test_error_rate_over_accepted(self):
        result = MonteCarloResult(trials=100, good=80, bad=10, discarded=10)
        assert result.error_rate == pytest.approx(10 / 90)

    def test_discard_rate_over_all(self):
        result = MonteCarloResult(trials=100, good=80, bad=10, discarded=10)
        assert result.discard_rate == pytest.approx(0.1)

    def test_empty_result_rates(self):
        result = MonteCarloResult()
        assert result.error_rate == 0.0
        assert result.discard_rate == 0.0

    def test_record(self):
        result = MonteCarloResult()
        result.record(TrialOutcome.GOOD)
        result.record(TrialOutcome.BAD)
        result.record(TrialOutcome.DISCARDED)
        assert (result.good, result.bad, result.discarded) == (1, 1, 1)

    def test_merge(self):
        a = MonteCarloResult(trials=10, good=9, bad=1)
        b = MonteCarloResult(trials=5, good=5)
        merged = a.merge(b)
        assert merged.trials == 15
        assert merged.bad == 1

    def test_wilson_interval_brackets_estimate(self):
        result = MonteCarloResult(trials=1000, good=990, bad=10)
        lo, hi = result.error_rate_interval()
        assert lo < result.error_rate < hi

    def test_wilson_interval_empty(self):
        assert MonteCarloResult().error_rate_interval() == (0.0, 1.0)


class TestErrorInjection:
    def test_zero_rates_inject_nothing(self):
        sim = MonteCarloSimulator(ErrorRates(gate=0.0, movement=0.0, measurement=0.0))
        frame = PauliFrame(2)
        circ = Circuit(2).h(0).cx(0, 1).t(1)
        sim.run_circuit(circ, frame)
        assert frame.is_identity()

    def test_certain_gate_error_always_corrupts(self):
        sim = MonteCarloSimulator(ErrorRates(gate=1.0, movement=0.0, measurement=0.0))
        frame = PauliFrame(1)
        sim.run_circuit(Circuit(1).h(0), frame)
        assert not frame.is_identity()

    def test_prep_errors_never_z(self):
        """Z on a fresh |0> is not an error; preps inject X/Y only."""
        sim = MonteCarloSimulator(
            ErrorRates(gate=1.0, movement=0.0, measurement=0.0), seed=3
        )
        for _ in range(50):
            frame = PauliFrame(1)
            sim.run_circuit(Circuit(1).prep_0(0), frame)
            assert frame.x[0] == 1  # X or Y, always includes the X part

    def test_movement_error_binomial(self):
        sim = MonteCarloSimulator(ErrorRates(gate=0.0, movement=1.0, measurement=0.0))
        frame = PauliFrame(1)
        sim.inject_movement_error(frame, 0, 1)
        assert not frame.is_identity()

    def test_movement_zero_ops_noop(self):
        sim = MonteCarloSimulator(ErrorRates(movement=1.0))
        frame = PauliFrame(1)
        sim.inject_movement_error(frame, 0, 0)
        assert frame.is_identity()

    def test_reproducible_with_seed(self):
        def run(seed):
            sim = MonteCarloSimulator(ErrorRates(gate=0.5), seed=seed)
            frame = PauliFrame(3)
            circ = Circuit(3).h(0).cx(0, 1).cx(1, 2)
            sim.run_circuit(circ, frame)
            return repr(frame)

        assert run(7) == run(7)
        # Different seeds usually diverge; check across several.
        assert any(run(7) != run(s) for s in range(8, 15))


class TestMeasurementHandling:
    def test_flip_bits_reported(self):
        sim = MonteCarloSimulator(ErrorRates(gate=0.0, movement=0.0, measurement=0.0))
        frame = PauliFrame(1)
        frame.apply_x(0)
        flips = sim.run_circuit(Circuit(1).measure_z(0, "m"), frame)
        assert flips["m"] == 1

    def test_clean_measurement_zero_flip(self):
        sim = MonteCarloSimulator(ErrorRates(gate=0.0, movement=0.0, measurement=0.0))
        flips = sim.run_circuit(Circuit(1).measure_z(0, "m"), PauliFrame(1))
        assert flips["m"] == 0

    def test_measurement_clears_qubit(self):
        sim = MonteCarloSimulator(ErrorRates(gate=0.0, movement=0.0, measurement=0.0))
        frame = PauliFrame(1)
        frame.apply_y(0)
        sim.run_circuit(Circuit(1).measure_z(0, "m"), frame)
        assert frame.is_identity()

    def test_readout_error_flips(self):
        sim = MonteCarloSimulator(ErrorRates(gate=0.0, movement=0.0, measurement=1.0))
        flips = sim.run_circuit(Circuit(1).measure_z(0, "m"), PauliFrame(1))
        assert flips["m"] == 1

    def test_conditional_fires_on_flip(self):
        sim = MonteCarloSimulator(ErrorRates(gate=0.0, movement=0.0, measurement=0.0))
        frame = PauliFrame(2)
        frame.apply_x(0)
        circ = Circuit(2).measure_z(0, "m").x(1, condition="m")
        sim.run_circuit(circ, frame)
        # The conditional X executed (it is a Pauli: frame unchanged), but
        # no error means the only sign is that it did not raise.
        assert frame.x[1] == 0

    def test_qubit_map_applies(self):
        sim = MonteCarloSimulator(ErrorRates(gate=0.0, movement=0.0, measurement=0.0))
        frame = PauliFrame(5)
        frame.apply_x(4)
        flips = sim.run_circuit(
            Circuit(1).measure_z(0, "m"), frame, qubit_map={0: 4}
        )
        assert flips["m"] == 1


class TestEstimate:
    def test_estimate_counts_trials(self):
        sim = MonteCarloSimulator()
        result = sim.estimate(lambda s: TrialOutcome.GOOD, trials=50)
        assert result.trials == 50
        assert result.good == 50

    def test_estimate_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            MonteCarloSimulator().estimate(lambda s: TrialOutcome.GOOD, trials=0)


def _per_trial(sim, trial, trials):
    """The plain loop ``estimate`` must reproduce exactly, and the number
    of trials a fault fired in (each firing redraws its gap from the RNG)."""
    result, faulty = MonteCarloResult(), 0
    for _ in range(trials):
        before = sim.rng.bit_generator.state
        result.record(trial(sim))
        faulty += sim.rng.bit_generator.state != before
    return result, faulty


def _state(sim):
    return _clocks(sim), sim.rng.bit_generator.state


PAPER_RATES = ErrorRates()
TEN_X_RATES = ErrorRates(gate=1e-3, movement=1e-5, measurement=1e-3)


class TestFastForward:
    """``estimate`` skips runs of fault-free trials whole; counts, clocks
    and the RNG stream must match running every trial."""

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("rates", [PAPER_RATES, TEN_X_RATES], ids=["paper", "10x"])
    @pytest.mark.parametrize("strategy", list(PrepStrategy), ids=lambda s: s.value)
    def test_matches_per_trial_loop(self, strategy, rates, seed):
        fast = MonteCarloSimulator(rates, seed=seed)
        slow = MonteCarloSimulator(rates, seed=seed)
        runs = []

        def trial(sim):
            runs.append(sim)
            return _TRIALS[strategy](sim)

        result = fast.estimate(trial, 1000)
        replayed = sum(sim is fast for sim in runs)
        assert (result, replayed) == _per_trial(slow, _TRIALS[strategy], 1000)
        assert _state(fast) == _state(slow)
        assert len(runs) == replayed + 1  # plus the probe

    @pytest.mark.parametrize("outcome", [TrialOutcome.DISCARDED, TrialOutcome.BAD])
    def test_fault_free_outcome_is_recorded_as_is(self, outcome):
        circ = Circuit(2).prep_0(0).cx(0, 1).measure_z(1, "m")

        def trial(sim):
            flips = sim.run_circuit(circ, PauliFrame(2), moves_per_qubit_per_gate=2)
            return TrialOutcome.GOOD if flips["m"] else outcome

        rates = ErrorRates(gate=0.01, movement=0.001, measurement=0.01)
        fast = MonteCarloSimulator(rates, seed=3)
        slow = MonteCarloSimulator(rates, seed=3)
        result = fast.estimate(trial, 500)
        assert result == _per_trial(slow, trial, 500)[0]
        assert _state(fast) == _state(slow)
        clean = result.discarded if outcome is TrialOutcome.DISCARDED else result.bad
        assert result.trials == 500 and clean > 450 and result.good > 0

    def test_zero_rates_run_the_trial_once(self):
        calls = []

        def trial(sim):
            calls.append(sim)
            sim.run_circuit(_ten_h(), PauliFrame(1), moves_per_qubit_per_gate=2)
            return TrialOutcome.GOOD

        sim = MonteCarloSimulator(ErrorRates(gate=0.0, movement=0.0, measurement=0.0))
        result = sim.estimate(trial, 1000)
        assert len(calls) == 1 and calls[0] is not sim  # the probe only
        assert result == MonteCarloResult(trials=1000, good=1000)

    def test_fault_free_rng_use_raises(self):
        def trial(sim):
            return (TrialOutcome.GOOD, TrialOutcome.BAD)[sim.rng.integers(2)]

        with pytest.raises(RuntimeError, match="sim.rng"):
            MonteCarloSimulator(seed=0).estimate(trial, 10)


class _CountingFrame(PauliFrame):
    """A frame that counts the Paulis injected into it (one per fault for
    one-qubit gates, movement and corrections)."""

    def __init__(self, num_qubits):
        super().__init__(num_qubits)
        self.faults = 0

    def apply_pauli(self, qubit, pauli):
        self.faults += 1
        super().apply_pauli(qubit, pauli)


#: Two-sided 99.9% normal quantile, for Wilson intervals on fault counts.
Z999 = 3.29


def _assert_rate(faults, opportunities, p):
    counts = MonteCarloResult(
        trials=opportunities, good=opportunities - faults, bad=faults
    )
    lo, hi = counts.error_rate_interval(z=Z999)
    assert lo <= p <= hi, f"{faults}/{opportunities} faults: [{lo}, {hi}] misses {p}"


def _clocks(sim):
    return (sim._gate_gap, sim._move_gap, sim._readout_gap)


def _ten_h():
    circ = Circuit(1)
    for _ in range(10):
        circ.h(0)
    return circ


class TestFaultClocks:
    """Faults are drawn by geometric gaps; per opportunity they must still
    fire at the configured rate, and a clean run must skip exactly the
    opportunities the gate walk would have spent."""

    @pytest.mark.parametrize("p", [0.01, 0.3])
    def test_gate_fault_rate(self, p):
        sim = MonteCarloSimulator(
            ErrorRates(gate=p, movement=0.0, measurement=0.0), seed=21
        )
        circ, frame, runs = _ten_h(), _CountingFrame(1), 2000
        for _ in range(runs):
            frame.clear(0)  # clean frames take the skip path when no fault is due
            sim.run_circuit(circ, frame)
        _assert_rate(frame.faults, 10 * runs, p)

    @pytest.mark.parametrize("p", [0.01, 0.3])
    def test_movement_fault_rate(self, p):
        sim = MonteCarloSimulator(
            ErrorRates(gate=0.0, movement=p, measurement=0.0), seed=22
        )
        circ, frame, runs = _ten_h(), _CountingFrame(1), 700
        for _ in range(runs):
            frame.clear(0)
            sim.run_circuit(circ, frame, moves_per_qubit_per_gate=3)
        _assert_rate(frame.faults, 30 * runs, p)

    @pytest.mark.parametrize("p", [0.01, 0.3])
    def test_readout_fault_rate(self, p):
        sim = MonteCarloSimulator(
            ErrorRates(gate=0.0, movement=0.0, measurement=p), seed=23
        )
        circ = Circuit(10)
        for q in range(10):
            circ.measure_z(q, f"m{q}")
        runs, flipped = 2000, 0
        for _ in range(runs):
            flipped += sum(sim.run_circuit(circ, PauliFrame(10)).values())
        _assert_rate(flipped, 10 * runs, p)

    @staticmethod
    def _mixed_circuit():
        # Unconditional: prep, h, cx (3 gate opportunities), two
        # measurements, and 1+1+2+1+1 = 6 qubit touches; the conditional
        # X never fires on a fault-free run.
        return (
            Circuit(3)
            .prep_0(0)
            .h(0)
            .cx(0, 1)
            .measure_z(1, "m")
            .x(2, condition="m")
            .measure_x(0, "n")
        )

    def test_clean_run_advances_clocks_by_circuit_counts(self):
        rare = ErrorRates(gate=1e-9, movement=1e-9, measurement=1e-9)
        circ = self._mixed_circuit()
        for frame in (PauliFrame(3), PauliFrame(4)):
            if frame.num_qubits == 4:
                frame.apply_x(3)  # dirty but untouched: forces the gate walk
            sim = MonteCarloSimulator(rare, seed=0)
            before = _clocks(sim)
            flips = sim.run_circuit(circ, frame, moves_per_qubit_per_gate=2)
            after = _clocks(sim)
            assert flips == {"m": 0, "n": 0}
            assert tuple(b - a for a, b in zip(after, before)) == (3, 2 * 6, 2)
            assert frame.weight(range(3)) == 0

    def test_same_seed_same_stream(self):
        rates = ErrorRates(gate=0.3, movement=0.01, measurement=0.3)
        circ = self._mixed_circuit()

        def run(seed):
            sim = MonteCarloSimulator(rates, seed=seed)
            frame, out = PauliFrame(3), []
            for _ in range(200):
                flips = sim.run_circuit(circ, frame, moves_per_qubit_per_gate=2)
                out.append((tuple(sorted(flips.items())), repr(frame)))
            return out, _clocks(sim)

        assert run(5) == run(5)
        assert run(5) != run(6)

    def test_certain_faults_fire_at_every_opportunity(self):
        sim = MonteCarloSimulator(ErrorRates(gate=1.0, movement=1.0, measurement=1.0))
        assert all(sim.gate_fault() for _ in range(100))
        frame = _CountingFrame(1)
        sim.run_circuit(_ten_h(), frame, moves_per_qubit_per_gate=2)
        assert frame.faults == 10 + 10 * 2
        circ = Circuit(3).measure_z(0, "a").measure_z(1, "b").measure_z(2, "c")
        flips = sim.run_circuit(circ, PauliFrame(3))
        assert flips == {"a": 1, "b": 1, "c": 1}

    def test_zero_rates_never_fire(self):
        sim = MonteCarloSimulator(ErrorRates(gate=0.0, movement=0.0, measurement=0.0))
        assert not any(sim.gate_fault() for _ in range(100))
        frame = PauliFrame(1)
        frame.apply_x(0)  # dirty: every run takes the gate walk
        for _ in range(100):
            sim.run_circuit(_ten_h(), frame, moves_per_qubit_per_gate=2)
        assert frame.weight() == 1
        assert all(math.isinf(gap) for gap in _clocks(sim))
