"""Unit tests for repro.error.batched: the general protocol engine."""

import numpy as np
import pytest

from repro.circuits import Circuit
from repro.error.batched import (
    BatchFrames,
    BatchedSimulator,
    ProtocolLoweringError,
    compile_protocol,
    steane_grade_bad,
)
from repro.codes.steane import HAMMING_PARITY_CHECK, STEANE
from repro.error.montecarlo import MonteCarloResult
from repro.tech import ErrorRates

CLEAN = ErrorRates(gate=0.0, movement=0.0, measurement=0.0)


class TestCompileProtocol:
    def test_memoized_per_circuit_and_map(self):
        circ = Circuit(3).h(0).cx(0, 1).measure_z(1, "m")
        assert compile_protocol(circ) is compile_protocol(circ)
        mapped = compile_protocol(circ, {0: 5, 1: 6, 2: 7})
        assert mapped is compile_protocol(circ, {0: 5, 1: 6, 2: 7})
        assert mapped is not compile_protocol(circ)

    def test_qubit_map_sets_frame_width(self):
        circ = Circuit(2).h(0).cx(0, 1)
        program = compile_protocol(circ, {0: 9, 1: 4})
        assert program.num_qubits == 10
        assert program.q0 == [9, 9]
        assert program.q1 == [-1, 4]

    def test_bits_interned_in_program_order(self):
        circ = Circuit(2)
        circ.measure_z(0, "a").measure_z(1, "b").x(0, condition="b")
        program = compile_protocol(circ)
        assert program.bit_names == ("a", "b")
        assert program.cond == [-1, -1, 1]
        assert program.result == [0, 1, -1]

    def test_unsupported_gate_rejected(self):
        circ = Circuit(3).ccx(0, 1, 2)
        with pytest.raises(ProtocolLoweringError):
            compile_protocol(circ)

    def test_append_after_compile_recompiles(self):
        circ = Circuit(2).h(0)
        first = compile_protocol(circ)
        circ.cx(0, 1)
        second = compile_protocol(circ)
        assert second is not first
        assert second.num_gates == 2


class TestCleanExecution:
    def run(self, circ, frames, **kw):
        sim = BatchedSimulator(errors=CLEAN)
        active = np.ones(frames.x.shape[0], dtype=bool)
        return sim.run_circuit(circ, frames, active=active, **kw)

    def test_h_swaps_x_and_z(self):
        frames = BatchFrames(2, 1)
        frames.x[0, 0] = 1
        frames.z[1, 0] = 1
        self.run(Circuit(1).h(0), frames)
        assert frames.x[0, 0] == 0 and frames.z[0, 0] == 1
        assert frames.x[1, 0] == 1 and frames.z[1, 0] == 0

    def test_cx_spreads_flips(self):
        frames = BatchFrames(1, 2)
        frames.x[0, 0] = 1  # X on control spreads to target
        self.run(Circuit(2).cx(0, 1), frames)
        assert frames.x[0, 1] == 1

    def test_cz_spreads_phase(self):
        frames = BatchFrames(1, 2)
        frames.x[0, 0] = 1  # X_a -> X_a Z_b under CZ
        self.run(Circuit(2).cz(0, 1), frames)
        assert frames.z[0, 1] == 1
        assert frames.x[0, 0] == 1

    def test_swap_exchanges_frames(self):
        frames = BatchFrames(1, 2)
        frames.x[0, 0] = 1
        frames.z[0, 1] = 1
        self.run(Circuit(2).swap(0, 1), frames)
        assert frames.x[0, 1] == 1 and frames.x[0, 0] == 0
        assert frames.z[0, 0] == 1 and frames.z[0, 1] == 0

    def test_s_maps_x_to_y(self):
        frames = BatchFrames(1, 1)
        frames.x[0, 0] = 1
        self.run(Circuit(1).s(0), frames)
        assert frames.z[0, 0] == 1

    def test_prep_clears_active_only(self):
        frames = BatchFrames(2, 1)
        frames.x[:, 0] = 1
        sim = BatchedSimulator(errors=CLEAN)
        active = np.array([True, False])
        sim.run_circuit(Circuit(1).prep_0(0), frames, active=active)
        assert frames.x[0, 0] == 0
        assert frames.x[1, 0] == 1

    def test_measurement_records_flip_and_clears(self):
        frames = BatchFrames(2, 1)
        frames.x[0, 0] = 1
        flips = self.run(Circuit(1).measure_z(0, "m"), frames)
        assert flips["m"].tolist() == [1, 0]
        assert not frames.x.any() and not frames.z.any()

    def test_measure_x_reads_z(self):
        frames = BatchFrames(1, 1)
        frames.z[0, 0] = 1
        flips = self.run(Circuit(1).measure_x(0, "m"), frames)
        assert flips["m"].tolist() == [1]

    def test_conditional_fires_per_trial(self):
        # X flip on qubit 0 flips the Z measurement, which conditions an
        # X on qubit 1: only the flipped trial picks up the correction.
        circ = Circuit(2).measure_z(0, "m").x(1, condition="m").h(1, condition="m")
        frames = BatchFrames(2, 2)
        frames.x[0, 0] = 1
        frames.x[:, 1] = 1  # existing X on qubit 1 for both trials
        self.run(circ, frames)
        # Trial 0 fired: H swapped its X into Z. Trial 1 did not fire.
        assert frames.z[0, 1] == 1 and frames.x[0, 1] == 0
        assert frames.x[1, 1] == 1 and frames.z[1, 1] == 0

    def test_condition_never_flipped_skips_everywhere(self):
        circ = Circuit(2).measure_z(0, "m").h(1, condition="m")
        frames = BatchFrames(3, 2)
        frames.z[:, 1] = 1  # would swap into X if the H ever fired
        self.run(circ, frames)
        assert not frames.x.any()
        assert (frames.z[:, 1] == 1).all()

    def test_conditional_measurement_skipped_reads_zero(self):
        # The conditional measurement only fires in flipped trials; a
        # later gate conditioned on its bit sees 0 in skipped trials.
        circ = Circuit(3)
        circ.measure_z(0, "a")
        circ.measure_z(1, "b", condition="a")
        circ.h(2, condition="b")
        frames = BatchFrames(2, 3)
        frames.x[0, 0] = 1  # trial 0: 'a' flips, 'b' measured
        frames.x[0, 1] = 1  # ... and 'b' flips too, so the H fires
        frames.x[1, 1] = 1  # trial 1: 'a' clean, 'b' never measured
        frames.z[:, 2] = 1  # the H, where fired, swaps this into X
        self.run(circ, frames)
        assert frames.x[0, 2] == 1 and frames.z[0, 2] == 0
        assert frames.x[1, 2] == 0 and frames.z[1, 2] == 1

    def test_frames_too_small_rejected(self):
        sim = BatchedSimulator(errors=CLEAN)
        frames = BatchFrames(1, 2)
        with pytest.raises(ValueError):
            sim.run_circuit(
                Circuit(3).cx(0, 2), frames, active=np.ones(1, dtype=bool)
            )


class TestStochasticBehavior:
    def test_reproducible_per_seed(self):
        circ = Circuit(4)
        for q in range(4):
            circ.prep_0(q)
        circ.h(0).cx(0, 1).cx(1, 2).cx(2, 3)
        noisy = ErrorRates(gate=0.05, movement=1e-3, measurement=0.0)
        outs = []
        for _ in range(2):
            sim = BatchedSimulator(errors=noisy, seed=42)
            frames = BatchFrames(500, 4)
            sim.run_circuit(
                circ, frames, active=np.ones(500, dtype=bool),
                moves_per_qubit_per_gate=2.0,
            )
            outs.append((frames.x.copy(), frames.z.copy()))
        assert np.array_equal(outs[0][0], outs[1][0])
        assert np.array_equal(outs[0][1], outs[1][1])

    def test_inactive_trials_untouched_under_noise(self):
        circ = Circuit(2).prep_0(0).h(0).cx(0, 1)
        noisy = ErrorRates(gate=0.5, movement=0.01, measurement=0.0)
        sim = BatchedSimulator(errors=noisy, seed=1)
        frames = BatchFrames(200, 2)
        frames.x[:, 1] = 1
        active = np.zeros(200, dtype=bool)
        active[:100] = True
        sim.run_circuit(circ, frames, active=active,
                        moves_per_qubit_per_gate=2.0)
        assert (frames.x[100:, 1] == 1).all()
        assert not frames.x[100:, 0].any()
        assert not frames.z[100:, :].any()

    def test_measurement_error_flips_outcomes(self):
        circ = Circuit(1).measure_z(0, "m")
        sim = BatchedSimulator(
            errors=ErrorRates(gate=0.0, movement=0.0, measurement=1.0), seed=0
        )
        frames = BatchFrames(50, 1)
        flips = sim.run_circuit(circ, frames, active=np.ones(50, dtype=bool))
        assert (flips["m"] == 1).all()  # clean qubit + certain readout flip


class TestSparseFaultDraws:
    """Faults are drawn as sparse hit sets (binomial count, uniform
    subset); per active trial they must still land at the configured
    rate, and never on an inactive trial."""

    TRIALS = 20000

    def _run(self, circ, errors, seed, **kw):
        sim = BatchedSimulator(errors=errors, seed=seed)
        frames = BatchFrames(self.TRIALS, circ.num_qubits)
        active = np.zeros(self.TRIALS, dtype=bool)
        active[: self.TRIALS // 2] = True
        flips = sim.run_circuit(circ, frames, active=active, **kw)
        hit = (frames.x | frames.z).any(axis=1)
        assert not hit[~active].any()
        return hit[active], flips, active

    @staticmethod
    def _assert_rate(hits, p):
        n, k = hits.size, int(hits.sum())
        counts = MonteCarloResult(trials=n, good=n - k, bad=k)
        lo, hi = counts.error_rate_interval(z=3.29)  # two-sided 99.9%
        assert lo <= p <= hi, f"{k}/{n} hits: [{lo}, {hi}] misses {p}"

    @pytest.mark.parametrize("p", [0.01, 0.3])
    def test_one_qubit_gate_fault_rate(self, p):
        gate = ErrorRates(gate=p, movement=0.0, measurement=0.0)
        hits, _, _ = self._run(Circuit(1).h(0), gate, 31)
        self._assert_rate(hits, p)

    @pytest.mark.parametrize("p", [0.01, 0.3])
    def test_two_qubit_gate_fault_rate(self, p):
        gate = ErrorRates(gate=p, movement=0.0, measurement=0.0)
        hits, _, _ = self._run(Circuit(2).cx(0, 1), gate, 32)
        self._assert_rate(hits, p)

    @pytest.mark.parametrize("p", [0.01, 0.3])
    def test_movement_fault_rate(self, p):
        movement = ErrorRates(gate=0.0, movement=p, measurement=0.0)
        hits, _, _ = self._run(
            Circuit(1).h(0), movement, 33, moves_per_qubit_per_gate=3.0
        )
        self._assert_rate(hits, 1.0 - (1.0 - p) ** 3)  # >= 1 of 3 ops faults

    @pytest.mark.parametrize("p", [0.01, 0.3])
    def test_readout_fault_rate(self, p):
        readout = ErrorRates(gate=0.0, movement=0.0, measurement=p)
        _, flips, active = self._run(Circuit(1).measure_z(0, "m"), readout, 34)
        assert not flips["m"][~active].any()
        self._assert_rate(flips["m"][active].astype(bool), p)


class TestSteaneGrading:
    def test_agrees_with_scalar_grading(self):
        rng = np.random.default_rng(5)
        patterns = rng.integers(0, 2, size=(200, 7), dtype=np.uint8)
        z_patterns = rng.integers(0, 2, size=(200, 7), dtype=np.uint8)
        frames = BatchFrames(200, 7)
        frames.x[:] = patterns
        frames.z[:] = z_patterns
        vec = steane_grade_bad(frames, range(7))
        for i in range(200):
            assert bool(vec[i]) == STEANE.is_uncorrectable(
                patterns[i], z_patterns[i]
            ), i

    def test_stabilizer_row_graded_good(self):
        frames = BatchFrames(1, 7)
        frames.z[0, :] = HAMMING_PARITY_CHECK[1]
        assert not steane_grade_bad(frames, range(7)).any()
