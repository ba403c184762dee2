"""Unit tests for repro.error.vectorized: batch Monte Carlo engine."""

import numpy as np
import pytest

from repro.ancilla.evaluation import PrepStrategy, evaluate_strategy
from repro.error.batched import STEANE_DECODE
from repro.error.vectorized import (
    BatchFrames,
    VectorizedSimulator,
    evaluate_strategy_vectorized,
)
from repro.codes.steane import HAMMING_PARITY_CHECK, STEANE
from repro.tech import ErrorRates

CLEAN = ErrorRates(gate=0.0, movement=0.0, measurement=0.0)
FAST = ErrorRates(gate=2e-3, movement=2e-5, measurement=0.0)


class TestDecodeTable:
    def test_zero_syndrome_zero_correction(self):
        assert not STEANE_DECODE[0].any()

    def test_single_errors_decode_to_themselves(self):
        for q in range(7):
            err = np.zeros((1, 7), dtype=np.uint8)
            err[0, q] = 1
            syndrome = (err @ HAMMING_PARITY_CHECK.T) % 2
            key = syndrome[0, 0] | (syndrome[0, 1] << 1) | (syndrome[0, 2] << 2)
            assert np.array_equal(STEANE_DECODE[key], err[0])


class TestCleanExecution:
    def test_clean_encode_leaves_no_error(self):
        sim = VectorizedSimulator(errors=CLEAN)
        frames = BatchFrames(100, 7)
        sim.encode(frames, range(7), np.ones(100, dtype=bool))
        assert not frames.x.any()
        assert not frames.z.any()

    def test_clean_verification_passes_all(self):
        sim = VectorizedSimulator(errors=CLEAN)
        frames = BatchFrames(50, 10)
        passed = sim.verify_after_encode(
            frames, range(7), (7, 8, 9), np.ones(50, dtype=bool)
        )
        assert passed.all()

    def test_clean_strategies_zero_error(self):
        for strategy in PrepStrategy:
            report = evaluate_strategy_vectorized(
                strategy, trials=500, seed=0, errors=CLEAN
            )
            assert report.result.bad == 0
            assert report.result.discarded == 0

    def test_inactive_trials_untouched(self):
        sim = VectorizedSimulator(errors=CLEAN)
        frames = BatchFrames(10, 7)
        frames.x[5, 3] = 1
        active = np.zeros(10, dtype=bool)
        sim.encode(frames, range(7), active)
        assert frames.x[5, 3] == 1  # preps did not clear inactive trials


class TestGradeBad:
    def test_clean_frames_good(self):
        sim = VectorizedSimulator(errors=CLEAN)
        frames = BatchFrames(5, 7)
        assert not sim.grade_bad(frames, range(7)).any()

    def test_single_error_good(self):
        sim = VectorizedSimulator(errors=CLEAN)
        frames = BatchFrames(1, 7)
        frames.x[0, 2] = 1
        assert not sim.grade_bad(frames, range(7)).any()

    def test_logical_bad(self):
        sim = VectorizedSimulator(errors=CLEAN)
        frames = BatchFrames(1, 7)
        frames.x[0, :] = 1  # logical X
        assert sim.grade_bad(frames, range(7)).all()

    def test_stabilizer_good(self):
        sim = VectorizedSimulator(errors=CLEAN)
        frames = BatchFrames(1, 7)
        frames.z[0, :] = HAMMING_PARITY_CHECK[1]
        assert not sim.grade_bad(frames, range(7)).any()

    def test_agrees_with_scalar_grading(self):
        """Random patterns grade identically to the scalar code path."""
        rng = np.random.default_rng(5)
        sim = VectorizedSimulator(errors=CLEAN)
        patterns = rng.integers(0, 2, size=(200, 7), dtype=np.uint8)
        z_patterns = rng.integers(0, 2, size=(200, 7), dtype=np.uint8)
        frames = BatchFrames(200, 7)
        frames.x[:] = patterns
        frames.z[:] = z_patterns
        vec = sim.grade_bad(frames, range(7))
        for i in range(200):
            scalar = STEANE.is_uncorrectable(patterns[i], z_patterns[i])
            assert bool(vec[i]) == scalar, i


class TestEngineAgreement:
    """The two engines implement the same protocol; rates must agree
    within sampling noise at inflated error rates."""

    @pytest.mark.parametrize(
        "strategy",
        [PrepStrategy.BASIC, PrepStrategy.VERIFY_ONLY, PrepStrategy.CORRECT_ONLY],
    )
    def test_rates_agree(self, strategy):
        scalar = evaluate_strategy(strategy, trials=4000, seed=11, errors=FAST)
        vector = evaluate_strategy_vectorized(
            strategy, trials=40000, seed=13, errors=FAST
        )
        lo_s, hi_s = scalar.result.error_rate_interval()
        lo_v, hi_v = vector.result.error_rate_interval()
        assert lo_s <= hi_v and lo_v <= hi_s  # overlapping intervals

    def test_discard_rates_agree(self):
        scalar = evaluate_strategy(
            PrepStrategy.VERIFY_ONLY, trials=4000, seed=11, errors=FAST
        )
        vector = evaluate_strategy_vectorized(
            PrepStrategy.VERIFY_ONLY, trials=40000, seed=13, errors=FAST
        )
        assert vector.discard_rate == pytest.approx(scalar.discard_rate, rel=0.4)

    def test_reproducible(self):
        a = evaluate_strategy_vectorized(
            PrepStrategy.BASIC, trials=20000, seed=3, errors=FAST
        )
        b = evaluate_strategy_vectorized(
            PrepStrategy.BASIC, trials=20000, seed=3, errors=FAST
        )
        assert a.result.bad == b.result.bad

    def test_invalid_trials(self):
        with pytest.raises(ValueError):
            evaluate_strategy_vectorized(PrepStrategy.BASIC, trials=0)

    def test_batching_equivalent_totals(self):
        import repro.error.vectorized as vec

        old = vec._BATCH
        try:
            vec._BATCH = 1000
            report = evaluate_strategy_vectorized(
                PrepStrategy.BASIC, trials=2500, seed=1, errors=FAST
            )
            assert report.result.trials == 2500
        finally:
            vec._BATCH = old
