"""Unit tests for the Figure 4 strategies on the batched engine:
the batched interpreter of the strategy table in
repro.ancilla.evaluation, and the Steane decode/grading helpers of
repro.error.batched it uses."""

import numpy as np
import pytest

import repro.error.batched as batched
from repro.ancilla.evaluation import (
    _ENCODER,
    _TOP,
    PrepStrategy,
    _batched_run,
    _batched_verified,
    evaluate_strategy,
)
from repro.error.batched import (
    STEANE_DECODE,
    BatchedSimulator,
    BatchFrames,
    steane_grade_bad,
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
        sim = BatchedSimulator(errors=CLEAN)
        frames = BatchFrames(100, 7)
        _batched_run(sim, _ENCODER, frames, _TOP, active=np.ones(100, dtype=bool))
        assert not frames.x.any()
        assert not frames.z.any()

    def test_clean_verification_passes_all(self):
        sim = BatchedSimulator(errors=CLEAN)
        frames = BatchFrames(50, 10)
        active = np.ones(50, dtype=bool)
        _batched_run(sim, _ENCODER, frames, _TOP, active=active)
        passed = _batched_verified(sim, frames, _TOP, (7, 8, 9), active)
        assert passed.all()

    def test_clean_strategies_zero_error(self):
        for strategy in PrepStrategy:
            report = evaluate_strategy(
                strategy, trials=500, seed=0, errors=CLEAN, engine="batched"
            )
            assert report.result.bad == 0
            assert report.result.discarded == 0

    def test_inactive_trials_untouched(self):
        sim = BatchedSimulator(errors=CLEAN)
        frames = BatchFrames(10, 7)
        frames.x[5, 3] = 1
        active = np.zeros(10, dtype=bool)
        sim.run_circuit(_ENCODER, frames, active=active)
        assert frames.x[5, 3] == 1  # preps did not clear inactive trials


class TestGradeBad:
    def test_clean_frames_good(self):
        frames = BatchFrames(5, 7)
        assert not steane_grade_bad(frames, range(7)).any()

    def test_single_error_good(self):
        frames = BatchFrames(1, 7)
        frames.x[0, 2] = 1
        assert not steane_grade_bad(frames, range(7)).any()

    def test_logical_bad(self):
        frames = BatchFrames(1, 7)
        frames.x[0, :] = 1  # logical X
        assert steane_grade_bad(frames, range(7)).all()

    def test_stabilizer_good(self):
        frames = BatchFrames(1, 7)
        frames.z[0, :] = HAMMING_PARITY_CHECK[1]
        assert not steane_grade_bad(frames, range(7)).any()

    def test_agrees_with_scalar_grading(self):
        """Random patterns grade identically to the scalar code path."""
        rng = np.random.default_rng(5)
        patterns = rng.integers(0, 2, size=(200, 7), dtype=np.uint8)
        z_patterns = rng.integers(0, 2, size=(200, 7), dtype=np.uint8)
        frames = BatchFrames(200, 7)
        frames.x[:] = patterns
        frames.z[:] = z_patterns
        vec = steane_grade_bad(frames, range(7))
        for i in range(200):
            scalar = STEANE.is_uncorrectable(patterns[i], z_patterns[i])
            assert bool(vec[i]) == scalar, i


class TestEngineAgreement:
    """The two engines interpret the same strategy table; rates must
    agree within sampling noise at inflated error rates."""

    @pytest.mark.parametrize(
        "strategy",
        [PrepStrategy.BASIC, PrepStrategy.VERIFY_ONLY, PrepStrategy.CORRECT_ONLY],
    )
    def test_rates_agree(self, strategy):
        scalar = evaluate_strategy(strategy, trials=4000, seed=11, errors=FAST)
        vector = evaluate_strategy(
            strategy, trials=40000, seed=13, errors=FAST, engine="batched"
        )
        lo_s, hi_s = scalar.result.error_rate_interval()
        lo_v, hi_v = vector.result.error_rate_interval()
        assert lo_s <= hi_v and lo_v <= hi_s  # overlapping intervals

    def test_discard_rates_agree(self):
        scalar = evaluate_strategy(
            PrepStrategy.VERIFY_ONLY, trials=4000, seed=11, errors=FAST
        )
        vector = evaluate_strategy(
            PrepStrategy.VERIFY_ONLY, trials=40000, seed=13, errors=FAST,
            engine="batched",
        )
        assert vector.discard_rate == pytest.approx(scalar.discard_rate, rel=0.4)

    def test_reproducible(self):
        a = evaluate_strategy(
            PrepStrategy.BASIC, trials=20000, seed=3, errors=FAST,
            engine="batched",
        )
        b = evaluate_strategy(
            PrepStrategy.BASIC, trials=20000, seed=3, errors=FAST,
            engine="batched",
        )
        assert a.result.bad == b.result.bad

    def test_invalid_trials(self):
        with pytest.raises(ValueError):
            evaluate_strategy(PrepStrategy.BASIC, trials=0, engine="batched")

    def test_batching_equivalent_totals(self, monkeypatch):
        monkeypatch.setattr(batched, "BATCH_TRIALS", 1000)
        report = evaluate_strategy(
            PrepStrategy.BASIC, trials=2500, seed=1, errors=FAST,
            engine="batched",
        )
        assert report.result.trials == 2500
