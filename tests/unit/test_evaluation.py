"""Unit tests for repro.ancilla.evaluation (fast, inflated error rates).

The benchmark suite measures the Figure 4 rates at the paper's error
rates; these tests exercise the protocols at inflated rates so the
statistics converge in fractions of a second.
"""

import pytest

import repro.ancilla.evaluation as evaluation
from repro.ancilla.evaluation import (
    PAPER_ERROR_RATES,
    PrepStrategy,
    evaluate_strategies,
    evaluate_strategy,
)
from repro.error.montecarlo import TrialOutcome
from repro.tech import ErrorRates

FAST = ErrorRates(gate=2e-3, movement=2e-5, measurement=0.0)


class TestEvaluateStrategy:
    def test_returns_report_with_paper_value(self):
        report = evaluate_strategy(PrepStrategy.BASIC, trials=200, seed=0, errors=FAST)
        assert report.paper_error_rate == PAPER_ERROR_RATES[PrepStrategy.BASIC]

    def test_reproducible(self):
        a = evaluate_strategy(PrepStrategy.BASIC, trials=500, seed=5, errors=FAST)
        b = evaluate_strategy(PrepStrategy.BASIC, trials=500, seed=5, errors=FAST)
        assert a.result.bad == b.result.bad

    def test_summary_mentions_strategy(self):
        report = evaluate_strategy(
            PrepStrategy.VERIFY_ONLY, trials=200, seed=0, errors=FAST
        )
        assert "verify_only" in report.summary()

    def test_all_strategies_run(self):
        reports = evaluate_strategies(trials=100, seed=0, errors=FAST)
        assert set(reports) == set(PrepStrategy)

    def test_trials_accounted(self):
        report = evaluate_strategy(PrepStrategy.BASIC, trials=321, seed=0, errors=FAST)
        assert report.result.trials == 321


class TestStrategyBehavior:
    def test_verification_discards_occur(self):
        report = evaluate_strategy(
            PrepStrategy.VERIFY_ONLY, trials=4000, seed=1, errors=FAST
        )
        assert report.discard_rate > 0.0

    def test_basic_never_discards(self):
        report = evaluate_strategy(PrepStrategy.BASIC, trials=1000, seed=1, errors=FAST)
        assert report.result.discarded == 0

    def test_verify_and_correct_retries_internally(self):
        report = evaluate_strategy(
            PrepStrategy.VERIFY_AND_CORRECT, trials=500, seed=1, errors=FAST
        )
        assert report.result.discarded == 0  # retries hide discards

    def test_batched_retries_until_every_block_verifies(self, monkeypatch):
        """At 3e-2 a block fails verification about half the time, so
        some trials need a dozen or more attempts; the batched
        interpreter, like the scalar trial, retries until the block
        passes, and grades no block unverified."""
        unverified = {}
        real_verified = evaluation._batched_verified

        def verified(sim, frames, block, cat, active):
            passed = real_verified(sim, frames, block, cat, active)
            key = (id(frames), block)
            remaining = unverified.setdefault(key, active.copy())
            remaining &= ~(passed & active)
            return passed

        monkeypatch.setattr(evaluation, "_batched_verified", verified)
        report = evaluate_strategy(
            PrepStrategy.VERIFY_AND_CORRECT, trials=20_000, seed=0,
            errors=ErrorRates(gate=3e-2, movement=3e-4, measurement=3e-2),
            engine="batched",
        )
        assert report.result.trials == 20_000
        assert len(unverified) == 3  # one entry per block
        assert [int(mask.sum()) for mask in unverified.values()] == [0, 0, 0]

    def test_verify_only_beats_basic(self):
        basic = evaluate_strategy(PrepStrategy.BASIC, trials=8000, seed=2, errors=FAST)
        verify = evaluate_strategy(
            PrepStrategy.VERIFY_ONLY, trials=8000, seed=2, errors=FAST
        )
        assert verify.error_rate < basic.error_rate

    def test_verify_and_correct_beats_correct_only(self):
        """Verification before correction must pay off (the Figure 4 story)."""
        vc = evaluate_strategy(
            PrepStrategy.VERIFY_AND_CORRECT, trials=8000, seed=2, errors=FAST
        )
        correct = evaluate_strategy(
            PrepStrategy.CORRECT_ONLY, trials=8000, seed=2, errors=FAST
        )
        assert vc.error_rate < correct.error_rate

    def test_zero_error_rates_give_zero_failures(self):
        clean = ErrorRates(gate=0.0, movement=0.0, measurement=0.0)
        for strategy in PrepStrategy:
            report = evaluate_strategy(strategy, trials=50, seed=0, errors=clean)
            assert report.result.bad == 0
            assert report.result.discarded == 0
