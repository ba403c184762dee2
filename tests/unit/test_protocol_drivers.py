"""Scalar-vs-batched statistical equivalence of the protocol drivers.

The batched engine must be a drop-in statistical replacement for the
scalar reference on every protocol, not just the Figure 4 strategies
(those are covered in test_vectorized.py and test_mc_streams.py). Error rates are inflated so
the Wilson intervals resolve in fractions of a second.
"""

import pytest

from repro.ancilla import (
    evaluate_cat_prep,
    evaluate_cat_prep_batched,
    evaluate_pi8_ancilla,
    evaluate_pi8_ancilla_batched,
)
from repro.tech import ErrorRates

FAST = ErrorRates(gate=2e-3, movement=2e-5, measurement=1e-3)
CLEAN = ErrorRates(gate=0.0, movement=0.0, measurement=0.0)


def _intervals_overlap(a, b):
    (lo_a, hi_a), (lo_b, hi_b) = a, b
    return lo_a <= hi_b and lo_b <= hi_a


class TestCatPrep:
    @pytest.mark.parametrize("width", [3, 7])
    def test_rates_agree(self, width):
        scalar = evaluate_cat_prep(width, trials=4000, seed=11, errors=FAST)
        batched = evaluate_cat_prep_batched(width, trials=40000, seed=13, errors=FAST)
        assert _intervals_overlap(
            scalar.error_rate_interval(), batched.error_rate_interval()
        )

    def test_clean_prep_never_bad(self):
        assert evaluate_cat_prep(3, trials=200, errors=CLEAN).bad == 0
        assert evaluate_cat_prep_batched(3, trials=200, errors=CLEAN).bad == 0

    def test_wider_cats_fail_more(self):
        narrow = evaluate_cat_prep_batched(3, trials=60000, seed=5, errors=FAST)
        wide = evaluate_cat_prep_batched(7, trials=60000, seed=5, errors=FAST)
        assert wide.error_rate > narrow.error_rate

    def test_reproducible(self):
        a = evaluate_cat_prep_batched(7, trials=20000, seed=3, errors=FAST)
        b = evaluate_cat_prep_batched(7, trials=20000, seed=3, errors=FAST)
        assert a.bad == b.bad

    def test_invalid_trials(self):
        with pytest.raises(ValueError):
            evaluate_cat_prep(3, trials=0)
        with pytest.raises(ValueError):
            evaluate_cat_prep_batched(3, trials=-1)


class TestPi8Ancilla:
    def test_rates_agree(self):
        scalar = evaluate_pi8_ancilla(trials=3000, seed=11, errors=FAST)
        batched = evaluate_pi8_ancilla_batched(trials=40000, seed=13, errors=FAST)
        assert _intervals_overlap(
            scalar.error_rate_interval(), batched.error_rate_interval()
        )

    def test_clean_pipeline_never_bad(self):
        assert evaluate_pi8_ancilla(trials=100, errors=CLEAN).bad == 0
        assert evaluate_pi8_ancilla_batched(trials=100, errors=CLEAN).bad == 0

    def test_reproducible(self):
        a = evaluate_pi8_ancilla_batched(trials=20000, seed=3, errors=FAST)
        b = evaluate_pi8_ancilla_batched(trials=20000, seed=3, errors=FAST)
        assert a.bad == b.bad

    def test_batching_equivalent_totals(self):
        report = evaluate_pi8_ancilla_batched(trials=2500, seed=1, errors=FAST)
        assert report.trials == 2500
        assert report.good + report.bad == 2500

    def test_invalid_trials(self):
        with pytest.raises(ValueError):
            evaluate_pi8_ancilla(trials=0)
        with pytest.raises(ValueError):
            evaluate_pi8_ancilla_batched(trials=0)
