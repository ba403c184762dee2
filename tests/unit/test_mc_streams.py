"""Exact stream pins for both Monte Carlo engines.

The statistical checks (Wilson-interval agreement, same-seed
determinism) cannot see a silent change to the order of random draws,
which would move every per-seed count and, through the level-1
calibration, the leveled technology parameters that result-store keys
and exploration results hang on. These counts were recorded before the
Figure 4 strategies became one table read by both engines, and pin the
streams of the scalar and batched strategy interpreters and of the
batched cat and pi/8 evaluations exactly. A deliberate stream change
re-records them.
"""

import pytest

from repro.ancilla.cat import evaluate_cat_prep_batched
from repro.ancilla.evaluation import PrepStrategy, evaluate_strategy
from repro.ancilla.t_ancilla import evaluate_pi8_ancilla_batched
from repro.tech import ION_TRAP, ErrorRates

#: Ten times the paper's rates, readout included, so every stream draws.
RATES = ErrorRates(gate=1e-3, movement=1e-5, measurement=1e-3)

#: (good, bad, discarded) per engine and strategy at 4,000 trials, seed 3.
STRATEGY_COUNTS = {
    ("scalar", PrepStrategy.BASIC): (3984, 16, 0),
    ("scalar", PrepStrategy.VERIFY_ONLY): (3908, 1, 91),
    ("scalar", PrepStrategy.CORRECT_ONLY): (3960, 40, 0),
    ("scalar", PrepStrategy.VERIFY_AND_CORRECT): (3997, 3, 0),
    ("batched", PrepStrategy.BASIC): (3972, 28, 0),
    ("batched", PrepStrategy.VERIFY_ONLY): (3889, 0, 111),
    ("batched", PrepStrategy.CORRECT_ONLY): (3945, 55, 0),
    ("batched", PrepStrategy.VERIFY_AND_CORRECT): (3998, 2, 0),
}


def _counts(result):
    return (result.good, result.bad, result.discarded)


@pytest.mark.parametrize(
    "engine, strategy", list(STRATEGY_COUNTS),
    ids=lambda v: getattr(v, "value", v),
)
def test_strategy_counts(engine, strategy):
    report = evaluate_strategy(
        strategy, trials=4000, seed=3, errors=RATES, engine=engine
    )
    assert _counts(report.result) == STRATEGY_COUNTS[engine, strategy]


@pytest.mark.parametrize("width, expected", [(3, (19916, 84, 0)), (7, (19763, 237, 0))])
def test_cat_prep_counts(width, expected):
    result = evaluate_cat_prep_batched(width, trials=20000, seed=3, errors=RATES)
    assert _counts(result) == expected


def test_pi8_counts():
    result = evaluate_pi8_ancilla_batched(trials=20000, seed=3, errors=RATES)
    assert _counts(result) == (19815, 185, 0)


def test_level_two_errors():
    assert ION_TRAP.at_level(2).errors == ErrorRates(
        gate=0.00015000000000000001,
        movement=1.5e-06,
        measurement=0.00015000000000000001,
    )


def test_split_batches_at_paper_rates():
    """250,001 trials run as a full 200,000-trial batch plus a partial one."""
    report = evaluate_strategy(
        PrepStrategy.VERIFY_AND_CORRECT, trials=250_001, seed=5, engine="batched"
    )
    assert report.result.trials == 250_001
    assert _counts(report.result) == (249_985, 16, 0)
