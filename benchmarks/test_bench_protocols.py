"""Benchmark: batched protocol engine vs scalar trial drivers.

The general batched engine (repro.error.batched) must make million-trial
Monte Carlo estimates routine for *every* ancilla protocol, not just the
four Figure 4 strategies. This benchmark measures per-trial throughput of
the scalar and batched pi/8-ancilla and cat-state drivers, asserts the
acceptance gate (batched pi/8 evaluation >= 30x the scalar driver, with
error rates agreeing within overlapping Wilson intervals), and records
the trials/sec trajectory to BENCH_protocols.json.

The scalar driver is timed on a smaller trial count (its per-trial cost
is constant, so throughput extrapolates) to keep the benchmark minutes
off the wall clock; set REPRO_PI8_TRIALS to rescale the batched side.
With REPRO_PERF_SMOKE=1 (CI), the speedup gate is skipped and only
correctness/agreement is checked.
"""

import os
import time

import pytest

import record as bench_record
from repro.ancilla import evaluate_pi8_ancilla_batched
from repro.testing.protocols import (
    evaluate_cat_prep,
    evaluate_cat_prep_batched,
    evaluate_pi8_ancilla,
)

pytestmark = pytest.mark.perf

TRIALS = int(os.environ.get("REPRO_PI8_TRIALS", "100000"))

#: CI smoke mode: correctness assertions only, no speedup-ratio gates.
PERF_SMOKE = os.environ.get("REPRO_PERF_SMOKE") == "1"


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def _intervals_overlap(a, b):
    (lo_a, hi_a), (lo_b, hi_b) = a, b
    return lo_a <= hi_b and lo_b <= hi_a


def test_bench_pi8_protocol_speedup(benchmark):
    """Acceptance gate: batched pi/8 evaluation >= 30x the scalar driver."""
    scalar_trials = max(500, TRIALS // 25)
    batched_s, batched_result = benchmark.pedantic(
        lambda: _timed(lambda: evaluate_pi8_ancilla_batched(trials=TRIALS, seed=7)),
        rounds=1,
        iterations=1,
    )
    scalar_s, scalar_result = _timed(
        lambda: evaluate_pi8_ancilla(trials=scalar_trials, seed=11)
    )
    batched_rate = TRIALS / batched_s
    scalar_rate = scalar_trials / scalar_s
    speedup = batched_rate / scalar_rate
    benchmark.extra_info["batched_trials_per_s"] = batched_rate
    benchmark.extra_info["scalar_trials_per_s"] = scalar_rate
    benchmark.extra_info["speedup"] = speedup
    bench_record.record(
        "pi8_protocol",
        batched_trials=TRIALS,
        scalar_trials=scalar_trials,
        batched_trials_per_s=batched_rate,
        scalar_trials_per_s=scalar_rate,
        speedup=speedup,
        batched_error_rate=batched_result.error_rate,
        scalar_error_rate=scalar_result.error_rate,
    )
    print()
    print(
        f"  pi/8 protocol: scalar {scalar_rate:,.0f} trials/s, "
        f"batched {batched_rate:,.0f} trials/s -> {speedup:.0f}x"
    )
    assert _intervals_overlap(
        scalar_result.error_rate_interval(),
        batched_result.error_rate_interval(),
    )
    if not PERF_SMOKE:
        assert speedup >= 30.0


def test_bench_cat_protocol_throughput(benchmark):
    """Cat-state prep trials/sec, scalar vs batched (7-qubit cat)."""
    scalar_trials = max(500, TRIALS // 25)
    batched_s, batched_result = benchmark.pedantic(
        lambda: _timed(lambda: evaluate_cat_prep_batched(7, trials=TRIALS, seed=7)),
        rounds=1,
        iterations=1,
    )
    scalar_s, scalar_result = _timed(
        lambda: evaluate_cat_prep(7, trials=scalar_trials, seed=11)
    )
    batched_rate = TRIALS / batched_s
    scalar_rate = scalar_trials / scalar_s
    bench_record.record(
        "cat7_protocol",
        batched_trials=TRIALS,
        scalar_trials=scalar_trials,
        batched_trials_per_s=batched_rate,
        scalar_trials_per_s=scalar_rate,
        speedup=batched_rate / scalar_rate,
        batched_error_rate=batched_result.error_rate,
        scalar_error_rate=scalar_result.error_rate,
    )
    print()
    print(
        f"  cat7 protocol: scalar {scalar_rate:,.0f} trials/s, "
        f"batched {batched_rate:,.0f} trials/s -> "
        f"{batched_rate / scalar_rate:.0f}x"
    )
    assert _intervals_overlap(
        scalar_result.error_rate_interval(),
        batched_result.error_rate_interval(),
    )
    if not PERF_SMOKE:
        assert batched_rate > scalar_rate * 10
