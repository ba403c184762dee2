"""Benchmark: the code-level axis swept through the batched engine.

The acceptance shape of the code-axis PR: a ``code_level`` grid
exploration (the CLI's ``repro explore <kernel> --code-level 1 2``)
must resolve through the point-batched engine — each level's
homogeneous points become one numpy pass under that level's
re-characterized latency tables — and the measured points/sec lands in
BENCH_protocols.json so future PRs can diff the trajectory.

The benchmark drives the same spec-mode :class:`Evaluator` the CLI
builds, spies the batched entry point to prove every architecture point
rode a multi-point batch (CQLA is excluded from the space: its cache
model is the documented per-point fallback), and cross-checks a sample
of points against fresh serial ``run()`` walks for exact equality.

With REPRO_PERF_SMOKE=1 (CI) the grid shrinks and no throughput gate is
asserted; REPRO_LEVEL_AREAS rescales the area ladder.
"""

import os
import time

import pytest

import record as bench_record
import repro.arch.batched as batched_module
from repro.arch.architectures import ArchitectureKind
from repro.explore import Evaluator, architecture_space, explore, get_objective
from repro.explore.strategies import GridStrategy
from repro.kernels import analyze_kernel

pytestmark = pytest.mark.perf

PERF_SMOKE = os.environ.get("REPRO_PERF_SMOKE") == "1"

#: Area-ladder resolution per (architecture, level) curve.
AREA_POINTS = int(os.environ.get("REPRO_LEVEL_AREAS", "4" if PERF_SMOKE else "24"))

CODE_LEVELS = (1, 2)


def test_bench_code_level_grid_explore(monkeypatch):
    kernel, width = "qcla", 8 if PERF_SMOKE else 32
    analysis = analyze_kernel(kernel, width)
    space = architecture_space(
        analysis,
        kinds=(ArchitectureKind.QLA, ArchitectureKind.MULTIPLEXED),
        area_points=AREA_POINTS,
        code_levels=CODE_LEVELS,
    )
    batch_calls = []
    real_batch = batched_module.simulate_batch

    def spy(circuit, supplies, *args, **kwargs):
        batch_calls.append(len(supplies))
        return real_batch(circuit, supplies, *args, **kwargs)

    monkeypatch.setattr(batched_module, "simulate_batch", spy)
    # Pre-characterize both levels so the timed region measures the
    # sweep engine, not the one-off level calibration Monte Carlo.
    analyze_kernel(kernel, width, code_level=2)

    evaluator = Evaluator(kernel=kernel, width=width)
    budget = space.grid_size()
    t0 = time.perf_counter()
    result = explore(
        space,
        get_objective("adcr"),
        GridStrategy(space),
        evaluator=evaluator,
        budget=budget,
    )
    elapsed = time.perf_counter() - t0

    assert result.evaluated == budget == 2 * 2 * AREA_POINTS
    assert result.simulations_run == budget
    # Every point resolved through the batched engine, in multi-point
    # groups (one per architecture x level — no serial fallback).
    assert sum(batch_calls) == budget
    assert all(call > 1 for call in batch_calls)

    # Spot-check bit-identical equality against fresh serial runs.
    for evaluation in (result.evaluations[0], result.evaluations[-1]):
        point = dict(evaluation.point)
        fresh = Evaluator(kernel=kernel, width=width)
        from repro.arch.simulator import DataflowSimulator
        from repro.explore.evaluator import _lower_point

        summary = fresh._serial_context(point)
        lowered = _lower_point(summary, point)
        serial = DataflowSimulator(
            summary.circuit,
            summary.tech,
            supply=lowered.supply,
            movement_penalty_us=lowered.move_1q,
            two_qubit_movement_penalty_us=lowered.move_2q,
            cqla=lowered.cqla,
        ).run()
        assert evaluation.result == serial

    points_per_s = budget / elapsed
    levels_seen = sorted(
        {dict(e.point).get("code_level", 1) for e in result.evaluations}
    )
    assert levels_seen == [1, 2]
    bench_record.record(
        "code_level_sweep",
        kernel=f"{kernel}-{width}",
        points=budget,
        code_levels=list(CODE_LEVELS),
        area_points=AREA_POINTS,
        batched_groups=len(batch_calls),
        points_per_s=points_per_s,
        best_adcr=result.best_score,
    )
    print()
    print(
        f"  code-level grid ({kernel}-{width}, {budget} pts, levels "
        f"{list(CODE_LEVELS)}): {points_per_s:,.0f} pts/s in "
        f"{len(batch_calls)} batched groups"
    )
    if not PERF_SMOKE:
        # Throughput floor: the axis must stay sweep-grade (point-batched),
        # far above one-at-a-time interpreted walks.
        assert points_per_s > 20.0
