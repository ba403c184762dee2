"""Benchmark: point-batched sweep engine vs the frozen seed loop.

The point-batched engine (repro.arch.batched) must make dense design
sweeps routine: an entire Figure 8 / Figure 15 axis in one numpy pass.
This benchmark measures points/sec of ``simulate_batch``, of the serial
compiled engine (one ``DataflowSimulator.run()`` per point) and of the
seed loop (``run_reference``, which no engine change can speed up) on
the same supplies, gates the batched engine against the seed loop at a
>= 64-point sweep, verifies bit-identical results point for point
across all three, and records the trajectory to BENCH_protocols.json.

Three ladders carry gates: a steady-rate sweep (the Figure 8 axis), the
QLA dedicated-supply ladder and the CQLA cache-mode ladder (the Figure
15 axes). ``simulate_batch`` runs every CQLA point through ``run()``, so
the CQLA ladder gates the batch route and the serial engine alike; its
ladder must hold both points that replay the memoized supply-free walk
and points whose supply binds, which walk.
Every floor is against the seed loop, so a faster serial engine cannot
fail a batched gate.
With REPRO_PERF_SMOKE=1 (CI), the speedup gates are skipped and only
exact equality is checked; REPRO_SWEEP_POINTS rescales the sweep width.
"""

import os
import time

import numpy as np
import pytest

import record as bench_record
import repro.arch.simulator as simulator_module
from repro.arch import simulate_batch
from repro.arch.architectures import CqlaConfig, QlaConfig
from repro.arch.simulator import DataflowSimulator
from repro.arch.supply import PI8, ZERO, SteadyRateSupply
from repro.testing.reference import run_reference

pytestmark = pytest.mark.perf

#: Sweep width; the acceptance gate is defined at >= 64 points.
POINTS = int(os.environ.get("REPRO_SWEEP_POINTS", "96"))

#: CI smoke mode: correctness assertions only, no speedup-ratio gates.
PERF_SMOKE = os.environ.get("REPRO_PERF_SMOKE") == "1"


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


#: Batched-vs-seed floors of the steady and QLA ladders. Each is the
#: batched-vs-serial floor it replaces (10x and 5x) times the serial
#: engine's speed over the seed loop before its loops walked only the
#: lean gate shape: 18.35x and 18.49x on the steady ladder, 16.36x and
#: 16.94x on the QLA ladder (medians of two sets of 7 interleaved rounds,
#: one 2-core host; the larger taken): 10 x 18.49 and 5 x 16.94, rounded.
STEADY_VS_SEED = 185.0
QLA_VS_SEED = 85.0


def _seed_rate(make_simulator, supplies):
    """Points/sec of the seed loop, best of 3 rounds over fresh
    ``supplies()``, and its results.

    The best of several rounds steadies every gate's denominator: timed
    once per run, the steady ladder's ``speedup_vs_seed`` spread
    223-398x on one 2-core host.
    """
    rate = 0.0
    for _ in range(3):
        fresh = supplies()
        elapsed, results = _timed(
            lambda: [run_reference(make_simulator(supply)) for supply in fresh]
        )
        rate = max(rate, POINTS / elapsed)
    return rate, results


def test_bench_steady_sweep_speedup(benchmark, qcla32):
    """Acceptance gate: batched steady sweep >= 185x the seed loop at >=
    64 points, bit-identical to the serial engine and the seed loop."""
    analysis = qcla32
    circuit, tech = analysis.circuit, analysis.tech
    compiled = analysis.compiled_circuit()
    bandwidth = analysis.zero_bandwidth_per_ms
    ratio = analysis.pi8_bandwidth_per_ms / bandwidth
    rates = np.geomspace(bandwidth / 16.0, bandwidth * 16.0, POINTS)

    def supplies():
        return [
            SteadyRateSupply({ZERO: rate, PI8: rate * ratio}) for rate in rates
        ]

    # Warm the per-circuit caches so both sides measure steady state,
    # with a full-size batch: a small one routes to run() and would leave
    # the vectorized kernel's arrays to fault in during the timed rounds.
    # Fresh supplies every round (simulate_batch advances supply state),
    # pre-built outside the timed region: the gate compares the engines,
    # not supply construction, which both paths share identically.
    simulate_batch(circuit, supplies(), tech, compiled=compiled)
    rounds = iter([supplies() for _ in range(3)])
    holder = {}

    def run_batched():
        holder["results"] = simulate_batch(
            circuit, next(rounds), tech, compiled=compiled
        )

    benchmark.pedantic(run_batched, rounds=3, iterations=1)
    batched_s = benchmark.stats.stats.min
    batched_results = holder["results"]
    serial_supplies = supplies()
    serial_s, serial_results = _timed(
        lambda: [
            DataflowSimulator(
                circuit, tech, supply=supply, compiled=compiled
            ).run()
            for supply in serial_supplies
        ]
    )
    seed_rate, seed_results = _seed_rate(
        lambda supply: DataflowSimulator(circuit, tech, supply=supply),
        supplies,
    )
    # Exact equality, every field.
    assert batched_results == serial_results
    assert serial_results == seed_results
    batched_rate = POINTS / batched_s
    serial_rate = POINTS / serial_s
    speedup = batched_rate / serial_rate
    speedup_vs_seed = batched_rate / seed_rate
    benchmark.extra_info["batched_points_per_s"] = batched_rate
    benchmark.extra_info["serial_points_per_s"] = serial_rate
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["speedup_vs_seed"] = speedup_vs_seed
    bench_record.record(
        "steady_sweep",
        points=POINTS,
        gates=len(circuit),
        batched_points_per_s=batched_rate,
        serial_points_per_s=serial_rate,
        seed_points_per_s=seed_rate,
        speedup=speedup,
        speedup_vs_seed=speedup_vs_seed,
    )
    print()
    print(
        f"  steady sweep ({POINTS} pts x {len(circuit)} gates): "
        f"seed {seed_rate:,.0f} pts/s, serial {serial_rate:,.0f} pts/s, "
        f"batched {batched_rate:,.0f} pts/s "
        f"-> {speedup_vs_seed:.1f}x seed ({speedup:.1f}x serial)"
    )
    if not PERF_SMOKE:
        assert POINTS >= 64
        assert speedup_vs_seed >= STEADY_VS_SEED


def test_bench_qla_area_sweep_speedup(benchmark, qcla32):
    """Figure 15's QLA ladder: dedicated supplies, batched >= 85x the
    seed loop, bit-identical to the serial engine and the seed loop."""
    analysis = qcla32
    circuit, tech = analysis.circuit, analysis.tech
    compiled = analysis.compiled_circuit()
    config = QlaConfig()
    num_qubits = circuit.num_qubits
    areas = np.geomspace(50.0, 50_000.0, POINTS)
    move_1q = config.movement_penalty(False, tech)
    move_2q = config.movement_penalty(True, tech)

    def supplies():
        return [
            config.build_supply(
                area,
                num_qubits,
                analysis.zero_bandwidth_per_ms,
                analysis.pi8_bandwidth_per_ms,
                tech,
            )
            for area in areas
        ]

    # Full-size warm-up batch: see test_bench_steady_sweep_speedup.
    simulate_batch(
        circuit,
        supplies(),
        tech,
        movement_penalty_us=move_1q,
        two_qubit_movement_penalty_us=move_2q,
        compiled=compiled,
    )
    rounds = iter([supplies() for _ in range(3)])
    holder = {}

    def run_batched():
        holder["results"] = simulate_batch(
            circuit,
            next(rounds),
            tech,
            movement_penalty_us=move_1q,
            two_qubit_movement_penalty_us=move_2q,
            compiled=compiled,
        )

    benchmark.pedantic(run_batched, rounds=3, iterations=1)
    batched_s = benchmark.stats.stats.min
    batched_results = holder["results"]

    def simulator(supply, **kwargs):
        return DataflowSimulator(
            circuit,
            tech,
            supply=supply,
            movement_penalty_us=move_1q,
            two_qubit_movement_penalty_us=move_2q,
            **kwargs,
        )

    serial_supplies = supplies()
    serial_s, serial_results = _timed(
        lambda: [
            simulator(supply, compiled=compiled).run()
            for supply in serial_supplies
        ]
    )
    seed_rate, seed_results = _seed_rate(simulator, supplies)
    assert batched_results == serial_results
    assert serial_results == seed_results
    batched_rate = POINTS / batched_s
    serial_rate = POINTS / serial_s
    speedup = batched_rate / serial_rate
    speedup_vs_seed = batched_rate / seed_rate
    bench_record.record(
        "qla_area_sweep",
        points=POINTS,
        gates=len(circuit),
        batched_points_per_s=batched_rate,
        serial_points_per_s=serial_rate,
        seed_points_per_s=seed_rate,
        speedup=speedup,
        speedup_vs_seed=speedup_vs_seed,
    )
    print()
    print(
        f"  QLA area sweep ({POINTS} pts x {len(circuit)} gates): "
        f"seed {seed_rate:,.0f} pts/s, serial {serial_rate:,.0f} pts/s, "
        f"batched {batched_rate:,.0f} pts/s "
        f"-> {speedup_vs_seed:.1f}x seed ({speedup:.1f}x serial)"
    )
    if not PERF_SMOKE:
        assert POINTS >= 64
        assert speedup_vs_seed >= QLA_VS_SEED


#: CQLA ladder floor against the frozen seed loop
#: (:func:`~repro.testing.reference.run_reference`), which no engine
#: change can speed up. It holds the replayed cache schedule's gain (the
#: LRU-walking engine read 4.1-5.4x) and applies to both the batch route
#: and per-point ``run()``: ``simulate_batch`` sends every CQLA point to
#: ``run()``.
CQLA_SERIAL_VS_SEED = 7.0


def test_bench_cqla_sweep_speedup(benchmark, qcla32, monkeypatch):
    """Figure 15's CQLA ladder: the batch route and the serial engine
    each >= 7x the seed loop at >= 64 points, all three bit-identical,
    over a ladder that both replays and walks."""
    analysis = qcla32
    circuit, tech = analysis.circuit, analysis.tech
    compiled = analysis.compiled_circuit()
    config = CqlaConfig()
    num_qubits = circuit.num_qubits
    areas = np.geomspace(50.0, 50_000.0, POINTS)
    move_1q = config.movement_penalty(False, tech)
    move_2q = config.movement_penalty(True, tech)

    def supplies():
        return [
            config.build_supply(
                area,
                num_qubits,
                analysis.zero_bandwidth_per_ms,
                analysis.pi8_bandwidth_per_ms,
                tech,
            )
            for area in areas
        ]

    def simulator(supply, **kwargs):
        return DataflowSimulator(
            circuit,
            tech,
            supply=supply,
            movement_penalty_us=move_1q,
            two_qubit_movement_penalty_us=move_2q,
            cqla=config,
            **kwargs,
        )

    # Full-size warm-up batch: see test_bench_steady_sweep_speedup.
    simulate_batch(
        circuit,
        supplies(),
        tech,
        movement_penalty_us=move_1q,
        two_qubit_movement_penalty_us=move_2q,
        cqla=config,
        compiled=compiled,
    )
    rounds = iter([supplies() for _ in range(3)])
    holder = {}

    def run_batched():
        holder["results"] = simulate_batch(
            circuit,
            next(rounds),
            tech,
            movement_penalty_us=move_1q,
            two_qubit_movement_penalty_us=move_2q,
            cqla=config,
            compiled=compiled,
        )

    benchmark.pedantic(run_batched, rounds=3, iterations=1)
    batched_s = benchmark.stats.stats.min
    batched_results = holder["results"]
    serial_s = float("inf")
    for _ in range(3):
        serial_supplies = supplies()
        elapsed, serial_results = _timed(
            lambda: [
                simulator(supply, compiled=compiled).run()
                for supply in serial_supplies
            ]
        )
        serial_s = min(serial_s, elapsed)
    seed_rate, seed_results = _seed_rate(simulator, supplies)
    # Exact equality, every field.
    assert batched_results == serial_results
    assert serial_results == seed_results
    assert any(r.cache_misses > 0 for r in batched_results)
    # Untimed: a point whose supply binds walks (one _run_cache call);
    # every other point replays the memoized supply-free walk.
    walks = []
    run_cache = simulator_module._run_cache
    monkeypatch.setattr(
        simulator_module, "_run_cache",
        lambda *args: walks.append(1) or run_cache(*args),
    )
    assert [
        simulator(supply, compiled=compiled).run() for supply in supplies()
    ] == seed_results
    replayed = POINTS - len(walks)
    assert 0 < replayed < POINTS
    batched_rate = POINTS / batched_s
    serial_rate = POINTS / serial_s
    speedup = batched_rate / serial_rate
    speedup_vs_seed = batched_rate / seed_rate
    serial_vs_seed = serial_rate / seed_rate
    benchmark.extra_info["speedup_vs_seed"] = speedup_vs_seed
    bench_record.record(
        "cqla_sweep",
        points=POINTS,
        gates=len(circuit),
        batched_points_per_s=batched_rate,
        serial_points_per_s=serial_rate,
        seed_points_per_s=seed_rate,
        speedup=speedup,
        speedup_vs_seed=speedup_vs_seed,
        serial_speedup_vs_seed=serial_vs_seed,
        replayed_points=replayed,
    )
    print()
    print(
        f"  CQLA sweep ({POINTS} pts x {len(circuit)} gates, {replayed} "
        f"replayed): seed {seed_rate:,.0f} pts/s, serial "
        f"{serial_rate:,.0f} pts/s ({serial_vs_seed:.1f}x), batched "
        f"{batched_rate:,.0f} pts/s ({speedup_vs_seed:.1f}x; "
        f"{speedup:.1f}x serial)"
    )
    if not PERF_SMOKE:
        assert POINTS >= 64
        assert speedup_vs_seed >= CQLA_SERIAL_VS_SEED
        assert serial_vs_seed >= CQLA_SERIAL_VS_SEED
