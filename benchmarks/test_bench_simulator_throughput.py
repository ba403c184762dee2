"""Benchmark: dataflow-engine throughput (gates simulated per second).

Tracks the compiled engine's performance trajectory in the BENCH_*.json
record: single-point simulation rate, full-sweep wall clock, and the
compiled-vs-seed speedup on the Figure 15 area sweep. The speedup gate
holds at >= 5x on a 32-bit kernel. The seed per-gate loop is the
reference oracle :mod:`repro.testing.reference`, kept as the executable
baseline. A small-batch gate holds ``simulate_batch`` to the cost of
per-point ``run()`` calls where a kernel pass would not pay off.

Marked ``perf`` so the suite can be deselected (``-m "not perf"``) when
only correctness matters; the workloads themselves are sized to keep
tier-1 fast.
"""

import os
import statistics
import time

import pytest

import record as bench_record
from repro.arch import ArchitectureKind, simulate_batch
from repro.arch.architectures import QlaConfig
from repro.arch.provisioning import area_breakdown
from repro.arch.simulator import DataflowSimulator
from repro.arch.supply import PI8, ZERO, SteadyRateSupply
from repro.arch.sweep import area_sweep
from repro.circuits.compiled import compile_circuit
from repro.testing.reference import evaluate_reference, run_reference

pytestmark = pytest.mark.perf

#: CI smoke mode: correctness assertions only, no speedup-ratio gates
#: (smoke sizes shrink the kernels, where fixed overheads dominate).
PERF_SMOKE = os.environ.get("REPRO_PERF_SMOKE") == "1"

#: Matched-demand multiples for the speedup measurement (a Figure 15
#: slice: 6 areas x 3 architectures = 18 simulations per engine).
_AREA_FACTORS = (0.25, 1, 4, 16, 64, 256)


def _best_of(fn, rounds=3):
    best = float("inf")
    result = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_bench_single_point_gates_per_second(benchmark, qcla32):
    """Simulation rate of one steady-rate sweep point, compiled engine."""
    compile_circuit(qcla32.circuit, qcla32.tech)  # compiled before any timed run
    rates = {
        ZERO: qcla32.zero_bandwidth_per_ms,
        PI8: qcla32.pi8_bandwidth_per_ms,
    }

    def run_point():
        supply = SteadyRateSupply(dict(rates))
        return DataflowSimulator(
            qcla32.circuit, qcla32.tech, supply=supply
        ).run()

    def run_point_legacy():
        supply = SteadyRateSupply(dict(rates))
        return run_reference(
            DataflowSimulator(qcla32.circuit, qcla32.tech, supply=supply)
        )

    result = benchmark.pedantic(run_point, rounds=5, iterations=1)
    assert result.gates == len(qcla32.circuit)
    elapsed, _ = _best_of(run_point)
    legacy_elapsed, _ = _best_of(run_point_legacy)
    gates_per_second = result.gates / elapsed
    benchmark.extra_info["gates_per_second"] = gates_per_second
    benchmark.extra_info["seed_gates_per_second"] = result.gates / legacy_elapsed
    bench_record.record(
        "dataflow_single_point",
        gates=result.gates,
        gates_per_second=gates_per_second,
        seed_gates_per_second=result.gates / legacy_elapsed,
    )
    print()
    print(f"  compiled engine: {gates_per_second:,.0f} gates/s "
          f"({result.gates} gates in {elapsed * 1e3:.2f} ms; "
          f"seed loop {legacy_elapsed * 1e3:.2f} ms)")
    # Relative, so machine speed and load cancel out: the compiled engine
    # measures ~10x here and must stay clearly ahead of the seed loop.
    if not PERF_SMOKE:
        assert elapsed * 3 < legacy_elapsed


def test_bench_area_sweep_speedup_vs_seed(benchmark, qcla32):
    """Acceptance gate: >= 5x on a 32-bit area sweep vs the seed loop."""
    matched = area_breakdown(qcla32).factory_area
    areas = [matched * factor for factor in _AREA_FACTORS]

    def run():
        return area_sweep(qcla32, areas=areas)

    def run_legacy():
        # The same slice, each point lowered as the evaluator lowers it
        # and simulated by the seed loop.
        return evaluate_reference(
            qcla32,
            [
                {"arch": kind.value, "factory_area": area}
                for kind in ArchitectureKind
                for area in areas
            ],
        )

    compiled_curves = benchmark.pedantic(run, rounds=1, iterations=1)
    legacy_elapsed, legacy_evaluations = _best_of(run_legacy)
    compiled_elapsed, _ = _best_of(run)
    assert [p.result for curve in compiled_curves.values() for p in curve] == [
        e.result for e in legacy_evaluations
    ]
    speedup = legacy_elapsed / compiled_elapsed
    benchmark.extra_info["seed_sweep_ms"] = legacy_elapsed * 1e3
    benchmark.extra_info["compiled_sweep_ms"] = compiled_elapsed * 1e3
    benchmark.extra_info["speedup_vs_seed"] = speedup
    bench_record.record(
        "dataflow_area_sweep",
        seed_sweep_ms=legacy_elapsed * 1e3,
        compiled_sweep_ms=compiled_elapsed * 1e3,
        speedup_vs_seed=speedup,
    )
    print()
    print(f"  area sweep (18 points): seed {legacy_elapsed * 1e3:.1f} ms, "
          f"compiled {compiled_elapsed * 1e3:.1f} ms -> {speedup:.1f}x")
    if not PERF_SMOKE:
        assert speedup >= 5.0


def test_bench_full_default_area_sweep(benchmark, qft32):
    """Wall clock of the full default Figure 15 sweep, largest kernel."""
    curves = benchmark.pedantic(lambda: area_sweep(qft32), rounds=1, iterations=1)
    assert all(len(points) == 14 for points in curves.values())


@pytest.mark.parametrize("kernel", ("qrca", "qft"))
def test_bench_small_batch_no_slower_than_serial(kernel, request):
    """A 4-point QLA batch on a deep kernel costs what 4 run() calls do.

    qrca-32 (986 dependency levels) and qft-32 (3,074) are deep enough
    that one level-kernel pass over 4 points costs ~2.8-3.5x four serial
    runs, so ``simulate_batch`` must route such a batch to ``run()``.
    Both sides are timed back to back in the same run, so machine speed
    cancels; 1.25x leaves room for timing noise and routing overhead.
    """
    analysis = request.getfixturevalue(f"{kernel}32")
    analysis.compiled_circuit()  # compiled before any timed run
    config = QlaConfig()
    tech = analysis.tech
    move_1q = config.movement_penalty(False, tech)
    move_2q = config.movement_penalty(True, tech)

    def supplies():
        return [
            config.build_supply(
                area,
                analysis.circuit.num_qubits,
                analysis.zero_bandwidth_per_ms,
                analysis.pi8_bandwidth_per_ms,
                tech,
            )
            for area in (250.0, 500.0, 1000.0, 2000.0)
        ]

    def batched(points):
        return simulate_batch(
            analysis.circuit,
            points,
            tech,
            movement_penalty_us=move_1q,
            two_qubit_movement_penalty_us=move_2q,
        )

    def serial(points):
        return [
            DataflowSimulator(
                analysis.circuit,
                tech,
                supply=supply,
                movement_penalty_us=move_1q,
                two_qubit_movement_penalty_us=move_2q,
            ).run()
            for supply in points
        ]

    def timed(fn):
        points = supplies()
        t0 = time.perf_counter()
        result = fn(points)
        return time.perf_counter() - t0, result

    # Back-to-back pairs, first side alternating, then the median of the
    # per-pair ratios: a burst of load from other processes lands on one
    # pair instead of skewing one side's whole run.
    ratios = []
    for round_ in range(11):
        order = (batched, serial) if round_ % 2 else (serial, batched)
        timings = {fn: timed(fn) for fn in order}
        batch_s, batch_results = timings[batched]
        serial_s, serial_results = timings[serial]
        assert batch_results == serial_results
        ratios.append(batch_s / serial_s)
    ratio = statistics.median(ratios)
    print()
    print(f"  {kernel} 4-point QLA batch vs 4 x run(): median of "
          f"{len(ratios)} paired ratios {ratio:.2f}x")
    if not PERF_SMOKE:
        assert ratio <= 1.25
