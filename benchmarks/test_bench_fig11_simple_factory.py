"""Benchmark: Figure 11 / Section 4.3 — the simple ancilla factory.

Exact reproduction: hand-optimized schedule latency 323us, throughput 3.1
encoded ancillae/ms, area 90 macroblocks — and the Section 5.3 observation
that it matches the pipelined factory's bandwidth per unit area.
"""

import pytest

from repro.factory import PipelinedZeroFactory, SimpleZeroFactory
from repro.testing.floorplan import simple_factory_grid
from repro.reporting import run_experiment


def test_bench_fig11(benchmark):
    factory = benchmark(SimpleZeroFactory)
    print()
    print(run_experiment("fig11"))
    assert factory.latency_us == 323.0
    assert factory.throughput_per_ms == pytest.approx(3.1, abs=0.05)
    assert factory.area == 90
    grid = simple_factory_grid()
    grid.validate_connected()
    assert grid.area == 90

    # Section 5.3: "virtually the same encoded zero ancilla bandwidth per
    # unit area" as the pipelined design.
    pipelined = PipelinedZeroFactory()
    ratio = pipelined.bandwidth_per_area / factory.bandwidth_per_area
    print(f"  bandwidth/area: simple={factory.bandwidth_per_area:.4f} "
          f"pipelined={pipelined.bandwidth_per_area:.4f} (ratio {ratio:.2f})")
    assert 0.8 < ratio < 1.25
