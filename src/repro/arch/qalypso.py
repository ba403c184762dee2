"""Qalypso: the paper's proposed tiled microarchitecture (Section 5.3).

A Qalypso tile (Figure 16b) is a dense data-only region surrounded by
pipelined ancilla factories whose output ports sit against the data
region. Data moves ballistically within a tile; teleportation is needed
only between tiles. The two structural wins over (C)QLA:

* data regions contain data alone, so operands are close enough for
  ballistic movement instead of teleportation (which would double ancilla
  consumption per QEC-via-teleport, Section 5.3);
* factories are shared by the whole region through concentrated output
  ports, so ancilla supply multiplexes to wherever demand is — no idle
  dedicated generators.

This module sizes tiles, prices intra-tile distribution, and packages the
"same speed with greatly reduced resources / much greater speed at equal
area" comparison against CQLA.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from repro.arch.architectures import (
    ArchitectureKind,
    CqlaConfig,
    MultiplexedConfig,
)
from repro.arch.simulator import DataflowSimulator, SimulationResult
from repro.arch.sweep import _simulate_architecture
from repro.factory.pipelined import PipelinedZeroFactory
from repro.factory.t_factory import Pi8Factory
from repro.kernels.analysis import KernelAnalysis
from repro.layout.region import data_qubit_area
from repro.tech import ION_TRAP, TechnologyParams


@dataclass(frozen=True)
class QalypsoTile:
    """One tile: a data region plus its surrounding factories.

    Attributes:
        data_qubits: Encoded data qubits packed in the region.
        zero_factories: Pipelined zero factories around the region.
        pi8_factories: pi/8 conversion factories around the region.
        tech: Technology parameters.
    """

    data_qubits: int
    zero_factories: int
    pi8_factories: int
    tech: TechnologyParams = ION_TRAP

    def __post_init__(self) -> None:
        if self.data_qubits < 1:
            raise ValueError("data_qubits must be >= 1")
        if self.zero_factories < 0 or self.pi8_factories < 0:
            raise ValueError("factory counts must be >= 0")

    @property
    def data_area(self) -> int:
        return data_qubit_area(self.data_qubits)

    @property
    def factory_area(self) -> int:
        zero = PipelinedZeroFactory(self.tech)
        pi8 = Pi8Factory(self.tech)
        return self.zero_factories * zero.area + self.pi8_factories * pi8.area

    @property
    def total_area(self) -> int:
        return self.data_area + self.factory_area

    @property
    def zero_bandwidth_per_ms(self) -> float:
        """Zero bandwidth available to data, net of pi/8 supply draw."""
        zero = PipelinedZeroFactory(self.tech)
        gross = self.zero_factories * zero.throughput_per_ms
        return max(0.0, gross - self.pi8_bandwidth_per_ms)

    @property
    def pi8_bandwidth_per_ms(self) -> float:
        pi8 = Pi8Factory(self.tech)
        return self.pi8_factories * pi8.throughput_per_ms

    @property
    def region_span_blocks(self) -> int:
        """Side length of the square-packed data region in macroblocks."""
        return max(1, math.ceil(math.sqrt(self.data_area)))

    def distribution_latency_us(self) -> float:
        """Typical factory-port-to-consumer trip inside the tile.

        Output ports sit against the data region (Figure 16b), so a
        delivered ancilla crosses on average half the region span with
        one turn.
        """
        return (self.region_span_blocks / 2.0) * self.tech.t_move + self.tech.t_turn


def tile_for_kernel(analysis: KernelAnalysis) -> QalypsoTile:
    """Provision one tile to run a kernel at the speed of data."""
    zero = PipelinedZeroFactory(analysis.tech)
    pi8 = Pi8Factory(analysis.tech)
    pi8_count = math.ceil(analysis.pi8_bandwidth_per_ms / pi8.throughput_per_ms)
    pi8_zero_draw = pi8_count * pi8.throughput_per_ms
    zero_count = math.ceil(
        (analysis.zero_bandwidth_per_ms + pi8_zero_draw) / zero.throughput_per_ms
    )
    return QalypsoTile(
        data_qubits=analysis.data_qubits,
        zero_factories=zero_count,
        pi8_factories=pi8_count,
        tech=analysis.tech,
    )


@dataclass(frozen=True)
class QalypsoComparison:
    """Qalypso vs CQLA at matched factory area (the >5x speedup claim)."""

    kernel: str
    factory_area: float
    qalypso: SimulationResult
    cqla: SimulationResult

    @property
    def speedup(self) -> float:
        return self.cqla.makespan_us / self.qalypso.makespan_us


def compare_with_cqla(
    analysis: KernelAnalysis,
    factory_area: float = 0.0,
    cqla: CqlaConfig = CqlaConfig(),
) -> QalypsoComparison:
    """Run Qalypso (fully-multiplexed tile) and CQLA at equal area.

    Args:
        analysis: Characterized kernel.
        factory_area: Shared factory-area budget; defaults to the tile
            provisioned for the kernel's matched demand.
        cqla: CQLA configuration.
    """
    tile = tile_for_kernel(analysis)
    if factory_area <= 0.0:
        factory_area = float(tile.factory_area)
    multiplexed = MultiplexedConfig(region_span=tile.region_span_blocks)
    supply = multiplexed.build_supply(
        factory_area,
        analysis.circuit.num_qubits,
        analysis.zero_bandwidth_per_ms,
        analysis.pi8_bandwidth_per_ms,
        analysis.tech,
    )
    qalypso_result = DataflowSimulator(
        analysis.circuit,
        analysis.tech,
        supply=supply,
        movement_penalty_us=0.0,
        two_qubit_movement_penalty_us=tile.distribution_latency_us(),
    ).run()
    cqla_result = _simulate_architecture(
        analysis, ArchitectureKind.CQLA, factory_area, cqla
    )
    return QalypsoComparison(
        kernel=analysis.name,
        factory_area=factory_area,
        qalypso=qalypso_result,
        cqla=cqla_result,
    )


def teleport_qec_ancilla_overhead() -> Dict[str, int]:
    """Section 5.3's aside: QEC folded into teleportation needs twice the
    encoded ancillae of a straightforward QEC step."""
    return {"qec_step": 2, "qec_via_teleport": 4}
