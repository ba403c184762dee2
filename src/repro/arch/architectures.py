"""Architecture configurations: QLA, CQLA and Fully-Multiplexed.

Each configuration knows how to turn a total ancilla-factory area budget
into supply rates (using the pipelined factory costs of Section 4.4) and
what movement discipline data qubits follow:

* QLA teleports operands together and back home for every two-qubit gate;
* CQLA runs gates inside a compute cache, teleporting misses in and
  writebacks out through a limited number of cache ports;
* Fully-Multiplexed keeps data in dense regions traversed ballistically.

Area-to-rate conversion uses the factory "exchange rates":

* a corrected encoded zero per millisecond costs 298 / 10.5 macroblocks;
* an encoded pi/8 per millisecond costs 403 / 18.3 macroblocks for the
  conversion pipeline plus one zero per output from supplying zero
  factories (Section 5.1's Table 9 convention).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.arch.supply import (
    PI8,
    ZERO,
    AncillaSupply,
    DedicatedSupply,
    PooledSupply,
)
from repro.factory.pipelined import PipelinedZeroFactory
from repro.factory.t_factory import Pi8Factory
from repro.tech import ION_TRAP, TechnologyParams


class ArchitectureKind(enum.Enum):
    QLA = "qla"
    CQLA = "cqla"
    MULTIPLEXED = "multiplexed"


def teleport_latency(tech: TechnologyParams) -> float:
    """Data-side latency of one encoded teleport.

    Bell-pair distribution happens offline; the data-visible cost is a
    transversal CX with the local Bell half, a transversal measurement,
    and the classically conditioned correction at the destination, plus
    channel entry/exit movement.
    """
    return tech.t_2q + tech.t_meas + tech.t_1q + 2 * tech.t_turn + 2 * tech.t_move


def ballistic_hop_latency(tech: TechnologyParams, region_span: int = 8) -> float:
    """Typical ballistic traversal inside a dense data region.

    Data regions pack encoded qubits so tightly (Figure 16b) that a
    typical operand trip crosses a handful of macroblocks and one corner.
    """
    return region_span * tech.t_move + tech.t_turn


_EXCHANGE_RATES: Dict[TechnologyParams, Tuple[float, float]] = {}


def factory_exchange_rates(
    tech: TechnologyParams = ION_TRAP,
) -> Tuple[float, float]:
    """(macroblocks per zero/ms, macroblocks per pi8/ms incl. supply).

    Memoized per technology: every ``build_supply`` of a sweep point
    prices its area budget through this conversion, and the factory
    models it instantiates are pure functions of the (frozen, hashable)
    technology record.
    """
    cached = _EXCHANGE_RATES.get(tech)
    if cached is None:
        zero = PipelinedZeroFactory(tech)
        pi8 = Pi8Factory(tech)
        zero_cost = zero.area / zero.throughput_per_ms
        cached = (zero_cost, pi8.area / pi8.throughput_per_ms + zero_cost)
        _EXCHANGE_RATES[tech] = cached
    return cached


def demand_area_for_rates(
    zero_per_ms: float,
    pi8_per_ms: float,
    tech: TechnologyParams = ION_TRAP,
) -> float:
    """Factory area (macroblocks) sustaining the given steady rates.

    The single pricing rule both directions share: :func:`split_area`
    inverts it to turn an area budget into rates, and
    :func:`repro.arch.provisioning.factory_area_for_rates` exposes it to
    price steady-supply operating points.
    """
    zero_cost, pi8_cost = factory_exchange_rates(tech)
    return zero_per_ms * zero_cost + pi8_per_ms * pi8_cost


def split_area(
    area: float,
    zero_demand_per_ms: float,
    pi8_demand_per_ms: float,
    tech: TechnologyParams = ION_TRAP,
) -> Dict[str, float]:
    """Divide a factory-area budget into per-kind production rates.

    The split keeps the two kinds in the ratio the kernel demands, so
    scaling total area scales both bandwidths proportionally.
    """
    if area < 0:
        raise ValueError(f"area must be >= 0, got {area}")
    demand_area = demand_area_for_rates(
        zero_demand_per_ms, pi8_demand_per_ms, tech
    )
    if demand_area <= 0:
        return {ZERO: 0.0, PI8: 0.0}
    scale = area / demand_area
    return {
        ZERO: zero_demand_per_ms * scale,
        PI8: pi8_demand_per_ms * scale,
    }


@dataclass(frozen=True)
class QlaConfig:
    """QLA: per-qubit dedicated generators, teleport-everywhere movement."""

    kind: ArchitectureKind = ArchitectureKind.QLA
    name: str = "QLA"

    def build_supply(
        self,
        area: float,
        num_qubits: int,
        zero_demand: float,
        pi8_demand: float,
        tech: TechnologyParams,
    ) -> AncillaSupply:
        rates = split_area(area, zero_demand, pi8_demand, tech)
        per_qubit = {kind: rate / num_qubits for kind, rate in rates.items()}
        return DedicatedSupply(per_qubit, num_qubits)

    def movement_penalty(self, is_two_qubit: bool, tech: TechnologyParams) -> float:
        """Operands teleport to meet and teleport back home (Section 5.2:
        'data qubits are always moved back to their home base')."""
        if is_two_qubit:
            return 2 * teleport_latency(tech)
        return 0.0


@dataclass(frozen=True)
class CqlaConfig:
    """CQLA: compute cache with miss/writeback teleports via shared ports.

    Attributes:
        cache_fraction: Compute-cache capacity as a fraction of the data
            qubit count. The default (1/8) reflects CQLA's compute cache
            being a small slice of the full datapath.
        ports: Concurrent teleports the cache boundary supports; traffic
            beyond this serializes (the structural bottleneck behind
            CQLA's plateau in Figure 15).
    """

    cache_fraction: float = 0.125
    ports: int = 2
    kind: ArchitectureKind = ArchitectureKind.CQLA
    name: str = "CQLA"

    def __post_init__(self) -> None:
        if not 0.0 < self.cache_fraction <= 1.0:
            raise ValueError("cache_fraction must be in (0, 1]")
        if self.ports < 1:
            raise ValueError("ports must be >= 1")

    def cache_size(self, num_qubits: int) -> int:
        return max(2, int(num_qubits * self.cache_fraction))

    def build_supply(
        self,
        area: float,
        num_qubits: int,
        zero_demand: float,
        pi8_demand: float,
        tech: TechnologyParams,
    ) -> AncillaSupply:
        """Generators serve the compute cache as a pool (the cache region
        is shared hardware, unlike QLA's per-qubit cells)."""
        return PooledSupply(split_area(area, zero_demand, pi8_demand, tech))

    def movement_penalty(self, is_two_qubit: bool, tech: TechnologyParams) -> float:
        """In-cache operand movement for two-qubit gates; one-qubit gates
        run in place. Miss costs are charged by the simulator."""
        return ballistic_hop_latency(tech) if is_two_qubit else 0.0


@dataclass(frozen=True)
class MultiplexedConfig:
    """Fully-Multiplexed distribution: shared factories, ballistic data."""

    region_span: int = 8
    kind: ArchitectureKind = ArchitectureKind.MULTIPLEXED
    name: str = "Fully-Multiplexed"

    def __post_init__(self) -> None:
        if self.region_span < 1:
            raise ValueError("region_span must be >= 1")

    def build_supply(
        self,
        area: float,
        num_qubits: int,
        zero_demand: float,
        pi8_demand: float,
        tech: TechnologyParams,
    ) -> AncillaSupply:
        return PooledSupply(split_area(area, zero_demand, pi8_demand, tech))

    def movement_penalty(self, is_two_qubit: bool, tech: TechnologyParams) -> float:
        """Operands meet ballistically for two-qubit gates; one-qubit
        gates run in place (data regions are data-only, Figure 16b)."""
        return ballistic_hop_latency(tech, self.region_span) if is_two_qubit else 0.0


@dataclass(frozen=True)
class GqlaConfig(QlaConfig):
    """GQLA: QLA with replicated per-qubit ancilla generation.

    Section 5.2: "we generalize this to GQLA and GCQLA in which we
    replicate the ancilla area at each data qubit to allow parallel
    production of ancillae." Replication multiplies each qubit's private
    production rate; the generators remain dedicated, so the architecture
    still cannot shift idle capacity to busy qubits — it buys down the
    per-qubit starvation, not the imbalance.

    Attributes:
        replication: Ancilla-generation copies per data qubit. The area
            budget is spread over ``num_qubits * replication`` generators
            that happen to be co-located, so at fixed total area GQLA
            behaves like QLA; the knob matters when area is derived from
            a per-qubit hardware allowance instead.
    """

    replication: int = 2
    name: str = "GQLA"

    def __post_init__(self) -> None:
        if self.replication < 1:
            raise ValueError(f"replication must be >= 1, got {self.replication}")

    def per_qubit_area(self, zero_factory_area: int = 298) -> int:
        """Hardware allowance per data qubit under this replication."""
        return self.replication * zero_factory_area

    def area_for(self, num_qubits: int, zero_factory_area: int = 298) -> int:
        """Total generation area implied by the per-qubit allowance."""
        return num_qubits * self.per_qubit_area(zero_factory_area)
