"""The encoded pi/8 ancilla factory (Section 4.4.2, Tables 7-8).

Turns encoded zero ancillae (supplied by zero factories) into encoded pi/8
ancillae via the Figure 5b circuit, pipelined into four stages: 7-qubit cat
state preparation; transversal CZ/CS/CX plus transversal pi/8; decode (plus
store); and H / measure / conditional transversal Z.

The paper provisions four cat-prepare units; the cat stage is the
bottleneck, and each seven-qubit cat state yields one pi/8 ancilla, giving
18.3 ancillae/ms in 403 macroblocks (147 functional + 256 crossbar).
Note the factory consumes one encoded zero per output, which callers must
supply from zero factories (accounted in Table 9's last column).
"""

from __future__ import annotations

import math
from typing import Dict, List

from repro.factory.pipelined import StageProvision
from repro.factory.units import ENCODED_QUBITS, pi8_units
from repro.tech import ION_TRAP, TechnologyParams

#: Stage order for height/crossbar accounting.
_STAGE_ORDER = (
    "cat_state_prepare",
    "transversal_interact",
    "decode_store",
    "h_measure_correct",
)


class Pi8Factory:
    """Bandwidth-matched pipelined factory for encoded pi/8 ancillae.

    Args:
        tech: Technology parameters.
        cat_units: Cat-state-prepare units driving the design (the paper
            uses four).

    Only half the qubits consumed by the transversal-interact stage come
    from the cat stage; the other half are the encoded zeros from a zero
    factory (Section 4.4.2), so stage 2 demand is twice the cat flow.
    """

    def __init__(
        self,
        tech: TechnologyParams = ION_TRAP,
        cat_units: int = 4,
    ) -> None:
        if cat_units < 1:
            raise ValueError(f"cat_units must be >= 1, got {cat_units}")
        self.tech = tech
        self.cat_units = cat_units
        self.units = pi8_units()
        self.stages = self._provision()

    def _provision(self) -> Dict[str, StageProvision]:
        tech = self.tech
        units = self.units
        cat = StageProvision(units["cat_state_prepare"], self.cat_units)
        cat_flow = cat.capacity_out(tech)
        interact_flow = 2.0 * cat_flow  # cat qubits plus encoded-zero qubits
        interact_count = math.ceil(
            interact_flow / units["transversal_interact"].bandwidth_in(tech)
        )
        decode_count = math.ceil(
            interact_flow / units["decode_store"].bandwidth_in(tech)
        )
        decode = StageProvision(units["decode_store"], decode_count)
        hmz_count = math.ceil(
            decode.capacity_out(tech) / units["h_measure_correct"].bandwidth_in(tech)
        )
        return {
            "cat_state_prepare": cat,
            "transversal_interact": StageProvision(
                units["transversal_interact"], interact_count
            ),
            "decode_store": decode,
            "h_measure_correct": StageProvision(
                units["h_measure_correct"], hmz_count
            ),
        }

    @property
    def unit_counts(self) -> Dict[str, int]:
        return {name: stage.count for name, stage in self.stages.items()}

    @property
    def functional_area(self) -> int:
        """Total functional-unit area (147 macroblocks)."""
        return sum(stage.total_area for stage in self.stages.values())

    @property
    def crossbar_areas(self) -> List[int]:
        """Two-column crossbars spanning the taller adjacent stage
        (48, 104, 104 for the paper's configuration)."""
        heights = [self.stages[name].total_height for name in _STAGE_ORDER]
        return [
            2 * max(heights[i], heights[i + 1]) for i in range(len(heights) - 1)
        ]

    @property
    def crossbar_area(self) -> int:
        """Total crossbar area (256 macroblocks)."""
        return sum(self.crossbar_areas)

    @property
    def area(self) -> int:
        """Total factory area (403 macroblocks) — conversion only; the
        supplying zero factories are accounted separately."""
        return self.functional_area + self.crossbar_area

    @property
    def throughput_per_ms(self) -> float:
        """Encoded pi/8 ancillae per millisecond (18.3).

        The cat-prepare stage is the bottleneck; each seven-qubit cat state
        results in one encoded pi/8 ancilla.
        """
        cat_flow = self.stages["cat_state_prepare"].capacity_out(self.tech)
        return cat_flow / ENCODED_QUBITS

    @property
    def zero_ancilla_demand_per_ms(self) -> float:
        """Encoded zeros consumed per millisecond (one per output)."""
        return self.throughput_per_ms

    def serial_latency_us(self) -> float:
        """One ancilla's flow latency through all four stages (563us)."""
        return sum(self.units[name].latency(self.tech) for name in _STAGE_ORDER)

    def area_for_bandwidth(self, ancillae_per_ms: float) -> float:
        """Conversion area (macroblocks) for a pi/8 bandwidth, fractional
        replication allowed (Table 9 convention)."""
        if ancillae_per_ms < 0:
            raise ValueError("bandwidth must be non-negative")
        return self.area * ancillae_per_ms / self.throughput_per_ms
