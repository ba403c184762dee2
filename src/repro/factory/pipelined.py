"""The pipelined encoded-zero ancilla factory (Section 4.4.1, Figure 12).

Four stages — physical zero prep (+ optional Hadamard), the encoder CX
rounds alongside cat-state preparation, verification, and bit/phase
correction — separated by crossbar columns. Unit counts are derived by
bandwidth-matching successive stages (Table 6), with the CX/cat split
fixed at the 7:3 ratio verification requires.

With ion-trap latencies the factory reproduces the paper's numbers: 24
zero-prep units, 4-row CX unit, one cat unit, 3 verification units, 2 B/P
correction units; 130 macroblocks of functional units plus 168 of crossbar
(total 298); throughput 10.5 encoded ancillae/ms, bottlenecked by the CX
stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.factory.units import (
    CAT_QUBITS,
    ENCODED_QUBITS,
    FunctionalUnit,
    zero_factory_units,
)
from repro.tech import ION_TRAP, TechnologyParams

#: Verified ancillae consumed per corrected output ancilla: the output is
#: bit-corrected by one helper and phase-corrected by another (1 of 3).
CORRECTION_CONSUMPTION = 3


@dataclass(frozen=True)
class StageProvision:
    """A provisioned pipeline stage: which unit, how many copies."""

    unit: FunctionalUnit
    count: int

    @property
    def total_area(self) -> int:
        return self.unit.area * self.count

    @property
    def total_height(self) -> int:
        return self.unit.height * self.count

    def capacity_in(self, tech: TechnologyParams) -> float:
        return self.unit.bandwidth_in(tech) * self.count

    def capacity_out(self, tech: TechnologyParams) -> float:
        return self.unit.bandwidth_out(tech) * self.count


class PipelinedZeroFactory:
    """Bandwidth-matched pipelined factory for encoded zero ancillae.

    Args:
        tech: Technology parameters.
        cx_units: Number of CX-stage units driving the design (the paper's
            factory uses one; scaling this scales the whole factory).

    The derivation (Section 4.4.1): the CX stage sets the encoded-qubit
    flow; cat preparation is matched at 3 cat qubits per 7 encoded; zero
    prep feeds both; verification absorbs both flows; correction absorbs
    the verified survivors; and the overall output is one corrected
    ancilla per three verified.
    """

    def __init__(
        self,
        tech: TechnologyParams = ION_TRAP,
        cx_units: int = 1,
    ) -> None:
        if cx_units < 1:
            raise ValueError(f"cx_units must be >= 1, got {cx_units}")
        self.tech = tech
        self.cx_units = cx_units
        self.units = zero_factory_units(tech)
        self.stages = self._provision()

    # ------------------------------------------------------------------
    # Provisioning

    def _provision(self) -> Dict[str, StageProvision]:
        tech = self.tech
        units = self.units
        cx = StageProvision(units["cx_stage"], self.cx_units)
        encoded_flow = cx.capacity_in(tech)  # physical qubits / ms
        cat_flow = encoded_flow * CAT_QUBITS / ENCODED_QUBITS
        cat_count = math.ceil(cat_flow / units["cat_prep"].bandwidth_in(tech))
        prep_flow = encoded_flow + cat_flow
        prep_count = math.ceil(prep_flow / units["zero_prep"].bandwidth_in(tech))
        verify_flow = encoded_flow + cat_flow
        verify_count = math.ceil(
            verify_flow / units["verification"].bandwidth_in(tech)
        )
        verified_flow = encoded_flow * units["verification"].survival
        bp_count = math.ceil(
            verified_flow / units["bp_correction"].bandwidth_in(tech)
        )
        return {
            "zero_prep": StageProvision(units["zero_prep"], prep_count),
            "cx_stage": cx,
            "cat_prep": StageProvision(units["cat_prep"], cat_count),
            "verification": StageProvision(units["verification"], verify_count),
            "bp_correction": StageProvision(units["bp_correction"], bp_count),
        }

    # ------------------------------------------------------------------
    # Derived characteristics

    @property
    def unit_counts(self) -> Dict[str, int]:
        return {name: stage.count for name, stage in self.stages.items()}

    @property
    def functional_area(self) -> int:
        """Total functional-unit area (130 macroblocks for one CX unit)."""
        return sum(stage.total_area for stage in self.stages.values())

    def _stage_heights(self) -> List[Tuple[str, int]]:
        """Heights of the four physical pipeline stages, in order."""
        stage2_height = (
            self.stages["cx_stage"].total_height
            + self.stages["cat_prep"].total_height
        )
        return [
            ("stage1", self.stages["zero_prep"].total_height),
            ("stage2", stage2_height),
            ("stage3", self.stages["verification"].total_height),
            ("stage4", self.stages["bp_correction"].total_height),
        ]

    @property
    def crossbar_areas(self) -> List[int]:
        """Crossbar areas between successive stages (24, 60, 84).

        Crossbars span the taller of the two adjacent stages. The crossbar
        out of Stage 1 is single-column (qubits funnel inward to the much
        smaller Stage 2, so bidirectionality is unnecessary); the others
        are two columns, one per movement direction (Section 4.4.1).
        """
        heights = [h for _, h in self._stage_heights()]
        areas = []
        for i in range(len(heights) - 1):
            width = 1 if i == 0 else 2
            areas.append(width * max(heights[i], heights[i + 1]))
        return areas

    @property
    def crossbar_area(self) -> int:
        """Total crossbar area (168 macroblocks)."""
        return sum(self.crossbar_areas)

    @property
    def area(self) -> int:
        """Total factory area (298 macroblocks)."""
        return self.functional_area + self.crossbar_area

    @property
    def throughput_per_ms(self) -> float:
        """Corrected encoded ancillae per millisecond (10.5).

        The CX stage is the bottleneck: each seven physical qubits out is
        one encoded zero; 99.8% survive verification; and two-thirds of the
        survivors are consumed correcting the final third.
        """
        encoded_rate = (
            self.stages["cx_stage"].capacity_out(self.tech) / ENCODED_QUBITS
        )
        survived = encoded_rate * self.units["verification"].survival
        return survived / CORRECTION_CONSUMPTION

    @property
    def bandwidth_per_area(self) -> float:
        """Ancillae per ms per macroblock — on par with the simple factory
        (Section 5.3: pipelining buys port concentration, not density)."""
        return self.throughput_per_ms / self.area

    def serial_latency_us(self) -> float:
        """Latency of one ancilla flowing through all four stages.

        Pipelining adds crossbar traversals but the paper's Figure 4c
        content is the same; used for critical-path (Table 2) accounting.
        """
        return sum(
            self.units[name].latency(self.tech)
            for name in ("zero_prep", "cx_stage", "verification", "bp_correction")
        )

    def area_for_bandwidth(self, ancillae_per_ms: float) -> float:
        """Area (macroblocks) to sustain a bandwidth, allowing fractional
        replication — the paper's Table 9 convention."""
        if ancillae_per_ms < 0:
            raise ValueError("bandwidth must be non-negative")
        return self.area * ancillae_per_ms / self.throughput_per_ms
