"""The simple (non-pipelined) ancilla factory (Section 4.3, Figure 11).

Three rows of gate locations — each wide enough for ten physical qubits
(seven to encode plus three for verification) — separated and bordered by
communication rows. Each row generates and verifies one encoded zero; the
middle ancilla is then bit-corrected by the top one and phase-corrected by
the bottom one.

With the paper's hand-optimized schedule the full preparation takes

    tprep + 2 tmeas + 6 t2q + 2 t1q + 8 tturn + 30 tmove = 323 us

for a throughput of 3.1 encoded ancillae per millisecond in an area of 90
macroblocks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.factory.units import CAT_QUBITS, ENCODED_QUBITS
from repro.layout.schedules import SIMPLE_FACTORY_SCHEDULE, OpSchedule
from repro.tech import ION_TRAP, TechnologyParams

#: Physical qubits per factory row: seven for encoding, three for the cat.
ROW_WIDTH = ENCODED_QUBITS + CAT_QUBITS

#: Three gate rows, each sandwiched by communication rows (Figure 11).
GATE_ROWS = 3

#: Macroblock rows of the Figure 11 floorplan: a channel row above and
#: below every gate row. :func:`repro.testing.floorplan.simple_factory_grid`
#: builds the floorplan block by block and checks this count.
FLOORPLAN_ROWS = 3 * GATE_ROWS


@dataclass(frozen=True)
class SimpleZeroFactory:
    """Performance model of the simple factory.

    Attributes:
        tech: Technology parameters used for latency evaluation.
        schedule: Critical-path operation counts (the paper's hand-optimized
            schedule by default).
    """

    tech: TechnologyParams = ION_TRAP
    schedule: OpSchedule = SIMPLE_FACTORY_SCHEDULE

    @property
    def latency_us(self) -> float:
        """Latency of one complete ancilla preparation (323us)."""
        return self.schedule.latency(self.tech)

    @property
    def throughput_per_ms(self) -> float:
        """Encoded ancillae per millisecond (3.1).

        The design is not pipelined: one corrected encoded ancilla emerges
        per full preparation latency.
        """
        return 1000.0 / self.latency_us

    @property
    def area(self) -> int:
        """Area in macroblocks (90 for the paper's [[7,1,3]] layout)."""
        return FLOORPLAN_ROWS * ROW_WIDTH

    @property
    def bandwidth_per_area(self) -> float:
        """Encoded ancillae per millisecond per macroblock (Section 5.3)."""
        return self.throughput_per_ms / self.area

    def replicated_area_for_bandwidth(self, ancillae_per_ms: float) -> int:
        """Area needed to hit a bandwidth by replicating the factory.

        Section 4.3: "we could produce any desired bandwidth of encoded
        ancillae by replicating the layout as many times as necessary".
        """
        if ancillae_per_ms < 0:
            raise ValueError("bandwidth must be non-negative")
        import math

        copies = math.ceil(ancillae_per_ms / self.throughput_per_ms)
        return copies * self.area
