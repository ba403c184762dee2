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

from dataclasses import dataclass, field

from repro.factory.units import CAT_QUBITS, ENCODED_QUBITS
from repro.layout.grid import Grid
from repro.layout.macroblock import (
    Direction,
    four_way,
    straight_channel_gate,
    three_way,
)
from repro.layout.schedules import SIMPLE_FACTORY_SCHEDULE, OpSchedule
from repro.tech import ION_TRAP, TechnologyParams

#: Physical qubits per factory row: seven for encoding, three for the cat.
ROW_WIDTH = ENCODED_QUBITS + CAT_QUBITS

#: Three gate rows, each sandwiched by communication rows (Figure 11).
GATE_ROWS = 3


def simple_factory_grid() -> Grid:
    """The Figure 11 floorplan: alternating gate and channel rows.

    Nine rows of ten macroblocks (seven encoding plus three cat qubits),
    totalling the paper's 90 macroblocks: channel rows above, between and
    below the three gate rows. Channel rows are built from intersections
    so qubits can enter or leave any column; gate rows are vertical
    straight-channel gate blocks so qubits can cross between the adjacent
    channels.
    """
    grid = Grid(name="simple_factory")
    total_rows = 2 * GATE_ROWS + 3  # channel, gate, channel, gate, ...
    gate_row_indices = {1, 4, 7}
    for row in range(total_rows):
        for col in range(ROW_WIDTH):
            if row in gate_row_indices:
                grid.place((row, col), straight_channel_gate("ns"))
            else:
                if col == 0:
                    grid.place((row, col), three_way(Direction.WEST))
                elif col == ROW_WIDTH - 1:
                    grid.place((row, col), three_way(Direction.EAST))
                else:
                    grid.place((row, col), four_way())
    return grid


@dataclass(frozen=True)
class SimpleZeroFactory:
    """Performance model of the simple factory.

    Attributes:
        tech: Technology parameters used for latency evaluation.
        schedule: Critical-path operation counts (the paper's hand-optimized
            schedule by default).
        grid: The Figure 11 floorplan (area 90).
    """

    tech: TechnologyParams = ION_TRAP
    schedule: OpSchedule = SIMPLE_FACTORY_SCHEDULE
    grid: Grid = field(default_factory=simple_factory_grid, compare=False)

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
        return self.grid.area

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
