"""Hand-optimized operation-count schedules (Sections 4.3-4.4).

The paper expresses each functional unit's latency symbolically as a count
of physical operations, e.g. the simple ancilla factory's

    tprep + 2 tmeas + 6 t2q + 2 t1q + 8 tturn + 30 tmove  =  323 us.

:class:`OpSchedule` captures those counts and prices them against a
:class:`~repro.tech.TechnologyParams`, so every Table 5 / Table 7 latency
is reproduced exactly and remains valid under different technology
assumptions (the paper's "symbolic fashion").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.tech import TechnologyParams


@dataclass(frozen=True)
class OpSchedule:
    """Operation counts along a schedule's critical path.

    Attributes map one-to-one to the latency symbols of Tables 1 and 4.
    """

    name: str
    preps: int = 0
    one_qubit: int = 0
    two_qubit: int = 0
    measurements: int = 0
    turns: int = 0
    moves: int = 0

    def __post_init__(self) -> None:
        for field_name in (
            "preps", "one_qubit", "two_qubit", "measurements", "turns", "moves"
        ):
            if getattr(self, field_name) < 0:
                raise ValueError(f"{field_name} must be >= 0")

    def latency(self, tech: TechnologyParams) -> float:
        """Total schedule latency in microseconds."""
        return (
            self.preps * tech.t_prep
            + self.one_qubit * tech.t_1q
            + self.two_qubit * tech.t_2q
            + self.measurements * tech.t_meas
            + self.turns * tech.t_turn
            + self.moves * tech.t_move
        )

    def symbolic(self) -> str:
        """The latency as the paper writes it, e.g. '3xt2q + 6xtturn'."""
        parts = []
        for count, symbol in (
            (self.preps, "tprep"),
            (self.measurements, "tmeas"),
            (self.two_qubit, "t2q"),
            (self.one_qubit, "t1q"),
            (self.turns, "tturn"),
            (self.moves, "tmove"),
        ):
            if count == 1:
                parts.append(symbol)
            elif count > 1:
                parts.append(f"{count}x{symbol}")
        return " + ".join(parts) if parts else "0"


#: Section 4.3: the simple (non-pipelined) factory's hand-optimized
#: schedule for one complete Figure 4c preparation.
SIMPLE_FACTORY_SCHEDULE = OpSchedule(
    name="simple_factory",
    preps=1,
    measurements=2,
    two_qubit=6,
    one_qubit=2,
    turns=8,
    moves=30,
)

#: Table 5: functional-unit schedules of the pipelined zero-ancilla factory.
ZERO_FACTORY_SCHEDULES: Dict[str, OpSchedule] = {
    "zero_prep": OpSchedule("zero_prep", preps=1, one_qubit=1, turns=2, moves=1),
    "cx_stage": OpSchedule("cx_stage", two_qubit=3, turns=6, moves=5),
    "cat_prep": OpSchedule("cat_prep", two_qubit=2, turns=4, moves=2),
    "verification": OpSchedule(
        "verification", measurements=1, two_qubit=1, turns=2, moves=2
    ),
    "bp_correction": OpSchedule(
        "bp_correction", measurements=1, two_qubit=2, turns=6, moves=8
    ),
}

#: Table 7: stage schedules of the encoded pi/8 ancilla factory.
PI8_FACTORY_SCHEDULES: Dict[str, OpSchedule] = {
    "cat_state_prepare": OpSchedule(
        "cat_state_prepare", two_qubit=7, turns=14, moves=8
    ),
    "transversal_interact": OpSchedule(
        "transversal_interact", two_qubit=3, turns=2, moves=3
    ),
    "decode_store": OpSchedule("decode_store", two_qubit=7, turns=14, moves=8),
    "h_measure_correct": OpSchedule(
        "h_measure_correct", measurements=1, one_qubit=2, turns=2, moves=2
    ),
}
