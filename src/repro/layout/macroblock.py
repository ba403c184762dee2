"""Macroblock types: the abstract building blocks of layouts (Figure 9).

Each macroblock occupies one grid cell and exposes ports on a subset of its
four sides; adjacent blocks connect where both expose a port. Gate
locations exist in the two gate-bearing block types; the paper notes gates
may not occur in intersections.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import FrozenSet, Tuple


class Direction(enum.Enum):
    """Port directions, also used as movement headings."""

    NORTH = (-1, 0)
    SOUTH = (1, 0)
    EAST = (0, 1)
    WEST = (0, -1)

    @property
    def delta(self) -> Tuple[int, int]:
        return self.value

    @property
    def opposite(self) -> "Direction":
        return _OPPOSITE[self]


_OPPOSITE = {
    Direction.NORTH: Direction.SOUTH,
    Direction.SOUTH: Direction.NORTH,
    Direction.EAST: Direction.WEST,
    Direction.WEST: Direction.EAST,
}

_NS = frozenset({Direction.NORTH, Direction.SOUTH})
_EW = frozenset({Direction.EAST, Direction.WEST})
_ALL = frozenset(Direction)


class MacroblockType(enum.Enum):
    """The six Figure 9 block types."""

    DEAD_END_GATE = "dead_end_gate"
    STRAIGHT_CHANNEL_GATE = "straight_channel_gate"
    STRAIGHT_CHANNEL = "straight_channel"
    TURN = "turn"
    THREE_WAY = "three_way"
    FOUR_WAY = "four_way"


_PORT_COUNT = {
    MacroblockType.DEAD_END_GATE: 1,
    MacroblockType.STRAIGHT_CHANNEL_GATE: 2,
    MacroblockType.STRAIGHT_CHANNEL: 2,
    MacroblockType.TURN: 2,
    MacroblockType.THREE_WAY: 3,
    MacroblockType.FOUR_WAY: 4,
}

_HAS_GATE = {
    MacroblockType.DEAD_END_GATE: True,
    MacroblockType.STRAIGHT_CHANNEL_GATE: True,
    MacroblockType.STRAIGHT_CHANNEL: False,
    MacroblockType.TURN: False,
    MacroblockType.THREE_WAY: False,
    MacroblockType.FOUR_WAY: False,
}


@dataclass(frozen=True)
class Macroblock:
    """One placed macroblock: a type plus its open port directions.

    Attributes:
        block_type: Which Figure 9 block this is.
        ports: Open sides. Must be consistent with the type (count, and
            straight channels must be collinear while turns must not be).
    """

    block_type: MacroblockType
    ports: FrozenSet[Direction]

    def __post_init__(self) -> None:
        ports = frozenset(self.ports)
        object.__setattr__(self, "ports", ports)
        expected = _PORT_COUNT[self.block_type]
        if len(ports) != expected:
            raise ValueError(
                f"{self.block_type.value} needs {expected} port(s), got {len(ports)}"
            )
        if self.block_type in (
            MacroblockType.STRAIGHT_CHANNEL,
            MacroblockType.STRAIGHT_CHANNEL_GATE,
        ):
            if ports not in (_NS, _EW):
                raise ValueError(f"{self.block_type.value} ports must be collinear")
        if self.block_type is MacroblockType.TURN and ports in (_NS, _EW):
            raise ValueError("turn ports must not be collinear")

    @property
    def has_gate_location(self) -> bool:
        """Whether a gate may be performed in this block.

        Gate locations may not occur in intersections (Figure 9 caption).
        """
        return _HAS_GATE[self.block_type]

    @property
    def is_intersection(self) -> bool:
        return self.block_type in (MacroblockType.THREE_WAY, MacroblockType.FOUR_WAY)

    def connects(self, direction: Direction) -> bool:
        return direction in self.ports


def straight_channel(orientation: str = "ns") -> Macroblock:
    """Convenience constructor; ``orientation`` is ``"ns"`` or ``"ew"``."""
    ports = _NS if orientation == "ns" else _EW
    return Macroblock(MacroblockType.STRAIGHT_CHANNEL, ports)


def straight_channel_gate(orientation: str = "ns") -> Macroblock:
    ports = _NS if orientation == "ns" else _EW
    return Macroblock(MacroblockType.STRAIGHT_CHANNEL_GATE, ports)


def four_way() -> Macroblock:
    return Macroblock(MacroblockType.FOUR_WAY, _ALL)


def three_way(missing: Direction) -> Macroblock:
    return Macroblock(MacroblockType.THREE_WAY, _ALL - {missing})
