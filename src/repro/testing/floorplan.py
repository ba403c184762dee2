"""The Figure 11 floorplan, block by block: the oracle for its area.

:class:`~repro.factory.simple.SimpleZeroFactory` prices the simple
factory's area as a count of rows and columns. This module builds the
floorplan itself from the paper's macroblock abstraction (Section 4.1):
the six Figure 9 block types, each exposing ports on a subset of its four
sides, placed on a sparse :class:`Grid` where adjacent blocks connect if
both expose a port. Gate locations exist in the two gate-bearing block
types; the paper notes gates may not occur in intersections. Tests check
that the built floorplan is connected and has the area the factory model
prices.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro.factory.simple import GATE_ROWS, ROW_WIDTH

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


Cell = Tuple[int, int]


class GridError(ValueError):
    """Raised on invalid layout construction."""


class Grid:
    """A sparse rectangular layout of macroblocks."""

    def __init__(self, name: str = "layout") -> None:
        self.name = name
        self._blocks: Dict[Cell, Macroblock] = {}

    def place(self, cell: Cell, block: Macroblock) -> None:
        if cell in self._blocks:
            raise GridError(f"cell {cell} already occupied in {self.name}")
        self._blocks[cell] = block

    def block_at(self, cell: Cell) -> Optional[Macroblock]:
        return self._blocks.get(cell)

    def __contains__(self, cell: Cell) -> bool:
        return cell in self._blocks

    def __iter__(self) -> Iterator[Tuple[Cell, Macroblock]]:
        return iter(self._blocks.items())

    @property
    def area(self) -> int:
        """Total macroblock count — the paper's area measure."""
        return len(self._blocks)

    @property
    def gate_locations(self) -> List[Cell]:
        return [cell for cell, block in self._blocks.items() if block.has_gate_location]

    def bounding_box(self) -> Tuple[int, int, int, int]:
        """(min_row, min_col, max_row, max_col) of placed blocks."""
        if not self._blocks:
            raise GridError(f"{self.name} is empty")
        rows = [r for r, _ in self._blocks]
        cols = [c for _, c in self._blocks]
        return (min(rows), min(cols), max(rows), max(cols))

    def neighbors(self, cell: Cell) -> List[Tuple[Cell, Direction]]:
        """Cells reachable in one move: both ports must face each other."""
        block = self._blocks.get(cell)
        if block is None:
            return []
        out = []
        for direction in Direction:
            if not block.connects(direction):
                continue
            dr, dc = direction.delta
            nbr_cell = (cell[0] + dr, cell[1] + dc)
            nbr = self._blocks.get(nbr_cell)
            if nbr is not None and nbr.connects(direction.opposite):
                out.append((nbr_cell, direction))
        return out

    def validate_connected(self) -> None:
        """Every placed block must be reachable from every other."""
        if not self._blocks:
            return
        start = next(iter(self._blocks))
        seen = {start}
        stack = [start]
        while stack:
            cell = stack.pop()
            for nbr_cell, _ in self.neighbors(cell):
                if nbr_cell not in seen:
                    seen.add(nbr_cell)
                    stack.append(nbr_cell)
        unreachable = set(self._blocks) - seen
        if unreachable:
            raise GridError(
                f"{self.name}: {len(unreachable)} block(s) unreachable, "
                f"e.g. {sorted(unreachable)[:3]}"
            )

    def render(self) -> str:
        """ASCII rendering: gate blocks 'G', intersections '+', channels
        '|' / '-', turns 'L', dead ends 'D', empty cells ' '."""
        symbols = {
            MacroblockType.DEAD_END_GATE: "D",
            MacroblockType.STRAIGHT_CHANNEL_GATE: "G",
            MacroblockType.TURN: "L",
            MacroblockType.THREE_WAY: "+",
            MacroblockType.FOUR_WAY: "+",
        }
        min_r, min_c, max_r, max_c = self.bounding_box()
        lines = []
        for r in range(min_r, max_r + 1):
            row_chars = []
            for c in range(min_c, max_c + 1):
                block = self._blocks.get((r, c))
                if block is None:
                    row_chars.append(" ")
                elif block.block_type is MacroblockType.STRAIGHT_CHANNEL:
                    row_chars.append("|" if Direction.NORTH in block.ports else "-")
                else:
                    row_chars.append(symbols[block.block_type])
            lines.append("".join(row_chars))
        return "\n".join(lines)


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
    for row in range(3 * GATE_ROWS):  # channel, gate, channel, per gate row
        for col in range(ROW_WIDTH):
            if row % 3 == 1:
                grid.place((row, col), straight_channel_gate("ns"))
            else:
                if col == 0:
                    grid.place((row, col), three_way(Direction.WEST))
                elif col == ROW_WIDTH - 1:
                    grid.place((row, col), three_way(Direction.EAST))
                else:
                    grid.place((row, col), four_way())
    return grid
