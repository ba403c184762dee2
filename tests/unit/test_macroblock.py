"""Unit tests for the macroblocks of repro.testing.floorplan."""

import pytest

from repro.testing.floorplan import (
    Direction,
    Macroblock,
    MacroblockType,
    four_way,
    straight_channel,
    straight_channel_gate,
    three_way,
)


def _turn():
    return Macroblock(
        MacroblockType.TURN, frozenset({Direction.NORTH, Direction.EAST})
    )


def _dead_end_gate(port):
    return Macroblock(MacroblockType.DEAD_END_GATE, frozenset({port}))


class TestDirections:
    def test_opposites(self):
        assert Direction.NORTH.opposite is Direction.SOUTH
        assert Direction.EAST.opposite is Direction.WEST

    def test_deltas_sum_to_zero_with_opposite(self):
        for d in Direction:
            dr, dc = d.delta
            odr, odc = d.opposite.delta
            assert (dr + odr, dc + odc) == (0, 0)


class TestConstruction:
    def test_straight_channel_ports(self):
        block = straight_channel("ns")
        assert block.connects(Direction.NORTH)
        assert not block.connects(Direction.EAST)

    def test_straight_channel_ew(self):
        block = straight_channel("ew")
        assert block.connects(Direction.WEST)

    def test_straight_requires_collinear(self):
        with pytest.raises(ValueError):
            Macroblock(
                MacroblockType.STRAIGHT_CHANNEL,
                frozenset({Direction.NORTH, Direction.EAST}),
            )

    def test_turn_requires_non_collinear(self):
        with pytest.raises(ValueError):
            Macroblock(
                MacroblockType.TURN,
                frozenset({Direction.NORTH, Direction.SOUTH}),
            )

    def test_turn_valid(self):
        block = _turn()
        assert block.connects(Direction.EAST)

    def test_port_count_enforced(self):
        with pytest.raises(ValueError):
            Macroblock(MacroblockType.FOUR_WAY, frozenset({Direction.NORTH}))

    def test_three_way_excludes_one(self):
        block = three_way(Direction.WEST)
        assert not block.connects(Direction.WEST)
        assert block.connects(Direction.NORTH)

    def test_dead_end_single_port(self):
        block = _dead_end_gate(Direction.SOUTH)
        assert block.connects(Direction.SOUTH)
        assert len(block.ports) == 1


class TestGateLocations:
    def test_gate_blocks(self):
        assert straight_channel_gate().has_gate_location
        assert _dead_end_gate(Direction.NORTH).has_gate_location

    def test_intersections_have_no_gates(self):
        """Figure 9: gate locations may not occur in an intersection."""
        assert not four_way().has_gate_location
        assert not three_way(Direction.NORTH).has_gate_location

    def test_channels_have_no_gates(self):
        assert not straight_channel().has_gate_location
        assert not _turn().has_gate_location

    def test_is_intersection(self):
        assert four_way().is_intersection
        assert not straight_channel().is_intersection

