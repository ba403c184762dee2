"""Unit tests for the Grid of repro.testing.floorplan."""

import pytest

from repro.testing.floorplan import (
    Direction,
    Grid,
    GridError,
    four_way,
    straight_channel,
    straight_channel_gate,
)


def channel_row(length):
    grid = Grid()
    for col in range(length):
        grid.place((0, col), straight_channel("ew"))
    return grid


class TestPlacement:
    def test_area_counts_blocks(self):
        assert channel_row(5).area == 5

    def test_double_placement_rejected(self):
        grid = Grid()
        grid.place((0, 0), four_way())
        with pytest.raises(GridError):
            grid.place((0, 0), four_way())

    def test_block_at(self):
        grid = Grid()
        block = four_way()
        grid.place((2, 3), block)
        assert grid.block_at((2, 3)) is block
        assert grid.block_at((0, 0)) is None

    def test_contains(self):
        grid = Grid()
        grid.place((1, 1), four_way())
        assert (1, 1) in grid
        assert (0, 0) not in grid

    def test_gate_locations(self):
        grid = Grid()
        grid.place((0, 0), straight_channel_gate())
        grid.place((0, 1), four_way())
        assert grid.gate_locations == [(0, 0)]

    def test_bounding_box(self):
        grid = Grid()
        grid.place((1, 2), four_way())
        grid.place((4, 7), four_way())
        assert grid.bounding_box() == (1, 2, 4, 7)

    def test_bounding_box_empty_raises(self):
        with pytest.raises(GridError):
            Grid().bounding_box()


class TestConnectivity:
    def test_neighbors_require_facing_ports(self):
        grid = channel_row(3)
        nbrs = [cell for cell, _ in grid.neighbors((0, 1))]
        assert set(nbrs) == {(0, 0), (0, 2)}

    def test_mismatched_ports_not_neighbors(self):
        grid = Grid()
        grid.place((0, 0), straight_channel("ns"))
        grid.place((0, 1), straight_channel("ns"))
        assert grid.neighbors((0, 0)) == []

    def test_validate_connected_passes(self):
        channel_row(4).validate_connected()

    def test_validate_connected_detects_islands(self):
        grid = Grid()
        grid.place((0, 0), straight_channel("ew"))
        grid.place((5, 5), straight_channel("ew"))
        with pytest.raises(GridError):
            grid.validate_connected()

    def test_validate_empty_ok(self):
        Grid().validate_connected()


class TestRender:
    def test_render_shape(self):
        grid = channel_row(4)
        rendered = grid.render()
        assert rendered == "----"

    def test_render_gate_symbol(self):
        grid = Grid()
        grid.place((0, 0), straight_channel_gate("ns"))
        assert grid.render() == "G"

    def test_render_gap(self):
        grid = Grid()
        grid.place((0, 0), four_way())
        grid.place((0, 2), four_way())
        assert grid.render() == "+ +"
