"""Data-qubit regions (Section 4.2, Figure 10).

A single encoded data qubit occupies one column of straight-channel gate
macroblocks — one block per physical qubit — with interconnect access on
either side. Total data area is therefore ``m * nq`` macroblocks for
``nq`` data qubits encoded in ``m = 7`` physical qubits each.
"""

from __future__ import annotations

from repro.factory.units import ENCODED_QUBITS
from repro.layout.grid import Grid
from repro.layout.macroblock import straight_channel_gate


def data_region_grid(name: str = "data_qubit") -> Grid:
    """The Figure 10 layout: one column of gate blocks per encoded qubit."""
    grid = Grid(name=name)
    for row in range(ENCODED_QUBITS):
        grid.place((row, 0), straight_channel_gate("ew"))
    return grid


def data_qubit_area(num_data_qubits: int) -> int:
    """Total macroblocks used by data (Section 4.2): ``m x nq``.

    ``num_data_qubits`` includes data ancillae — the long-lived ancillae
    participating in the main computation.
    """
    if num_data_qubits < 0:
        raise ValueError(f"num_data_qubits must be >= 0, got {num_data_qubits}")
    return ENCODED_QUBITS * num_data_qubits
