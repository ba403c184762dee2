"""Supplies that only the tests build.

:class:`SteadyZerosDedicatedPi8` publishes one ready spec that mixes
both lowering modes (a steady zero pool over dedicated pi/8
generators), a shape no built-in supply has.
"""

from __future__ import annotations

from typing import List

from repro.arch.supply import (
    PI8,
    ZERO,
    DedicatedSupply,
    ReadySpec,
    SteadyRateSupply,
)


class SteadyZerosDedicatedPi8:
    """A steady zero pool over per-qubit dedicated pi/8 generators.
    ``acquire`` is the per-gate form the reference loop replays."""

    def __init__(self, zero_rate: float, pi8_rate: float, num_qubits: int):
        self._zero = SteadyRateSupply({ZERO: zero_rate})
        self._pi8 = DedicatedSupply({PI8: pi8_rate}, num_qubits)

    def acquire(self, kind: str, qubit: int, count: int, earliest: float):
        part = self._zero if kind == ZERO else self._pi8
        return part.acquire(kind, qubit, count, earliest)

    def advance(self, kind: str, count: int) -> None:
        self._zero.advance(kind, count)

    def advance_per_qubit(self, kind: str, counts: List[int]) -> None:
        self._pi8.advance_per_qubit(kind, counts)

    def ready_spec(self) -> ReadySpec:
        return ReadySpec(
            {**self._zero.ready_spec().kinds, **self._pi8.ready_spec().kinds}
        )
