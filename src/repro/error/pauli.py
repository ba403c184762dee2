"""Pauli frames: the error state tracked during Monte Carlo simulation.

A Pauli frame records, for each qubit, whether an X flip and/or a Z flip is
pending (Y = both). Frames form a group under multiplication (bitwise XOR),
which is all the structure error propagation needs; global phases are
irrelevant to error-rate estimation and are not tracked.
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

_PAULI_NAMES = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}


class PauliFrame:
    """X/Z flip vectors over ``num_qubits`` qubits."""

    __slots__ = ("x", "z")

    def __init__(self, num_qubits: int) -> None:
        if num_qubits < 0:
            raise ValueError(f"num_qubits must be >= 0, got {num_qubits}")
        self.x = np.zeros(num_qubits, dtype=np.uint8)
        self.z = np.zeros(num_qubits, dtype=np.uint8)

    @property
    def num_qubits(self) -> int:
        return len(self.x)

    # ------------------------------------------------------------------
    # Mutation

    def apply_x(self, qubit: int) -> None:
        """Multiply an X flip onto ``qubit``."""
        self.x[qubit] ^= 1

    def apply_z(self, qubit: int) -> None:
        self.z[qubit] ^= 1

    def apply_y(self, qubit: int) -> None:
        self.x[qubit] ^= 1
        self.z[qubit] ^= 1

    def apply_pauli(self, qubit: int, pauli: str) -> None:
        """Multiply a named Pauli ('I', 'X', 'Y', 'Z') onto ``qubit``."""
        if pauli == "I":
            return
        if pauli == "X":
            self.apply_x(qubit)
        elif pauli == "Z":
            self.apply_z(qubit)
        elif pauli == "Y":
            self.apply_y(qubit)
        else:
            raise ValueError(f"unknown Pauli {pauli!r}")

    def clear(self, qubit: int) -> None:
        """Reset ``qubit`` to the identity (used at fresh preparations)."""
        self.x[qubit] = 0
        self.z[qubit] = 0

    # ------------------------------------------------------------------
    # Inspection

    def pauli_on(self, qubit: int) -> str:
        return _PAULI_NAMES[(int(self.x[qubit]), int(self.z[qubit]))]

    def weight(self, qubits: Iterable[int] | None = None) -> int:
        """Number of qubits carrying a non-identity Pauli."""
        if qubits is None:
            return int(np.count_nonzero(self.x | self.z))
        idx = list(qubits)
        return int(np.count_nonzero(self.x[idx] | self.z[idx]))

    def x_vector(self, qubits: Iterable[int]) -> np.ndarray:
        """X-flip bits restricted to an ordered qubit subset."""
        return self.x[list(qubits)].copy()

    def z_vector(self, qubits: Iterable[int]) -> np.ndarray:
        return self.z[list(qubits)].copy()

    def is_identity(self) -> bool:
        # count_nonzero skips ndarray.any's Python-level dispatch; the
        # Monte Carlo engine asks this once per sub-circuit run.
        return not (np.count_nonzero(self.x) or np.count_nonzero(self.z))

    def copy(self) -> "PauliFrame":
        dup = PauliFrame(self.num_qubits)
        dup.x = self.x.copy()
        dup.z = self.z.copy()
        return dup

    def multiply(self, other: "PauliFrame") -> "PauliFrame":
        """Group product (XOR of flip vectors), returned as a new frame."""
        if other.num_qubits != self.num_qubits:
            raise ValueError("frame sizes differ")
        out = self.copy()
        out.x ^= other.x
        out.z ^= other.z
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PauliFrame):
            return NotImplemented
        return bool(
            np.array_equal(self.x, other.x) and np.array_equal(self.z, other.z)
        )

    def __hash__(self) -> int:
        return hash((self.x.tobytes(), self.z.tobytes()))

    def __repr__(self) -> str:
        label = "".join(self.pauli_on(q) for q in range(self.num_qubits))
        return f"PauliFrame({label})"

    def support(self) -> Tuple[int, ...]:
        """Qubits carrying a non-identity Pauli."""
        return tuple(int(q) for q in np.nonzero(self.x | self.z)[0])
