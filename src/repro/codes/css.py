"""Generic CSS code machinery over GF(2).

A CSS code is built from two classical codes; here we represent it directly
by its X- and Z-type stabilizer generator matrices. Syndromes, decoding and
logical-error grading all reduce to GF(2) linear algebra, implemented with
numpy uint8 arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np


def _as_gf2(matrix) -> np.ndarray:
    arr = np.array(matrix, dtype=np.uint8) % 2
    if arr.ndim != 2:
        raise ValueError(f"stabilizer matrix must be 2-D, got shape {arr.shape}")
    return arr


def gf2_rank(matrix: np.ndarray) -> int:
    """Rank of a binary matrix over GF(2)."""
    m = matrix.copy() % 2
    rank = 0
    rows, cols = m.shape
    for col in range(cols):
        pivot = None
        for row in range(rank, rows):
            if m[row, col]:
                pivot = row
                break
        if pivot is None:
            continue
        m[[rank, pivot]] = m[[pivot, rank]]
        for row in range(rows):
            if row != rank and m[row, col]:
                m[row] ^= m[rank]
        rank += 1
        if rank == rows:
            break
    return rank


def gf2_in_rowspace(matrix: np.ndarray, vector: np.ndarray) -> bool:
    """Whether ``vector`` lies in the GF(2) row space of ``matrix``."""
    stacked = np.vstack([matrix, vector[np.newaxis, :]]) % 2
    return gf2_rank(stacked) == gf2_rank(matrix)


@dataclass(frozen=True)
class CssCode:
    """A CSS stabilizer code.

    Attributes:
        name: Human-readable code name.
        n: Number of physical qubits per encoded qubit.
        k: Number of encoded qubits; must be 1 (logical grading relies on it).
        d: Code distance.
        x_stabilizers: Binary matrix; each row is the support of an X-type
            stabilizer generator.
        z_stabilizers: Binary matrix; each row is the support of a Z-type
            stabilizer generator.
        logical_x: Support of one logical-X representative.
        logical_z: Support of one logical-Z representative.
    """

    name: str
    n: int
    k: int
    d: int
    x_stabilizers: np.ndarray
    z_stabilizers: np.ndarray
    logical_x: np.ndarray
    logical_z: np.ndarray
    _z_syndrome_table: Dict[Tuple[int, ...], np.ndarray] = field(
        default_factory=dict, repr=False, compare=False
    )
    _x_syndrome_table: Dict[Tuple[int, ...], np.ndarray] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        xs = _as_gf2(self.x_stabilizers)
        zs = _as_gf2(self.z_stabilizers)
        object.__setattr__(self, "x_stabilizers", xs)
        object.__setattr__(self, "z_stabilizers", zs)
        object.__setattr__(self, "logical_x", _as_gf2([self.logical_x])[0])
        object.__setattr__(self, "logical_z", _as_gf2([self.logical_z])[0])
        if xs.shape[1] != self.n or zs.shape[1] != self.n:
            raise ValueError("stabilizer width does not match n")
        # Logical grading is a parity check against the opposite logical
        # operator, which is exact only when exactly one qubit is encoded.
        if self.k != 1:
            raise ValueError(
                f"{self.name}: only k=1 codes are supported, got k={self.k}"
            )
        # CSS commutation: every X generator must overlap every Z generator
        # on an even number of qubits.
        overlap = (xs @ zs.T) % 2
        if overlap.any():
            raise ValueError(f"{self.name}: X and Z stabilizers do not commute")
        if ((xs @ self.logical_z) % 2).any():
            raise ValueError(f"{self.name}: logical Z anticommutes with X stabilizers")
        if ((zs @ self.logical_x) % 2).any():
            raise ValueError(f"{self.name}: logical X anticommutes with Z stabilizers")
        if (self.logical_x @ self.logical_z) % 2 != 1:
            raise ValueError(f"{self.name}: logical X and Z must anticommute")
        if self.n - gf2_rank(xs) - gf2_rank(zs) != 1:
            raise ValueError(
                f"{self.name}: stabilizers do not encode exactly one qubit"
            )
        self._build_syndrome_tables()

    # ------------------------------------------------------------------
    # Syndromes

    def x_error_syndrome(self, x_error: np.ndarray) -> np.ndarray:
        """Syndrome an X-error pattern triggers (measured by Z stabilizers)."""
        return (self.z_stabilizers @ (np.asarray(x_error, dtype=np.uint8) % 2)) % 2

    def z_error_syndrome(self, z_error: np.ndarray) -> np.ndarray:
        """Syndrome a Z-error pattern triggers (measured by X stabilizers)."""
        return (self.x_stabilizers @ (np.asarray(z_error, dtype=np.uint8) % 2)) % 2

    def _build_syndrome_tables(self) -> None:
        """Minimum-weight decoder tables for correctable error weights."""
        t = (self.d - 1) // 2
        for table, syndrome_fn in (
            (self._x_syndrome_table, self.x_error_syndrome),
            (self._z_syndrome_table, self.z_error_syndrome),
        ):
            zero = np.zeros(self.n, dtype=np.uint8)
            table[tuple(syndrome_fn(zero).tolist())] = zero
            frontier = [zero]
            for _ in range(t):
                new_frontier = []
                for base in frontier:
                    for q in range(self.n):
                        if base[q]:
                            continue
                        err = base.copy()
                        err[q] = 1
                        key = tuple(syndrome_fn(err).tolist())
                        if key not in table:
                            table[key] = err
                            new_frontier.append(err)
                frontier = new_frontier

    def decode_x_error(self, x_error: np.ndarray) -> np.ndarray:
        """The correction a minimum-weight decoder applies for ``x_error``.

        Unknown syndromes (beyond the code's correction radius) decode to the
        zero correction, a conservative stand-in for decoder failure.
        """
        key = tuple(self.x_error_syndrome(x_error).tolist())
        return self._x_syndrome_table.get(key, np.zeros(self.n, dtype=np.uint8)).copy()

    def decode_z_error(self, z_error: np.ndarray) -> np.ndarray:
        key = tuple(self.z_error_syndrome(z_error).tolist())
        return self._z_syndrome_table.get(key, np.zeros(self.n, dtype=np.uint8)).copy()

    def correction_from_x_syndrome(self, syndrome: np.ndarray) -> np.ndarray:
        """X correction for a measured Z-stabilizer syndrome."""
        key = tuple(int(b) % 2 for b in syndrome)
        return self._x_syndrome_table.get(key, np.zeros(self.n, dtype=np.uint8)).copy()

    # ------------------------------------------------------------------
    # Logical-error grading

    def is_logical_x(self, x_error: np.ndarray) -> bool:
        """Whether an X pattern, after ideal decode, flips the logical qubit.

        The residual (pattern + decoder correction) has zero syndrome, so
        it is either an X stabilizer or a stabilizer times logical X (the
        code encodes one qubit). Stabilizers commute with logical Z and
        logical X anticommutes with it, so the residual is a logical X
        exactly when its overlap with logical Z is odd — the same answer
        as a row-space test, without the rank computations.
        """
        residual = (np.asarray(x_error, dtype=np.uint8) + self.decode_x_error(x_error)) % 2
        syndrome = self.x_error_syndrome(residual)
        if syndrome.any():
            # Correction radius exceeded and decoder left a detectable error:
            # grade as logical failure (the ancilla is not usable as-is).
            return True
        return bool(residual @ self.logical_z % 2)

    def is_logical_z(self, z_error: np.ndarray) -> bool:
        residual = (np.asarray(z_error, dtype=np.uint8) + self.decode_z_error(z_error)) % 2
        syndrome = self.z_error_syndrome(residual)
        if syndrome.any():
            return True
        return bool(residual @ self.logical_x % 2)

    def is_uncorrectable(self, x_error: np.ndarray, z_error: np.ndarray) -> bool:
        """Whether a Pauli error on the block defeats ideal decoding."""
        return self.is_logical_x(x_error) or self.is_logical_z(z_error)

    # ------------------------------------------------------------------

    @property
    def parameters(self) -> Tuple[int, int, int]:
        """The [[n, k, d]] triple."""
        return (self.n, self.k, self.d)

    def __str__(self) -> str:
        return f"[[{self.n},{self.k},{self.d}]] {self.name}"
