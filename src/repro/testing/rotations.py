"""Fowler's H/T search, the oracle for the precomputed rotation words.

:class:`repro.ancilla.rotations.RotationSynthesizer` answers from
:data:`~repro.ancilla.rotations.PRECOMPUTED_WORDS`, which this search
found offline at depth 28. :func:`search_word` enumerates products of
{H, T, T_DAG} in length order, deduplicating by a global-phase-invariant
matrix fingerprint (so only the shortest word reaching each unitary
survives), and returns the first word within ``tolerance`` of the
target, or the best one found by ``max_length``.
:func:`crz_decomposition_t_count` is the analytic T count the kernel
decomposition of a controlled rotation must match, and
:func:`qft_rotation_count` the number of controlled rotations the QFT
kernel must emit.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.ancilla.rotations import RotationSynthesizer, trace_distance
from repro.circuits.gate import GateType

_SQ2 = 1.0 / math.sqrt(2.0)
_T = np.array([[1.0, 0.0], [0.0, np.exp(1j * math.pi / 4)]], dtype=complex)
_GATE_MATRICES = {
    GateType.H: np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    GateType.T: _T,
    GateType.T_DAG: _T.conj().T,
}


def _canonical_key(u: np.ndarray, digits: int = 8) -> Tuple[int, ...]:
    """Hashable global-phase-invariant fingerprint of a unitary."""
    # Normalize phase so the first nonzero entry is real positive.
    for entry in u.flatten():
        if abs(entry) > 1e-9:
            u = u / (entry / abs(entry))
            break
    scaled = np.round(u * (10 ** digits)).astype(np.complex128)
    return tuple(
        int(val) for entry in scaled.flatten() for val in (entry.real, entry.imag)
    )


def search_word(
    target: np.ndarray, max_length: int = 8, tolerance: float = 0.01
) -> Tuple[Tuple[GateType, ...], float]:
    """Breadth-first search for a minimum-length H/T word near ``target``:
    ``(word, phase-invariant error)``."""
    if max_length < 1:
        raise ValueError(f"max_length must be >= 1, got {max_length}")
    identity = np.eye(2, dtype=complex)
    best_gates: Tuple[GateType, ...] = ()
    best_error = trace_distance(identity, target)
    seen = {_canonical_key(identity)}
    frontier: List[Tuple[np.ndarray, Tuple[GateType, ...]]] = [(identity, ())]
    alphabet = (GateType.H, GateType.T, GateType.T_DAG)
    for _ in range(max_length):
        next_frontier: List[Tuple[np.ndarray, Tuple[GateType, ...]]] = []
        for matrix, word in frontier:
            if word and word[-1] in (GateType.T, GateType.T_DAG):
                # T and T_DAG commute and partially cancel; skipping
                # immediate inverses prunes the branching.
                options = (GateType.H, word[-1])
            else:
                options = alphabet
            for gate_type in options:
                candidate = _GATE_MATRICES[gate_type] @ matrix
                key = _canonical_key(candidate)
                if key in seen:
                    continue
                seen.add(key)
                new_word = word + (gate_type,)
                error = trace_distance(candidate, target)
                if error < best_error:
                    best_error = error
                    best_gates = new_word
                    if best_error <= tolerance:
                        return best_gates, best_error
                next_frontier.append((candidate, new_word))
        frontier = next_frontier
    return best_gates, best_error


def crz_decomposition_t_count(
    angle_k: int, synthesizer: RotationSynthesizer
) -> int:
    """pi/8 ancillae consumed by one controlled-pi/2^k rotation.

    A controlled rotation by pi/2^k decomposes into CX gates and three
    single-qubit rotations by pi/2^(k+1) (Section 2.5); each of those is
    synthesized into H/T sequences.
    """
    if angle_k == 1:  # controlled-Z is transversal
        return 0
    return 3 * synthesizer.synthesize(angle_k + 1).t_count


def qft_rotation_count(width: int, max_rotation_k: Optional[int] = None) -> int:
    """Number of controlled rotations in the QFT (n(n-1)/2 untruncated)."""
    if max_rotation_k is None:
        return width * (width - 1) // 2
    total = 0
    for i in range(width):
        total += min(width - 1 - i, max_rotation_k - 1)
    return total
