"""Fault-tolerant small-angle rotations (Sections 2.5 and 4.4.2).

Arbitrary-precision phase rotations have no transversal implementation on
the [[7,1,3]] code, so the paper adopts Fowler's technique: exhaustively
search sequences of H and T gates for a minimum-length approximation of
each pi/2^k rotation "up to an acceptable error". This module implements
that search (breadth-first over the free product of H and T, deduplicated
by canonicalized SU(2) matrix), plus the expected-latency analysis of the
*exact* recursive pi/2^k construction of Figure 6 that the paper describes
but conservatively declines to use.

Exact cases need no search: RZ(pi/2) is S, RZ(pi/4) is T (the pi/8 gate),
and RZ(pi) is Z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.circuits import Circuit
from repro.circuits.gate import GateType
from repro.tech import TechnologyParams

_SQ2 = 1.0 / math.sqrt(2.0)
_H = np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex)
_T = np.array([[1.0, 0.0], [0.0, np.exp(1j * math.pi / 4)]], dtype=complex)
_T_DAG = _T.conj().T

_GATE_MATRICES: Dict[GateType, np.ndarray] = {
    GateType.H: _H,
    GateType.T: _T,
    GateType.T_DAG: _T_DAG,
}


def rz_matrix(angle: float) -> np.ndarray:
    """The RZ(angle) unitary diag(1, e^{i angle}) up to global phase."""
    return np.array([[1.0, 0.0], [0.0, np.exp(1j * angle)]], dtype=complex)


def trace_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Phase-invariant distance between single-qubit unitaries.

    Uses dist(U, V) = sqrt(1 - |tr(U^dag V)| / 2), which is zero iff the
    unitaries agree up to global phase and is the metric Fowler's search
    optimizes. It is evaluated as ||e^{i phi} U - V||_F / 2 with
    phi = arg tr(U^dag V): the same value, without the cancellation of
    ``1 - overlap`` near 1 that loses ~1e-8 of absolute accuracy on
    distances below ~1e-7.
    """
    overlap = np.vdot(u, v)  # tr(U^dag V)
    size = abs(overlap)
    phase = overlap / size if size else 1.0
    return float(np.linalg.norm(phase * u - v)) / 2.0


def _canonical_key(u: np.ndarray, digits: int = 8) -> Tuple[int, ...]:
    """Hashable global-phase-invariant fingerprint of a unitary."""
    # Normalize phase so the first nonzero entry is real positive.
    flat = u.flatten()
    for entry in flat:
        if abs(entry) > 1e-9:
            phase = entry / abs(entry)
            u = u / phase
            break
    scaled = np.round(u * (10 ** digits)).astype(np.complex128)
    return tuple(
        int(val) for entry in scaled.flatten() for val in (entry.real, entry.imag)
    )


@dataclass(frozen=True)
class SynthesizedRotation:
    """A compiled approximation of RZ(pi/2^k).

    Attributes:
        angle_k: The target rotation is by pi / 2**angle_k.
        gates: Gate sequence (applied left to right).
        error: Phase-invariant distance to the target unitary.
        exact: Whether the sequence is algebraically exact.
    """

    angle_k: int
    gates: Tuple[GateType, ...]
    error: float
    exact: bool

    @property
    def t_count(self) -> int:
        """Number of pi/8-type gates, i.e. encoded pi/8 ancillae consumed."""
        return sum(1 for g in self.gates if g in (GateType.T, GateType.T_DAG))

    @property
    def length(self) -> int:
        return len(self.gates)

    def as_circuit(self, qubit: int = 0, width: int = 1) -> Circuit:
        """Materialize the sequence as a circuit on ``qubit``."""
        circ = Circuit(max(width, qubit + 1), name=f"rz_pi_over_{2 ** self.angle_k}")
        for gate_type in self.gates:
            if gate_type is GateType.H:
                circ.h(qubit)
            elif gate_type is GateType.T:
                circ.t(qubit)
            elif gate_type is GateType.T_DAG:
                circ.tdg(qubit)
            elif gate_type is GateType.S:
                circ.s(qubit)
            elif gate_type is GateType.Z:
                circ.z(qubit)
            else:
                raise ValueError(f"unexpected gate in rotation sequence: {gate_type}")
        return circ


_H_ = GateType.H
_T_ = GateType.T
_TD_ = GateType.T_DAG

#: Precomputed minimum-length words found by this module's own search run
#: offline at greater depth than the default ``max_length`` (reproducible
#: via ``RotationSynthesizer(max_length=28, tolerance=0.015)._search``).
#: Keyed by angle_k; values are (word, phase-invariant error).
PRECOMPUTED_WORDS: Dict[int, Tuple[Tuple[GateType, ...], float]] = {
    # RZ(pi/8): 16 gates, 8 T-type, error 0.0397 (identity sits at 0.1386).
    3: (
        (_T_, _H_, _T_, _H_, _TD_, _H_, _TD_, _H_,
         _T_, _H_, _TD_, _H_, _TD_, _H_, _T_, _H_),
        0.03972,
    ),
    # RZ(pi/16): 24 gates, 12 T-type, error 0.0173 (identity sits at 0.0694).
    4: (
        (_H_, _T_, _H_, _TD_, _H_, _TD_, _H_, _TD_, _H_, _TD_, _H_, _T_,
         _H_, _T_, _H_, _T_, _H_, _T_, _H_, _T_, _H_, _TD_, _TD_, _H_),
        0.01735,
    ),
    # RZ(pi/32): 25 gates, 13 T-type, error 0.0223 (identity sits at 0.0347).
    5: (
        (_TD_, _H_, _TD_, _H_, _T_, _H_, _TD_, _H_, _TD_, _H_, _T_, _H_, _T_,
         _H_, _TD_, _H_, _TD_, _H_, _T_, _H_, _T_, _H_, _T_, _H_, _TD_),
        0.02226,
    ),
    # RZ(pi/64): 25 gates, 13 T-type, error 0.0089 (identity sits at 0.0174).
    6: (
        (_H_, _T_, _H_, _T_, _H_, _T_, _H_, _TD_, _H_, _TD_, _H_, _T_, _H_,
         _T_, _H_, _TD_, _H_, _TD_, _H_, _T_, _H_, _TD_, _H_, _TD_, _TD_),
        0.00886,
    ),
}


class RotationSynthesizer:
    """Breadth-first search for minimum-length H/T approximations.

    The search enumerates products of {H, T, T_DAG} in length order,
    deduplicating by canonical matrix fingerprint (so only the shortest
    word reaching each unitary survives), and returns the first word within
    ``tolerance`` of the target — i.e. the paper's "minimum length sequence
    ... up to an acceptable error".

    Args:
        max_length: Longest sequence considered before settling for the
            best-found approximation.
        tolerance: Acceptable phase-invariant distance. The paper does
            not state its value; the default (0.01) accepts the identity
            for rotations below pi/64 — consistent with the paper's
            reported QFT gate totals, which imply very short sequences for
            small angles — while the pi/16..pi/64 range uses the
            precomputed deep-search words above.
    """

    def __init__(self, max_length: int = 8, tolerance: float = 0.01) -> None:
        if max_length < 1:
            raise ValueError(f"max_length must be >= 1, got {max_length}")
        if tolerance <= 0:
            raise ValueError(f"tolerance must be positive, got {tolerance}")
        self.max_length = max_length
        self.tolerance = tolerance
        self._cache: Dict[int, SynthesizedRotation] = {}

    def synthesize(self, angle_k: int) -> SynthesizedRotation:
        """Approximate RZ(pi / 2**angle_k).

        Exact Clifford+T cases (k <= 2) bypass the search.
        """
        if angle_k < 0:
            raise ValueError(f"angle_k must be >= 0, got {angle_k}")
        if angle_k in self._cache:
            return self._cache[angle_k]
        result = self._synthesize_uncached(angle_k)
        self._cache[angle_k] = result
        return result

    def _synthesize_uncached(self, angle_k: int) -> SynthesizedRotation:
        if angle_k == 0:
            return SynthesizedRotation(0, (GateType.Z,), 0.0, True)
        if angle_k == 1:
            return SynthesizedRotation(1, (GateType.S,), 0.0, True)
        if angle_k == 2:
            return SynthesizedRotation(2, (GateType.T,), 0.0, True)
        target = rz_matrix(math.pi / (2 ** angle_k))
        identity_error = trace_distance(np.eye(2, dtype=complex), target)
        if angle_k in PRECOMPUTED_WORDS:
            word, error = PRECOMPUTED_WORDS[angle_k]
            if error <= max(self.tolerance, identity_error):
                return SynthesizedRotation(angle_k, word, error, exact=False)
        if identity_error <= self.tolerance:
            # The rotation is within tolerance of doing nothing; emitting
            # the empty word is the minimum-length answer.
            return SynthesizedRotation(angle_k, (), identity_error, exact=False)
        best_gates, best_error = self._search(target)
        return SynthesizedRotation(
            angle_k, best_gates, best_error, exact=best_error < 1e-12
        )

    def _search(self, target: np.ndarray) -> Tuple[Tuple[GateType, ...], float]:
        identity = np.eye(2, dtype=complex)
        best_gates: Tuple[GateType, ...] = ()
        best_error = trace_distance(identity, target)
        seen = {_canonical_key(identity)}
        frontier: List[Tuple[np.ndarray, Tuple[GateType, ...]]] = [(identity, ())]
        alphabet = (GateType.H, GateType.T, GateType.T_DAG)
        for _ in range(self.max_length):
            next_frontier: List[Tuple[np.ndarray, Tuple[GateType, ...]]] = []
            for matrix, word in frontier:
                if word and word[-1] in (GateType.T, GateType.T_DAG):
                    # T and T_DAG commute and partially cancel; canonical
                    # words never mix or stack beyond what dedup allows, but
                    # skipping immediate inverses prunes the branching.
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
                        if best_error <= self.tolerance:
                            return best_gates, best_error
                    next_frontier.append((candidate, new_word))
            frontier = next_frontier
        return best_gates, best_error


@lru_cache(maxsize=8)
def default_synthesizer(max_length: int = 8, tolerance: float = 0.01) -> RotationSynthesizer:
    """Shared synthesizer instance (sequences are pure functions of k)."""
    return RotationSynthesizer(max_length=max_length, tolerance=tolerance)


def recursive_rotation_expected_latency(
    angle_k: int, tech: TechnologyParams
) -> float:
    """Expected data critical path through the Figure 6 recursive factory.

    With a cascade of pi/2^i ancilla factories for i = 3..k, each
    measurement has probability 1/2 of requiring the next, larger corrective
    rotation; the expected number of CX gates on the data's path is
    ``sum_{i=0}^{k-3} 2^-i`` with one X gate fewer in expectation
    (Section 4.4.2). Each CX is followed by the measurement that decides
    the branch.
    """
    if angle_k < 3:
        raise ValueError(
            f"the recursive construction applies to k >= 3, got {angle_k}"
        )
    stages = angle_k - 2
    expected_cx = sum(0.5 ** i for i in range(stages))
    expected_x = max(0.0, expected_cx - 1.0)
    expected_meas = expected_cx
    return (
        expected_cx * tech.t_2q
        + expected_meas * tech.t_meas
        + expected_x * tech.t_1q
    )


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
