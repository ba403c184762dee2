"""Fault-tolerant small-angle rotations (Sections 2.5 and 4.4.2).

Arbitrary-precision phase rotations have no transversal implementation on
the [[7,1,3]] code, so the paper adopts Fowler's technique: exhaustively
search sequences of H and T gates for a minimum-length approximation of
each pi/2^k rotation "up to an acceptable error". The words that search
finds are precomputed here (:data:`PRECOMPUTED_WORDS`); the search itself
is :func:`repro.testing.rotations.search_word`, which checks them. This
module also holds the expected-latency analysis of the *exact* recursive
pi/2^k construction of Figure 6 that the paper describes but
conservatively declines to use.

Exact cases need no search: RZ(pi/2) is S, RZ(pi/4) is T (the pi/8 gate),
and RZ(pi) is Z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Tuple

import numpy as np

from repro.circuits.gate import GateType
from repro.tech import TechnologyParams


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

_H_ = GateType.H
_T_ = GateType.T
_TD_ = GateType.T_DAG

#: Precomputed minimum-length words found by the H/T search run offline at
#: depth 28 (reproducible via
#: ``repro.testing.rotations.search_word(target, max_length=28,
#: tolerance=0.015)``).
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
    """Minimum-length H/T approximations of RZ(pi/2^k).

    Returns the paper's "minimum length sequence ... up to an acceptable
    error": the exact Clifford+T word for k <= 2, the precomputed
    deep-search word for k = 3..6, and the empty word once the identity
    is within ``tolerance``.

    Args:
        tolerance: Acceptable phase-invariant distance. The paper does
            not state its value; the default (0.01) accepts the identity
            for rotations below pi/64 — consistent with the paper's
            reported QFT gate totals, which imply very short sequences for
            small angles — while the pi/16..pi/64 range uses the
            precomputed deep-search words above. A tolerance below the
            identity's distance for some k > 6 has no word here and
            raises.
    """

    def __init__(self, tolerance: float = 0.01) -> None:
        if tolerance <= 0:
            raise ValueError(f"tolerance must be positive, got {tolerance}")
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
        raise ValueError(
            f"no precomputed H/T word for pi/2^{angle_k} within tolerance "
            f"{self.tolerance:g}"
        )


@lru_cache(maxsize=8)
def default_synthesizer(tolerance: float = 0.01) -> RotationSynthesizer:
    """Shared synthesizer instance (sequences are pure functions of k)."""
    return RotationSynthesizer(tolerance=tolerance)


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
