"""The Quantum Fourier Transform kernel (Sections 2.5 and 3.1).

The standard QFT circuit: a Hadamard per qubit followed by controlled
phase rotations by pi/2^k for k = 1 .. distance. Rotations are carried
symbolically as CRZ gates here; lowering to the encoded gate set (CZ for
k=1, Clifford+T for k=2, Fowler H/T sequences beyond — Section 2.5)
happens in :mod:`repro.kernels.decompose`.

A ``max_rotation_k`` cutoff is provided because truncating tiny rotations
is standard practice and the paper's own synthesis has finite precision;
the default keeps every rotation, matching the paper's 32-bit QFT.
"""

from __future__ import annotations

from typing import Optional

from repro.circuits import Circuit


def qft_circuit(
    width: int = 32,
    include_swaps: bool = False,
    max_rotation_k: Optional[int] = None,
) -> Circuit:
    """Build the width-qubit QFT.

    Args:
        width: Number of qubits.
        include_swaps: Append the bit-reversal swap network (off by
            default; the paper's kernel counts computation gates).
        max_rotation_k: Drop controlled rotations with k above this
            (approximate QFT); None keeps all.
    """
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    if max_rotation_k is not None and max_rotation_k < 1:
        raise ValueError(f"max_rotation_k must be >= 1, got {max_rotation_k}")
    circ = Circuit(width, name=f"qft{width}")
    for i in range(width):
        circ.h(i)
        for j in range(i + 1, width):
            k = j - i + 1
            if max_rotation_k is not None and k > max_rotation_k:
                break
            circ.crz(j, i, k=k)
    if include_swaps:
        for i in range(width // 2):
            circ.swap(i, width - 1 - i)
    return circ
