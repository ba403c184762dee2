"""Cat-state preparation circuits.

A k-qubit cat state (|0...0> + |1...1>)/sqrt(2) is used to measure weight-k
operators fault-tolerantly: verification of encoded zeros uses 3-qubit cats
(Figure 4), and the pi/8 ancilla prepare uses a 7-qubit cat (Figure 5b).

The preparation is a Hadamard on the head qubit followed by a CX chain. The
paper's Cat Prep functional unit performs "two CX's in succession" for the
3-qubit case (Table 5), matching the chain construction here.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.circuits import Circuit
from repro.tech import ErrorRates


def cat_prep_circuit(num_qubits: int, include_prep: bool = True) -> Circuit:
    """Chain-style cat state preparation on ``num_qubits`` qubits.

    Args:
        num_qubits: Cat width; must be at least 2.
        include_prep: Include physical |0> preparations (factories fed by a
            Zero Prep stage receive already-prepared qubits).
    """
    if num_qubits < 2:
        raise ValueError(f"a cat state needs at least 2 qubits, got {num_qubits}")
    circ = Circuit(num_qubits, name=f"cat{num_qubits}_prep")
    if include_prep:
        for q in range(num_qubits):
            circ.prep_0(q)
    circ.h(0)
    for q in range(num_qubits - 1):
        circ.cx(q, q + 1)
    return circ


def cat_prep_cx_count(num_qubits: int) -> int:
    """Number of CX gates in the chain preparation."""
    if num_qubits < 2:
        raise ValueError(f"a cat state needs at least 2 qubits, got {num_qubits}")
    return num_qubits - 1


# ----------------------------------------------------------------------
# Monte Carlo grading of cat-state preparation.
#
# A cat state drives a transversal check: each cat qubit touches one data
# qubit. A *single* X (bit-flip) residual therefore injects at most one
# correctable data error — harmless — while two or more X flips are a
# correlated error that defeats a distance-3 code. Z residuals flip the
# measured operator outcome when (and only when) their overall parity is
# odd, so odd-Z-parity outputs report the wrong syndrome. Both engines
# grade with exactly this rule, so their rates must agree statistically.


def _grade_cat_bad_counts(x_weight: np.ndarray, z_parity: np.ndarray) -> np.ndarray:
    """Bad mask from per-trial X weight and Z parity columns."""
    return (x_weight >= 2) | (z_parity == 1)


def evaluate_cat_prep(
    num_qubits: int,
    trials: int = 20000,
    seed: int = 0,
    errors: Optional[ErrorRates] = None,
):
    """Scalar Monte Carlo grading of the chain cat-state preparation.

    One trial prepares a ``num_qubits`` cat under stochastic gate and
    movement faults and grades the residual: bad when it carries two or
    more bit flips (correlated data corruption) or odd phase-flip parity
    (wrong measured outcome). Reference implementation for the batched
    driver; runs one trial at a time on the scalar Pauli-frame engine.
    It replays every trial rather than calling
    :meth:`~repro.error.montecarlo.MonteCarloSimulator.estimate`, which
    skips fault-free trials: the protocol benchmark
    (``benchmarks/test_bench_protocols.py``) times this driver as the
    per-trial baseline of the batched one.
    """
    from repro.ancilla.evaluation import MOVES_PER_QUBIT_PER_GATE
    from repro.error.montecarlo import (
        MonteCarloResult,
        MonteCarloSimulator,
        TrialOutcome,
    )
    from repro.error.pauli import PauliFrame

    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    circuit = cat_prep_circuit(num_qubits, include_prep=True)
    sim = MonteCarloSimulator(errors=errors, seed=seed)

    def trial(s: MonteCarloSimulator) -> TrialOutcome:
        frame = PauliFrame(num_qubits)
        s.run_circuit(
            circuit,
            frame,
            moves_per_qubit_per_gate=MOVES_PER_QUBIT_PER_GATE,
        )
        x_weight = int(frame.x.sum())
        z_parity = int(frame.z.sum()) % 2
        if x_weight >= 2 or z_parity == 1:
            return TrialOutcome.BAD
        return TrialOutcome.GOOD

    result = MonteCarloResult()
    for _ in range(trials):
        result.record(trial(sim))
    return result


def evaluate_cat_prep_batched(
    num_qubits: int,
    trials: int = 200_000,
    seed: int = 0,
    errors: Optional[ErrorRates] = None,
):
    """Batched counterpart of :func:`evaluate_cat_prep`.

    Lowers the preparation circuit once and runs all trials as
    ``(trials, num_qubits)`` frame matrices on the general batched
    engine; grading is two column reductions. Statistically equivalent
    to the scalar driver (checked by the test suite), ~70x faster on
    a 3-qubit cat at 20k trials.
    """
    from repro.ancilla.evaluation import MOVES_PER_QUBIT_PER_GATE
    from repro.error.batched import BatchFrames, BatchedSimulator, run_batches
    from repro.error.montecarlo import MonteCarloResult

    from repro.obs.trace import span as _span

    circuit = cat_prep_circuit(num_qubits, include_prep=True)
    sim = BatchedSimulator(errors=errors, seed=seed)

    def run_batch(batch: int) -> MonteCarloResult:
        frames = BatchFrames(batch, num_qubits)
        sim.run_circuit(
            circuit,
            frames,
            moves_per_qubit_per_gate=MOVES_PER_QUBIT_PER_GATE,
        )
        x_weight = frames.x.sum(axis=1)
        z_parity = frames.z.sum(axis=1) % 2
        bad = _grade_cat_bad_counts(x_weight, z_parity)
        return MonteCarloResult(
            trials=batch, good=int((~bad).sum()), bad=int(bad.sum())
        )

    with _span("ancilla.cat_batched", trials=trials, qubits=num_qubits):
        return run_batches(trials, run_batch)
