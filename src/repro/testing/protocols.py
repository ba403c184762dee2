"""Stand-alone Monte Carlo drivers for the cat and pi/8 ancilla protocols.

No command grades a cat state on its own, or the pi/8 pipeline on the
scalar engine: the ``ancilla_quality`` objective runs
:func:`repro.ancilla.t_ancilla.evaluate_pi8_ancilla_batched`. These
drivers are what that batched grader is checked and timed against:

* :func:`evaluate_cat_prep` and :func:`evaluate_pi8_ancilla` run one
  trial at a time on the scalar Pauli-frame engine. They replay every
  trial rather than calling
  :meth:`~repro.error.montecarlo.MonteCarloSimulator.estimate`, which
  skips fault-free trials: the protocol benchmark
  (``benchmarks/test_bench_protocols.py``) times them as the per-trial
  baseline of the batched drivers.
* :func:`evaluate_cat_prep_batched` grades a cat state on the batched
  engine.

A cat state drives a transversal check: each cat qubit touches one data
qubit. A *single* X (bit-flip) residual therefore injects at most one
correctable data error, while two or more X flips are a correlated error
that defeats a distance-3 code. Z residuals flip the measured operator
outcome when their overall parity is odd. Both cat drivers grade with
exactly this rule, so their rates must agree statistically. The pi/8
output block is graded against ideal decoding of the [[7,1,3]] code.
"""

from __future__ import annotations

from typing import Optional

from repro.ancilla.cat import cat_prep_circuit
from repro.ancilla.evaluation import MOVES_PER_QUBIT_PER_GATE
from repro.ancilla.t_ancilla import pi8_ancilla_circuit
from repro.codes.steane import STEANE, steane_zero_prep_circuit
from repro.error.montecarlo import (
    MonteCarloResult,
    MonteCarloSimulator,
    TrialOutcome,
)
from repro.error.pauli import PauliFrame
from repro.tech import ErrorRates


def _replay(trials: int, sim: MonteCarloSimulator, trial) -> MonteCarloResult:
    """Run ``trial`` ``trials`` times, fault-free trials included."""
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    result = MonteCarloResult()
    for _ in range(trials):
        result.record(trial(sim))
    return result


def evaluate_cat_prep(
    num_qubits: int,
    trials: int = 20000,
    seed: int = 0,
    errors: Optional[ErrorRates] = None,
) -> MonteCarloResult:
    """Scalar Monte Carlo grading of the chain cat-state preparation."""
    circuit = cat_prep_circuit(num_qubits, include_prep=True)

    def trial(s: MonteCarloSimulator) -> TrialOutcome:
        frame = PauliFrame(num_qubits)
        s.run_circuit(
            circuit, frame, moves_per_qubit_per_gate=MOVES_PER_QUBIT_PER_GATE
        )
        if int(frame.x.sum()) >= 2 or int(frame.z.sum()) % 2 == 1:
            return TrialOutcome.BAD
        return TrialOutcome.GOOD

    return _replay(trials, MonteCarloSimulator(errors=errors, seed=seed), trial)


def evaluate_cat_prep_batched(
    num_qubits: int,
    trials: int = 200_000,
    seed: int = 0,
    errors: Optional[ErrorRates] = None,
) -> MonteCarloResult:
    """Batched counterpart of :func:`evaluate_cat_prep`.

    Lowers the preparation circuit once and runs all trials as
    ``(trials, num_qubits)`` frame matrices on the general batched
    engine; grading is two column reductions.
    """
    from repro.error.batched import BatchFrames, BatchedSimulator, run_batches

    circuit = cat_prep_circuit(num_qubits, include_prep=True)
    sim = BatchedSimulator(errors=errors, seed=seed)

    def run_batch(batch: int) -> MonteCarloResult:
        frames = BatchFrames(batch, num_qubits)
        sim.run_circuit(
            circuit, frames, moves_per_qubit_per_gate=MOVES_PER_QUBIT_PER_GATE
        )
        bad = (frames.x.sum(axis=1) >= 2) | (frames.z.sum(axis=1) % 2 == 1)
        return MonteCarloResult(
            trials=batch, good=int((~bad).sum()), bad=int(bad.sum())
        )

    return run_batches(trials, run_batch)


def evaluate_pi8_ancilla(
    trials: int = 20000,
    seed: int = 0,
    errors: Optional[ErrorRates] = None,
) -> MonteCarloResult:
    """Scalar Monte Carlo grading of the pi/8 ancilla preparation: a
    basic encoded zero, then the Figure 5b pipeline, one trial at a time."""
    circuits = (steane_zero_prep_circuit(include_prep=True), pi8_ancilla_circuit())
    block = list(range(7))

    def trial(s: MonteCarloSimulator) -> TrialOutcome:
        frame = PauliFrame(14)
        for circuit in circuits:
            s.run_circuit(
                circuit, frame, moves_per_qubit_per_gate=MOVES_PER_QUBIT_PER_GATE
            )
        if STEANE.is_uncorrectable(frame.x_vector(block), frame.z_vector(block)):
            return TrialOutcome.BAD
        return TrialOutcome.GOOD

    return _replay(trials, MonteCarloSimulator(errors=errors, seed=seed), trial)
