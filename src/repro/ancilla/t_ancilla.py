"""The encoded pi/8 ancilla (Section 2.4, Figure 5).

A fault-tolerant encoded pi/8 gate is performed by preparing an ancilla
encoded in the pi/8 state and interacting it transversally with the data
(Figure 5a). Preparing that ancilla (Figure 5b) requires an encoded zero,
a 7-qubit cat state, and a series of transversal gates; the paper splits it
into the four pipeline stages of Table 7:

1. 7-qubit cat state preparation;
2. transversal controlled-Z / controlled-S / CX plus a transversal pi/8;
3. decode (plus store);
4. one-qubit H, one-qubit measure, transversal Z conditioned on it.

This module builds the four stages as separate circuits and the full
circuit as their composition.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.ancilla.cat import cat_prep_circuit
from repro.circuits import Circuit
from repro.circuits.gate import Gate, GateType
from repro.codes.steane import (
    ENCODER_CX_ROUNDS,
    ENCODER_H_QUBITS,
    steane_zero_prep_circuit,
)
from repro.tech import ErrorRates

PI8_STAGE_NAMES: Tuple[str, ...] = (
    "cat_state_prepare",
    "transversal_interact",
    "decode_store",
    "h_measure_correct",
)


def _stage_cat_prep(circ: Circuit, cat: List[int], block: List[int]) -> None:
    circ.compose(cat_prep_circuit(7, include_prep=True), qubit_map=cat)


def _stage_transversal_interact(circ: Circuit, cat: List[int],
                                block: List[int]) -> None:
    """Transversal CZ, CS and CX between cat and encoded zero, plus pi/8.

    The exact gate pattern in Figure 5b applies controlled phase-type gates
    from the cat onto the encoded block followed by a transversal pi/8 layer
    on the cat (which, as the paper notes, is transversal but does not
    itself implement an encoded pi/8).
    """
    for c, b in zip(cat, block):
        circ.cz(c, b)
    for c, b in zip(cat, block):
        circ.cs(c, b)
    for c, b in zip(cat, block):
        circ.cx(c, b)
    for c in cat:
        circ.t(c)


def _stage_decode(circ: Circuit, cat: List[int], block: List[int]) -> None:
    """Inverse of the encoding circuit, concentrating state on one qubit."""
    for round_gates in reversed(ENCODER_CX_ROUNDS):
        for control, target in reversed(round_gates):
            circ.cx(cat[control], cat[target])
    for q in reversed(ENCODER_H_QUBITS):
        circ.h(cat[q])


def _stage_h_measure_correct(circ: Circuit, cat: List[int],
                             block: List[int]) -> None:
    head = cat[0]
    circ.h(head)
    circ.measure_z(head, "pi8_m")
    for b in block:
        circ.append(
            Gate(GateType.Z, (b,), condition="pi8_m", tag="conditional-correction")
        )


#: The Table 7 stages in pipeline order, each ``build(circ, cat, block)``.
_STAGE_BUILDERS = (
    _stage_cat_prep,
    _stage_transversal_interact,
    _stage_decode,
    _stage_h_measure_correct,
)


def pi8_stage_slices() -> Dict[str, Circuit]:
    """The four Table 7 stages as separate circuits (shared 14-qubit frame)."""
    block = list(range(7))
    cat = list(range(7, 14))
    stages: Dict[str, Circuit] = {}
    for name, build in zip(PI8_STAGE_NAMES, _STAGE_BUILDERS):
        stages[name] = Circuit(14, name=name)
        build(stages[name], cat, block)
    return stages


def pi8_ancilla_circuit() -> Circuit:
    """The full Figure 5b encoded pi/8 ancilla preparation: the four
    Table 7 stages in order.

    Qubits 0-6 hold the incoming encoded zero (assumed already prepared by
    a zero factory, so no encoder is included here); qubits 7-13 hold the
    7-qubit cat state. The output pi/8 ancilla lives on qubits 0-6.
    """
    circ = Circuit(14, name="pi8_ancilla_prep")
    for stage in pi8_stage_slices().values():
        circ.compose(stage)
    return circ


# ----------------------------------------------------------------------
# Monte Carlo grading of the full pi/8 ancilla pipeline.
#
# One trial runs the whole Figure 5b preparation under stochastic faults:
# a (noisy) basic encoded-zero preparation feeds the block, the 7-qubit
# cat state is built, the transversal CZ/CS/CX + pi/8 layer interacts cat
# and block, the cat is decoded, and the head-qubit measurement drives
# the classically conditioned transversal Z correction — the full
# conditional-correction machinery the general engine exists to lower.
# The output block (qubits 0-6) is graded against ideal decoding of the
# [[7,1,3]] code, the same uncorrectable-residual rule as Figure 4.
# Non-Clifford gates (T, CS) propagate their Pauli part only, the
# standard Pauli-frame approximation both engines share.


def evaluate_pi8_ancilla_batched(
    trials: int = 200_000,
    seed: int = 0,
    errors: Optional[ErrorRates] = None,
):
    """Batched Monte Carlo grading of the pi/8 ancilla preparation.

    The encoder and the Figure 5b pipeline are each lowered once by the
    general batched engine and replayed over ``(trials, 14)`` frame
    matrices; the conditional Z correction fires per trial on the
    measured ``pi8_m`` flip column. Statistically equivalent to the
    scalar :func:`repro.testing.protocols.evaluate_pi8_ancilla` (checked
    by the test suite); the speedup is recorded by the protocol
    benchmark in ``BENCH_protocols.json``.
    """
    from repro.ancilla.evaluation import MOVES_PER_QUBIT_PER_GATE
    from repro.error.batched import (
        BatchFrames,
        BatchedSimulator,
        run_batches,
        steane_grade_bad,
    )
    from repro.error.montecarlo import MonteCarloResult

    from repro.obs.trace import span as _span

    encoder = steane_zero_prep_circuit(include_prep=True)
    pipeline = pi8_ancilla_circuit()
    sim = BatchedSimulator(errors=errors, seed=seed)

    def run_batch(batch: int) -> MonteCarloResult:
        frames = BatchFrames(batch, 14)
        for circuit in (encoder, pipeline):
            sim.run_circuit(
                circuit,
                frames,
                moves_per_qubit_per_gate=MOVES_PER_QUBIT_PER_GATE,
            )
        bad = steane_grade_bad(frames, range(7))
        return MonteCarloResult(
            trials=batch, good=int((~bad).sum()), bad=int(bad.sum())
        )

    with _span("ancilla.pi8_batched", trials=trials):
        return run_batches(trials, run_batch)
