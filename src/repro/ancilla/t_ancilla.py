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

This module builds the full circuit and exposes the per-stage slices used
by the factory model in :mod:`repro.factory.t_factory`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.ancilla.cat import cat_prep_circuit
from repro.circuits import Circuit
from repro.circuits.gate import Gate, GateType
from repro.codes.steane import (
    ENCODER_CX_ROUNDS,
    ENCODER_H_QUBITS,
    STEANE,
    steane_zero_prep_circuit,
)
from repro.tech import ErrorRates

PI8_STAGE_NAMES: Tuple[str, ...] = (
    "cat_state_prepare",
    "transversal_interact",
    "decode_store",
    "h_measure_correct",
)


def _stage_cat_prep(circ: Circuit, cat: List[int]) -> None:
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


def _stage_decode(circ: Circuit, cat: List[int]) -> None:
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


def pi8_ancilla_circuit() -> Circuit:
    """The full Figure 5b encoded pi/8 ancilla preparation.

    Qubits 0-6 hold the incoming encoded zero (assumed already prepared by
    a zero factory, so no encoder is included here); qubits 7-13 hold the
    7-qubit cat state. The output pi/8 ancilla lives on qubits 0-6.
    """
    circ = Circuit(14, name="pi8_ancilla_prep")
    block = list(range(7))
    cat = list(range(7, 14))
    _stage_cat_prep(circ, cat)
    _stage_transversal_interact(circ, cat, block)
    _stage_decode(circ, cat)
    _stage_h_measure_correct(circ, cat, block)
    return circ


def pi8_stage_slices() -> Dict[str, Circuit]:
    """The four Table 7 stages as separate circuits (shared 14-qubit frame)."""
    block = list(range(7))
    cat = list(range(7, 14))
    stages: Dict[str, Circuit] = {}

    stage = Circuit(14, name=PI8_STAGE_NAMES[0])
    _stage_cat_prep(stage, cat)
    stages[PI8_STAGE_NAMES[0]] = stage

    stage = Circuit(14, name=PI8_STAGE_NAMES[1])
    _stage_transversal_interact(stage, cat, block)
    stages[PI8_STAGE_NAMES[1]] = stage

    stage = Circuit(14, name=PI8_STAGE_NAMES[2])
    _stage_decode(stage, cat)
    stages[PI8_STAGE_NAMES[2]] = stage

    stage = Circuit(14, name=PI8_STAGE_NAMES[3])
    _stage_h_measure_correct(stage, cat, block)
    stages[PI8_STAGE_NAMES[3]] = stage
    return stages


def pi8_consumption_circuit() -> Circuit:
    """Figure 5a: applying an encoded pi/8 gate by consuming the ancilla.

    Qubits 0-6 are the encoded data block, 7-13 the prepared pi/8 ancilla.
    The data-side cost is one transversal CX, a transversal measurement of
    the ancilla block, and a conditional transversal correction — which is
    exactly what :meth:`repro.circuits.LogicalLatencyModel.
    non_transversal_interaction_latency` prices.
    """
    circ = Circuit(14, name="pi8_consume")
    data = list(range(7))
    anc = list(range(7, 14))
    for d, a in zip(data, anc):
        circ.cx(a, d)
    for i, a in enumerate(anc):
        circ.measure_z(a, f"c{i}")
    for d in data:
        circ.append(
            Gate(GateType.S, (d,), condition="c0", tag="conditional-correction")
        )
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


def evaluate_pi8_ancilla(
    trials: int = 20000,
    seed: int = 0,
    errors: Optional[ErrorRates] = None,
):
    """Scalar Monte Carlo grading of the pi/8 ancilla preparation.

    Reference implementation: one trial at a time on the scalar
    Pauli-frame engine. Use :func:`evaluate_pi8_ancilla_batched` for
    large trial counts. It replays every trial rather than calling
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
    encoder = steane_zero_prep_circuit(include_prep=True)
    pipeline = pi8_ancilla_circuit()
    sim = MonteCarloSimulator(errors=errors, seed=seed)
    block = list(range(7))

    def trial(s: MonteCarloSimulator) -> TrialOutcome:
        frame = PauliFrame(14)
        s.run_circuit(
            encoder,
            frame,
            moves_per_qubit_per_gate=MOVES_PER_QUBIT_PER_GATE,
        )
        s.run_circuit(
            pipeline,
            frame,
            moves_per_qubit_per_gate=MOVES_PER_QUBIT_PER_GATE,
        )
        if STEANE.is_uncorrectable(frame.x_vector(block), frame.z_vector(block)):
            return TrialOutcome.BAD
        return TrialOutcome.GOOD

    result = MonteCarloResult()
    for _ in range(trials):
        result.record(trial(sim))
    return result


def evaluate_pi8_ancilla_batched(
    trials: int = 200_000,
    seed: int = 0,
    errors: Optional[ErrorRates] = None,
):
    """Batched counterpart of :func:`evaluate_pi8_ancilla`.

    The encoder and the Figure 5b pipeline are each lowered once by the
    general batched engine and replayed over ``(trials, 14)`` frame
    matrices; the conditional Z correction fires per trial on the
    measured ``pi8_m`` flip column. Statistically equivalent to the
    scalar driver (checked by the test suite); the speedup is recorded
    by the protocol benchmark in ``BENCH_protocols.json``.
    """
    from repro.ancilla.evaluation import MOVES_PER_QUBIT_PER_GATE
    from repro.error.batched import (
        BatchFrames,
        BatchedSimulator,
        steane_grade_bad,
    )
    from repro.error.montecarlo import MonteCarloResult

    from repro.obs.trace import span as _span

    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    encoder = steane_zero_prep_circuit(include_prep=True)
    pipeline = pi8_ancilla_circuit()
    sim = BatchedSimulator(errors=errors, seed=seed)
    block = list(range(7))
    total = MonteCarloResult()
    remaining = trials
    with _span("ancilla.pi8_batched", trials=trials):
        while remaining > 0:
            batch = min(remaining, 200_000)
            frames = BatchFrames(batch, 14)
            active = np.ones(batch, dtype=bool)
            for circuit in (encoder, pipeline):
                sim.run_circuit(
                    circuit,
                    frames,
                    active=active,
                    moves_per_qubit_per_gate=MOVES_PER_QUBIT_PER_GATE,
                )
            bad = steane_grade_bad(frames, block)
            total = total.merge(
                MonteCarloResult(
                    trials=batch, good=int((~bad).sum()), bad=int(bad.sum())
                )
            )
            remaining -= batch
    return total
