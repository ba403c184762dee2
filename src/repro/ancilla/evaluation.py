"""Monte Carlo grading of the Figure 4 zero-prep strategies.

Each strategy is replayed at the Pauli-frame level on physical circuits
this module builds itself: the Figure 3b encoder
(:func:`repro.codes.steane.steane_zero_prep_circuit`), the 3-qubit cat
(:func:`repro.ancilla.cat.cat_prep_circuit`), and its own verification
check and bit/phase correction circuits. Only the cat width and the
verification support come from :mod:`repro.ancilla.zero_prep`, whose
strategy circuit builders this module does not use. The circuits run
under stochastic error injection, measurement flip bits drive the
classical verify/decode decisions in Python, and the surviving output
block is graded against ideal decoding of the [[7,1,3]] code.

Paper targets (Figure 4, Section 2.3):

==================  =========
strategy            error rate
==================  =========
basic               1.8e-3
verify-only         3.7e-4
correct-only        1.1e-3
verify-and-correct  2.9e-5
==================  =========

plus a verification failure (discard) rate of ~0.2% for the Figure 4a
subunit. Absolute numbers depend on the authors' exact layout and fault
accounting; this reproduction targets the same decades and orderings.

Calibrated modeling choices (``benchmarks/test_bench_fig4_error_rates.py``
checks the resulting rates against the paper's):

* Error sources are gates, movement and readout. The paper names gates
  and movement only, but the default ``ErrorRates()`` also sets a readout
  flip rate (``measurement``, 1e-4, the gate rate), and both engines
  apply it to every measured bit.
* Preparation faults inject X/Y only — a Z on a fresh |0> is not an error.
* Verification detection is idealized (discard on any nonzero syndrome)
  while its apparatus costs are fully charged.
* Corrections decode from the measured helper bits, so helper
  contamination, back-propagation and fresh apparatus errors all land on
  the output — faithful Steane-style correction.

Known deviation of the idealized verification rule, measured on the
scalar engine with 20k trials, seed 0 (95% Wilson intervals): it
discards 0.22% of blocks (paper: ~0.2%), but verify-only shows 0 errors
in 19,956 accepted blocks (upper bound 1.9e-4) against the paper's
3.7e-4, because an accepted block is either clean or carries an
undetectable weight-3+ error. Verify-and-correct measured 2 in 20,000,
1.0e-4 (2.7e-5 to 3.6e-4), against the paper's 2.9e-5. Orderings
against basic and correct-only reproduce.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.ancilla.cat import cat_prep_circuit
from repro.ancilla.zero_prep import CAT_WIDTH, VERIFY_SUPPORT
from repro.circuits import Circuit
from repro.codes.steane import STEANE, steane_zero_prep_circuit
from repro.error.montecarlo import (
    MonteCarloResult,
    MonteCarloSimulator,
    TrialOutcome,
)
from repro.error.pauli import PauliFrame
from repro.tech import ErrorRates

#: Average movement operations charged to each qubit touched by each gate.
#: The paper's hand-optimized simple-factory schedule (Section 4.3) performs
#: 8 turns + 30 straight moves across a ~19-gate preparation, i.e. roughly
#: two movement operations per qubit-gate; movement error (1e-6/op) is two
#: orders of magnitude below gate error so the result is insensitive to
#: this choice.
MOVES_PER_QUBIT_PER_GATE = 2.0


class PrepStrategy(enum.Enum):
    """The four Figure 4 preparation strategies."""

    BASIC = "basic"
    VERIFY_ONLY = "verify_only"
    CORRECT_ONLY = "correct_only"
    VERIFY_AND_CORRECT = "verify_and_correct"


#: Paper-reported error rates, for reporting alongside measured values.
PAPER_ERROR_RATES: Dict[PrepStrategy, float] = {
    PrepStrategy.BASIC: 1.8e-3,
    PrepStrategy.VERIFY_ONLY: 3.7e-4,
    PrepStrategy.CORRECT_ONLY: 1.1e-3,
    PrepStrategy.VERIFY_AND_CORRECT: 2.9e-5,
}

PAPER_VERIFY_FAILURE_RATE = 0.002

# Static sub-circuits, built once.
_ENCODER = steane_zero_prep_circuit(include_prep=True)
_CAT3 = cat_prep_circuit(CAT_WIDTH, include_prep=True)


def _verify_check_circuit() -> Circuit:
    """Transversal parity check of logical Z: block drives cat, cat measured.

    Local qubits 0-6 are the encoded block; 7-9 the cat.
    """
    circ = Circuit(7 + CAT_WIDTH, name="verify_check")
    for i, support_q in enumerate(VERIFY_SUPPORT):
        circ.cx(support_q, 7 + i)
    for i in range(CAT_WIDTH):
        circ.measure_z(7 + i, f"v{i}")
    return circ


_VERIFY_CHECK = _verify_check_circuit()


def _bit_correct_circuit() -> Circuit:
    """Transversal CX target->helper plus helper Z-measurement.

    Local qubits 0-6 are the target block, 7-13 the helper block.
    """
    circ = Circuit(14, name="bit_correct")
    for i in range(7):
        circ.cx(i, 7 + i)
    for i in range(7):
        circ.measure_z(7 + i, f"m{i}")
    return circ


def _phase_correct_circuit() -> Circuit:
    """Transversal CX helper->target plus helper X-measurement."""
    circ = Circuit(14, name="phase_correct")
    for i in range(7):
        circ.cx(7 + i, i)
    for i in range(7):
        circ.measure_x(7 + i, f"m{i}")
    return circ


_BIT_CORRECT = _bit_correct_circuit()
_PHASE_CORRECT = _phase_correct_circuit()


def _block_map(block: Sequence[int]) -> Dict[int, int]:
    return {i: q for i, q in enumerate(block)}


def _run_encode(sim: MonteCarloSimulator, frame: PauliFrame,
                block: Sequence[int]) -> None:
    sim.run_circuit(
        _ENCODER,
        frame,
        qubit_map=_block_map(block),
        moves_per_qubit_per_gate=MOVES_PER_QUBIT_PER_GATE,
    )


def _run_verification(sim: MonteCarloSimulator, frame: PauliFrame,
                      block: Sequence[int], cats: Sequence[int]) -> bool:
    """Run the verification subunit; returns True when the block passes.

    The cat-state apparatus is executed in full (charging its gate errors
    and its back-propagation onto the block), while the accept decision is
    idealized: the block is discarded iff it carries any *detectable*
    error — nonzero X or Z syndrome — at the end of the subunit. The
    paper's verification wiring is underspecified (one 3-qubit cat per
    block); modeling its detection power as ideal discards 0.22% of
    blocks (paper: ~0.2%) but lets no detectable error through, so
    verify-only sits below the paper's rate (see the module docstring).
    Undetectable (zero-syndrome) errors are exactly the ones no
    verification circuit could catch.
    """
    sim.run_circuit(
        _CAT3,
        frame,
        qubit_map=_block_map(cats),
        moves_per_qubit_per_gate=MOVES_PER_QUBIT_PER_GATE,
    )
    mapping = dict(_block_map(block))
    mapping.update({7 + i: q for i, q in enumerate(cats)})
    sim.run_circuit(
        _VERIFY_CHECK,
        frame,
        qubit_map=mapping,
        moves_per_qubit_per_gate=MOVES_PER_QUBIT_PER_GATE,
    )
    x_err = frame.x_vector(block)
    z_err = frame.z_vector(block)
    detectable = (
        STEANE.x_error_syndrome(x_err).any()
        or STEANE.z_error_syndrome(z_err).any()
    )
    return not detectable


def _apply_correction(sim: MonteCarloSimulator, frame: PauliFrame,
                      block: Sequence[int], pattern: np.ndarray,
                      pauli: str) -> None:
    """Apply a decoded conditional correction, with gate error per flip."""
    for i, flip in enumerate(pattern):
        if not flip:
            continue
        q = block[i]
        frame.apply_pauli(q, pauli)
        # The physical correction gate can itself fail.
        if sim.gate_fault():
            frame.apply_pauli(q, ("X", "Y", "Z")[sim.rng.integers(3)])


def _run_bit_correction(sim: MonteCarloSimulator, frame: PauliFrame,
                        target: Sequence[int], helper: Sequence[int]) -> None:
    mapping = dict(_block_map(target))
    mapping.update({7 + i: q for i, q in enumerate(helper)})
    flips = sim.run_circuit(
        _BIT_CORRECT,
        frame,
        qubit_map=mapping,
        moves_per_qubit_per_gate=MOVES_PER_QUBIT_PER_GATE,
    )
    bits = np.array([flips[f"m{i}"] for i in range(7)], dtype=np.uint8)
    syndrome = STEANE.x_error_syndrome(bits)
    correction = STEANE.correction_from_x_syndrome(syndrome)
    _apply_correction(sim, frame, target, correction, "X")


def _run_phase_correction(sim: MonteCarloSimulator, frame: PauliFrame,
                          target: Sequence[int], helper: Sequence[int]) -> None:
    mapping = dict(_block_map(target))
    mapping.update({7 + i: q for i, q in enumerate(helper)})
    flips = sim.run_circuit(
        _PHASE_CORRECT,
        frame,
        qubit_map=mapping,
        moves_per_qubit_per_gate=MOVES_PER_QUBIT_PER_GATE,
    )
    bits = np.array([flips[f"m{i}"] for i in range(7)], dtype=np.uint8)
    syndrome = STEANE.z_error_syndrome(bits)
    correction = STEANE.correction_from_z_syndrome(syndrome)
    _apply_correction(sim, frame, target, correction, "Z")


def _grade(frame: PauliFrame, block: Sequence[int]) -> TrialOutcome:
    """Grade the output block: is its residual error uncorrectable?

    An output is bad when its Pauli residual defeats ideal decoding of the
    [[7,1,3]] code — a logical X or logical Z content. This is the
    "probability of an uncorrectable error in the resulting encoded
    output" the paper reports under Figure 4. (A logical Z acts trivially
    on |0>_L itself, but the same prepared block serves the phase-
    correction role after a transversal Hadamard, where the Z content is
    what corrupts data, so both logical components are graded.)
    """
    x_err = frame.x_vector(block)
    z_err = frame.z_vector(block)
    if STEANE.is_uncorrectable(x_err, z_err):
        return TrialOutcome.BAD
    return TrialOutcome.GOOD


# ----------------------------------------------------------------------
# Strategy trials

_BLOCKS = (tuple(range(0, 7)), tuple(range(7, 14)), tuple(range(14, 21)))


def _trial_basic(sim: MonteCarloSimulator) -> TrialOutcome:
    frame = PauliFrame(7)
    _run_encode(sim, frame, range(7))
    return _grade(frame, range(7))


def _trial_verify_only(sim: MonteCarloSimulator) -> TrialOutcome:
    frame = PauliFrame(10)
    block = tuple(range(7))
    _run_encode(sim, frame, block)
    if not _run_verification(sim, frame, block, (7, 8, 9)):
        return TrialOutcome.DISCARDED
    return _grade(frame, block)


def _trial_correct_only(sim: MonteCarloSimulator) -> TrialOutcome:
    frame = PauliFrame(21)
    top, mid, bottom = _BLOCKS
    for block in (top, mid, bottom):
        _run_encode(sim, frame, block)
    _run_bit_correction(sim, frame, mid, top)
    _run_phase_correction(sim, frame, mid, bottom)
    return _grade(frame, mid)


def _trial_verify_and_correct(sim: MonteCarloSimulator) -> TrialOutcome:
    frame = PauliFrame(24)
    top, mid, bottom = _BLOCKS
    cat = (21, 22, 23)
    for block in (top, mid, bottom):
        # Failed verifications recycle the block and retry; the retry's
        # errors are i.i.d. with the original attempt, so resampling the
        # same register is statistically identical and much cheaper.
        while True:
            for q in block:
                frame.clear(q)
            for q in cat:
                frame.clear(q)
            _run_encode(sim, frame, block)
            if _run_verification(sim, frame, block, cat):
                break
    _run_bit_correction(sim, frame, mid, top)
    _run_phase_correction(sim, frame, mid, bottom)
    return _grade(frame, mid)


_TRIALS = {
    PrepStrategy.BASIC: _trial_basic,
    PrepStrategy.VERIFY_ONLY: _trial_verify_only,
    PrepStrategy.CORRECT_ONLY: _trial_correct_only,
    PrepStrategy.VERIFY_AND_CORRECT: _trial_verify_and_correct,
}


@dataclass(frozen=True)
class StrategyReport:
    """Measured vs paper-reported quality for one strategy."""

    strategy: PrepStrategy
    result: MonteCarloResult
    paper_error_rate: float

    @property
    def error_rate(self) -> float:
        return self.result.error_rate

    @property
    def discard_rate(self) -> float:
        return self.result.discard_rate

    def summary(self) -> str:
        lo, hi = self.result.error_rate_interval()
        return (
            f"{self.strategy.value:>18}: error={self.error_rate:.2e} "
            f"[{lo:.1e}, {hi:.1e}] discard={self.discard_rate:.2%} "
            f"(paper: {self.paper_error_rate:.1e})"
        )


def evaluate_strategy(
    strategy: PrepStrategy,
    trials: int = 20000,
    seed: int = 0,
    errors: Optional[ErrorRates] = None,
    engine: str = "scalar",
) -> StrategyReport:
    """Monte Carlo grade one preparation strategy.

    Args:
        strategy: Which Figure 4 strategy to run.
        trials: Number of independent preparation attempts.
        seed: RNG seed (results are reproducible per seed).
        errors: Error rates; defaults to ``ErrorRates()``: the paper's gate
            1e-4 and move 1e-6, plus readout 1e-4.
        engine: ``"scalar"`` runs trials one at a time on the
            reference Pauli-frame engine, skipping runs of fault-free
            trials whole; ``"batched"`` routes through the general
            batched protocol engine (same statistics, different RNG
            stream). At 20k trials on a 2-core host the batched engine
            runs 0.5-2.3x the scalar one per strategy at the paper's
            rates (~1.3x over all four) and 5-19x at 10x those rates.
    """
    if engine == "batched":
        from repro.error.vectorized import evaluate_strategy_vectorized

        return evaluate_strategy_vectorized(
            strategy, trials=trials, seed=seed, errors=errors
        )
    if engine != "scalar":
        raise ValueError(f"unknown engine {engine!r}; choose 'scalar' or 'batched'")
    sim = MonteCarloSimulator(errors=errors, seed=seed)
    result = sim.estimate(_TRIALS[strategy], trials)
    return StrategyReport(strategy, result, PAPER_ERROR_RATES[strategy])


def evaluate_strategies(
    trials: int = 20000,
    seed: int = 0,
    errors: Optional[ErrorRates] = None,
    engine: str = "scalar",
) -> Dict[PrepStrategy, StrategyReport]:
    """Grade all four strategies with a shared trial budget per strategy."""
    return {
        strategy: evaluate_strategy(
            strategy, trials=trials, seed=seed, errors=errors, engine=engine
        )
        for strategy in PrepStrategy
    }
