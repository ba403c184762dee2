"""The Figure 4 zero-prep strategies and their Monte Carlo grading.

Four strategies for producing a high-fidelity encoded |0> in the [[7,1,3]]
code:

* **basic** — the bare encoder of Figure 3b;
* **verify-only** (Figure 4a) — encode, then verify against a 3-qubit cat
  state and discard on failure;
* **correct-only** (Figure 4b) — three bare encodings; the middle block is
  bit-corrected by the first and phase-corrected by the third;
* **verify-and-correct** (Figure 4c) — three *verified* encodings feeding
  the same correction step, a failed block re-encoded until it passes.

Each strategy is one :class:`_Recipe` entry in :data:`_RECIPES`: register
width, encoded blocks, verification cat, and whether a failed check
discards the trial or retries the block. A recipe runs five physical
sub-circuits: the Figure 3b encoder
(:func:`repro.codes.steane.steane_zero_prep_circuit`), the 3-qubit cat
(:func:`repro.ancilla.cat.cat_prep_circuit`), the verification check and
the bit/phase correction. Two interpreters read the table: a scalar
trial (:meth:`_Recipe.trial`) for
:meth:`~repro.error.montecarlo.MonteCarloSimulator.estimate`, and a
batched pass (:meth:`_Recipe.run_batch`) over ``(trials, qubits)``
frames on :class:`~repro.error.batched.BatchedSimulator`. The circuits
run under stochastic error injection, measurement flip bits drive the
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
from typing import Dict, Optional, Tuple

import numpy as np

from repro.ancilla.cat import cat_prep_circuit
from repro.circuits import Circuit
from repro.codes.steane import STEANE, steane_zero_prep_circuit
from repro.error.batched import (
    BatchFrames,
    BatchedSimulator,
    run_batches,
    steane_grade_bad,
    steane_syndrome_keys,
)
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

#: Weight-3 representative of logical Z used for verification: the support
#: of (Z^x7) times the stabilizer 1010101, i.e. qubits {1, 3, 5}.
VERIFY_SUPPORT: Tuple[int, int, int] = (1, 3, 5)

#: Number of verification (cat) qubits per verified block.
CAT_WIDTH = 3


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

# ----------------------------------------------------------------------
# The five sub-circuits, built once. Each lays its operands out as
# consecutive local qubits: the block (0-6), then its cat or helper.

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


def _correct_circuit(phase: bool) -> Circuit:
    """Transversal CX between target (0-6) and helper (7-13), helper measured.

    Bit correction: target controls, helper measured in Z (copies the
    target's X errors). Phase correction: helper controls, helper measured
    in X (copies the target's Z errors).
    """
    circ = Circuit(14, name="phase_correct" if phase else "bit_correct")
    measure = circ.measure_x if phase else circ.measure_z
    for i in range(7):
        circ.cx(*((7 + i, i) if phase else (i, 7 + i)))
    for i in range(7):
        measure(7 + i, f"m{i}")
    return circ


_VERIFY_CHECK = _verify_check_circuit()

#: The two corrections: (circuit, decode of the measured helper bits,
#: Pauli applied to the target).
_BIT = (_correct_circuit(phase=False), STEANE.decode_x_error, "X")
_PHASE = (_correct_circuit(phase=True), STEANE.decode_z_error, "Z")


def _local_map(*blocks: Tuple[int, ...]) -> Dict[int, int]:
    """Sub-circuit local qubits -> register qubits, operands in order."""
    return {i: q for i, q in enumerate(q for block in blocks for q in block)}


# ----------------------------------------------------------------------
# Scalar steps (one trial, one PauliFrame)


def _scalar_run(sim: MonteCarloSimulator, circuit: Circuit, frame: PauliFrame,
                *blocks: Tuple[int, ...]) -> Dict[str, int]:
    return sim.run_circuit(
        circuit, frame, _local_map(*blocks),
        moves_per_qubit_per_gate=MOVES_PER_QUBIT_PER_GATE,
    )


def _scalar_verified(sim: MonteCarloSimulator, frame: PauliFrame,
                     block: Tuple[int, ...], cat: Tuple[int, ...]) -> bool:
    """Run the verification subunit; True when the block passes.

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
    _scalar_run(sim, _CAT3, frame, cat)
    _scalar_run(sim, _VERIFY_CHECK, frame, block, cat)
    return not (
        STEANE.x_error_syndrome(frame.x_vector(block)).any()
        or STEANE.z_error_syndrome(frame.z_vector(block)).any()
    )


def _scalar_correct(sim: MonteCarloSimulator, frame: PauliFrame,
                    target: Tuple[int, ...], helper: Tuple[int, ...],
                    correction) -> None:
    """Steane-style correction of ``target`` from measured ``helper`` bits;
    each applied correction gate can itself fail."""
    circuit, decode, pauli = correction
    flips = _scalar_run(sim, circuit, frame, target, helper)
    bits = np.array([flips[f"m{i}"] for i in range(7)], dtype=np.uint8)
    for q, flip in zip(target, decode(bits)):
        if flip:
            frame.apply_pauli(q, pauli)
            if sim.gate_fault():
                frame.apply_pauli(q, ("X", "Y", "Z")[sim.rng.integers(3)])


# ----------------------------------------------------------------------
# Batched steps (a batch of trials, one BatchFrames)


def _batched_run(sim: BatchedSimulator, circuit: Circuit, frames: BatchFrames,
                 *blocks: Tuple[int, ...],
                 active: Optional[np.ndarray] = None) -> Dict[str, np.ndarray]:
    return sim.run_circuit(
        circuit, frames, _local_map(*blocks), active,
        moves_per_qubit_per_gate=MOVES_PER_QUBIT_PER_GATE,
    )


def _batched_verified(sim: BatchedSimulator, frames: BatchFrames,
                      block: Tuple[int, ...], cat: Tuple[int, ...],
                      active: np.ndarray) -> np.ndarray:
    """Pass mask of the verification subunit, with the scalar rule."""
    _batched_run(sim, _CAT3, frames, cat, active=active)
    _batched_run(sim, _VERIFY_CHECK, frames, block, cat, active=active)
    blk = list(block)
    return (steane_syndrome_keys(frames.x[:, blk]) == 0) & (
        steane_syndrome_keys(frames.z[:, blk]) == 0
    )


def _batched_correct(sim: BatchedSimulator, frames: BatchFrames,
                     target: Tuple[int, ...], helper: Tuple[int, ...],
                     correction) -> None:
    circuit, _, pauli = correction
    flips = _batched_run(sim, circuit, frames, target, helper)
    bits = np.stack([flips[f"m{i}"] for i in range(7)], axis=1)
    sim.apply_correction(frames, target, bits, pauli)


# ----------------------------------------------------------------------
# The strategy table

_TOP = tuple(range(0, 7))
_MID = tuple(range(7, 14))
_BOTTOM = tuple(range(14, 21))


@dataclass(frozen=True)
class _Recipe:
    """One Figure 4 strategy, as both Monte Carlo engines run it.

    Each block in ``blocks`` is encoded and, when there is a ``cat``,
    verified with it; a failed check discards the trial, or with
    ``retry`` recycles and re-encodes the block. With three blocks the
    middle one is the output, bit-corrected by the first and
    phase-corrected by the last; with one block it is the output.
    """

    width: int
    blocks: Tuple[Tuple[int, ...], ...]
    cat: Tuple[int, ...] = ()
    retry: bool = False

    @property
    def output(self) -> Tuple[int, ...]:
        return self.blocks[len(self.blocks) // 2]

    def trial(self, sim: MonteCarloSimulator) -> TrialOutcome:
        """One trial on the scalar engine, fresh frame to graded output."""
        frame = PauliFrame(self.width)
        for block in self.blocks:
            while True:
                _scalar_run(sim, _ENCODER, frame, block)
                if not self.cat or _scalar_verified(sim, frame, block, self.cat):
                    break
                if not self.retry:
                    return TrialOutcome.DISCARDED
                # A retry's errors are i.i.d. with the failed attempt's,
                # so resampling the same register is statistically
                # identical to drawing a fresh one.
                for q in block + self.cat:
                    frame.clear(q)
        if len(self.blocks) == 3:
            top, mid, bottom = self.blocks
            _scalar_correct(sim, frame, mid, top, _BIT)
            _scalar_correct(sim, frame, mid, bottom, _PHASE)
        block = self.output
        if STEANE.is_uncorrectable(frame.x_vector(block), frame.z_vector(block)):
            return TrialOutcome.BAD
        return TrialOutcome.GOOD

    def run_batch(self, sim: BatchedSimulator, trials: int) -> MonteCarloResult:
        """``trials`` trials at once on the batched engine."""
        frames = BatchFrames(trials, self.width)
        accepted = np.ones(trials, dtype=bool)
        for block in self.blocks:
            pending = np.ones(trials, dtype=bool)
            # Like the scalar trial, retry until every block verifies.
            while True:
                _batched_run(sim, _ENCODER, frames, block, active=pending)
                if not self.cat:
                    break
                passed = _batched_verified(sim, frames, block, self.cat, pending)
                if not self.retry:
                    accepted = passed
                    break
                pending &= ~passed
                if not pending.any():
                    break
                recycled = list(block + self.cat)
                frames.x[np.ix_(pending, recycled)] = 0
                frames.z[np.ix_(pending, recycled)] = 0
        if len(self.blocks) == 3:
            top, mid, bottom = self.blocks
            _batched_correct(sim, frames, mid, top, _BIT)
            _batched_correct(sim, frames, mid, bottom, _PHASE)
        bad = steane_grade_bad(frames, self.output) & accepted
        return MonteCarloResult(
            trials=trials,
            good=int((accepted & ~bad).sum()),
            bad=int(bad.sum()),
            discarded=int((~accepted).sum()),
        )


_RECIPES: Dict[PrepStrategy, _Recipe] = {
    PrepStrategy.BASIC: _Recipe(7, (_TOP,)),
    PrepStrategy.VERIFY_ONLY: _Recipe(7 + CAT_WIDTH, (_TOP,), cat=(7, 8, 9)),
    PrepStrategy.CORRECT_ONLY: _Recipe(21, (_TOP, _MID, _BOTTOM)),
    PrepStrategy.VERIFY_AND_CORRECT: _Recipe(
        21 + CAT_WIDTH, (_TOP, _MID, _BOTTOM), cat=(21, 22, 23), retry=True
    ),
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
            trials whole; ``"batched"`` runs whole batches of trials on
            the general batched protocol engine (same statistics,
            different RNG stream). At 20k trials on a 2-core host the batched engine
            runs 0.5-2.3x the scalar one per strategy at the paper's
            rates (~1.3x over all four) and 5-19x at 10x those rates.
    """
    recipe = _RECIPES[strategy]
    if engine == "batched":
        sim = BatchedSimulator(errors=errors, seed=seed)
        result = run_batches(trials, lambda batch: recipe.run_batch(sim, batch))
    elif engine == "scalar":
        sim = MonteCarloSimulator(errors=errors, seed=seed)
        result = sim.estimate(recipe.trial, trials)
    else:
        raise ValueError(f"unknown engine {engine!r}; choose 'scalar' or 'batched'")
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
