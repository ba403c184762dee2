"""Vectorized Monte Carlo drivers for the Figure 4 protocols.

Historically this module carried its own hand-specialized batch kernels
for the four zero-prep strategies. Those kernels are now thin wrappers
over the general batched protocol engine in :mod:`repro.error.batched`:
each sub-circuit (encoder, cat prep, verify check, bit/phase correct) is
lowered once by :func:`~repro.error.batched.compile_protocol` and
executed over ``(trials, qubits)`` frames by
:class:`~repro.error.batched.BatchedSimulator`, with only the
Figure-4-specific protocol logic — retry loops, idealized verification,
syndrome decode of the measured helper bits, output grading — kept here.

Semantics are identical to the scalar protocols in
:mod:`repro.ancilla.evaluation` (same circuits, same idealized
verification and measured-bit decode rules, same X/Y-only prep faults);
only the RNG stream differs, so the two engines agree statistically,
which the test suite checks. At 20k trials on a 2-core host it runs
0.5-2.3x the scalar engine per strategy at the paper's rates, where the
scalar ``estimate`` skips fault-free trials whole, and 5-19x at 10x the
rates; million-trial estimates of the verify-and-correct strategy's
~1e-5 rate take seconds.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.ancilla.cat import cat_prep_circuit
from repro.ancilla.evaluation import (
    MOVES_PER_QUBIT_PER_GATE,
    PAPER_ERROR_RATES,
    PrepStrategy,
    StrategyReport,
    _BIT_CORRECT,
    _PHASE_CORRECT,
    _VERIFY_CHECK,
)
from repro.circuits import Circuit
from repro.codes.steane import steane_zero_prep_circuit
from repro.error.batched import (
    BatchFrames,
    BatchedSimulator,
    STEANE_DECODE,
    steane_grade_bad,
    steane_syndrome_keys,
)
from repro.error.montecarlo import MonteCarloResult
from repro.tech import ErrorRates


class VectorizedSimulator(BatchedSimulator):
    """Figure 4 protocol drivers on top of the general batched engine.

    Args:
        errors: Per-operation error probabilities (paper defaults).
        seed: RNG seed.
    """

    # ------------------------------------------------------------------
    # Circuit execution (movement charged at the protocol default)

    def run_circuit(  # type: ignore[override]
        self,
        circuit: Circuit,
        frames: BatchFrames,
        qubit_map: Optional[Dict[int, int]] = None,
        active: Optional[np.ndarray] = None,
        measure_flips: Optional[Dict[str, np.ndarray]] = None,
        moves_per_qubit_per_gate: float = MOVES_PER_QUBIT_PER_GATE,
    ) -> Dict[str, np.ndarray]:
        """Execute a circuit over the batch, mirroring the scalar engine.

        Identical to :meth:`BatchedSimulator.run_circuit` except that
        per-gate movement defaults to the Figure 4 protocols' layout
        proxy (:data:`~repro.ancilla.evaluation.MOVES_PER_QUBIT_PER_GATE`
        ops per involved qubit).
        """
        return super().run_circuit(
            circuit,
            frames,
            qubit_map=qubit_map,
            active=active,
            measure_flips=measure_flips,
            moves_per_qubit_per_gate=moves_per_qubit_per_gate,
        )

    # ------------------------------------------------------------------
    # Protocol building blocks

    def encode(self, frames: BatchFrames, block: Sequence[int],
               active: np.ndarray) -> None:
        self.run_circuit(
            steane_zero_prep_circuit(),
            frames,
            {i: q for i, q in enumerate(block)},
            active,
        )

    def verify(self, frames: BatchFrames, block: Sequence[int],
               cats: Sequence[int], active: np.ndarray) -> np.ndarray:
        """Run the verification subunit; returns the pass mask.

        Apparatus charged, accept decision idealized (any nonzero X or Z
        syndrome on the block fails), as in the scalar engine.
        """
        self.run_circuit(
            cat_prep_circuit(3, include_prep=True),
            frames,
            {i: q for i, q in enumerate(cats)},
            active,
        )
        mapping = {i: q for i, q in enumerate(block)}
        mapping.update({7 + i: q for i, q in enumerate(cats)})
        self.run_circuit(_VERIFY_CHECK, frames, mapping, active)
        blk = list(block)
        detectable = (
            steane_syndrome_keys(frames.x[:, blk]) != 0
        ) | (steane_syndrome_keys(frames.z[:, blk]) != 0)
        return ~detectable

    def _apply_decoded(self, frames: BatchFrames, block: Sequence[int],
                       bits: np.ndarray, active: np.ndarray,
                       phase: bool) -> None:
        """Decode measured helper bits and apply the correction."""
        keys = steane_syndrome_keys(bits)
        correction = STEANE_DECODE[keys] & active[:, None].astype(np.uint8)
        target = frames.z if phase else frames.x
        blk = list(block)
        target[:, blk] ^= correction
        # Each applied correction gate can itself fail.
        p = self.errors.gate
        if p == 0.0:
            return
        n = bits.shape[0]
        for i, q in enumerate(blk):
            applied = correction[:, i].astype(bool)
            if not applied.any():
                continue
            hit = self._hits(n, p, applied)
            if hit.size:
                self._random_1q(frames, q, hit)

    def bit_correct(self, frames: BatchFrames, target: Sequence[int],
                    helper: Sequence[int], active: np.ndarray) -> None:
        mapping = {i: q for i, q in enumerate(target)}
        mapping.update({7 + i: q for i, q in enumerate(helper)})
        flips: Dict[str, np.ndarray] = {}
        self.run_circuit(_BIT_CORRECT, frames, mapping, active, flips)
        bits = np.stack([flips[f"m{i}"] for i in range(7)], axis=1)
        self._apply_decoded(frames, target, bits, active, phase=False)

    def phase_correct(self, frames: BatchFrames, target: Sequence[int],
                      helper: Sequence[int], active: np.ndarray) -> None:
        mapping = {i: q for i, q in enumerate(target)}
        mapping.update({7 + i: q for i, q in enumerate(helper)})
        flips: Dict[str, np.ndarray] = {}
        self.run_circuit(_PHASE_CORRECT, frames, mapping, active, flips)
        bits = np.stack([flips[f"m{i}"] for i in range(7)], axis=1)
        self._apply_decoded(frames, target, bits, active, phase=True)

    def encode_verified(self, frames: BatchFrames, block: Sequence[int],
                        cats: Sequence[int], max_retries: int = 12) -> None:
        """Encode-and-verify with per-trial retries until all pass."""
        n = frames.x.shape[0]
        pending = np.ones(n, dtype=bool)
        for _ in range(max_retries):
            if not pending.any():
                return
            blk_and_cats = list(block) + list(cats)
            frames.x[np.ix_(pending, blk_and_cats)] = 0
            frames.z[np.ix_(pending, blk_and_cats)] = 0
            passed = self.verify_after_encode(frames, block, cats, pending)
            pending &= ~passed
        # Leftover failures (astronomically rare) are left as-is; their
        # detectable errors make them grade bad, a conservative outcome.

    def verify_after_encode(self, frames: BatchFrames, block: Sequence[int],
                            cats: Sequence[int],
                            active: np.ndarray) -> np.ndarray:
        self.encode(frames, block, active)
        return self.verify(frames, block, cats, active)

    # ------------------------------------------------------------------
    # Grading

    def grade_bad(self, frames: BatchFrames, block: Sequence[int]) -> np.ndarray:
        """Uncorrectable-residual mask (logical X or logical Z content)."""
        return steane_grade_bad(frames, block)


# ----------------------------------------------------------------------
# Strategy drivers


def _run_basic(sim: VectorizedSimulator, trials: int) -> MonteCarloResult:
    frames = BatchFrames(trials, 7)
    active = np.ones(trials, dtype=bool)
    sim.encode(frames, range(7), active)
    bad = sim.grade_bad(frames, range(7))
    return MonteCarloResult(trials=trials, good=int((~bad).sum()), bad=int(bad.sum()))


def _run_verify_only(sim: VectorizedSimulator, trials: int) -> MonteCarloResult:
    frames = BatchFrames(trials, 10)
    active = np.ones(trials, dtype=bool)
    passed = sim.verify_after_encode(frames, range(7), (7, 8, 9), active)
    bad = sim.grade_bad(frames, range(7)) & passed
    good = passed & ~bad
    return MonteCarloResult(
        trials=trials,
        good=int(good.sum()),
        bad=int(bad.sum()),
        discarded=int((~passed).sum()),
    )


_TOP = tuple(range(0, 7))
_MID = tuple(range(7, 14))
_BOTTOM = tuple(range(14, 21))
_CAT = (21, 22, 23)


def _run_correct_only(sim: VectorizedSimulator, trials: int) -> MonteCarloResult:
    frames = BatchFrames(trials, 21)
    active = np.ones(trials, dtype=bool)
    for block in (_TOP, _MID, _BOTTOM):
        sim.encode(frames, block, active)
    sim.bit_correct(frames, _MID, _TOP, active)
    sim.phase_correct(frames, _MID, _BOTTOM, active)
    bad = sim.grade_bad(frames, _MID)
    return MonteCarloResult(trials=trials, good=int((~bad).sum()), bad=int(bad.sum()))


def _run_verify_and_correct(sim: VectorizedSimulator, trials: int) -> MonteCarloResult:
    frames = BatchFrames(trials, 24)
    active = np.ones(trials, dtype=bool)
    for block in (_TOP, _MID, _BOTTOM):
        sim.encode_verified(frames, block, _CAT)
    sim.bit_correct(frames, _MID, _TOP, active)
    sim.phase_correct(frames, _MID, _BOTTOM, active)
    bad = sim.grade_bad(frames, _MID)
    return MonteCarloResult(trials=trials, good=int((~bad).sum()), bad=int(bad.sum()))


_RUNNERS = {
    PrepStrategy.BASIC: _run_basic,
    PrepStrategy.VERIFY_ONLY: _run_verify_only,
    PrepStrategy.CORRECT_ONLY: _run_correct_only,
    PrepStrategy.VERIFY_AND_CORRECT: _run_verify_and_correct,
}

#: Batch size cap so memory stays modest at huge trial counts.
_BATCH = 200_000


def evaluate_strategy_vectorized(
    strategy: PrepStrategy,
    trials: int = 200_000,
    seed: int = 0,
    errors: Optional[ErrorRates] = None,
) -> StrategyReport:
    """Vectorized counterpart of :func:`repro.ancilla.evaluate_strategy`."""
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    sim = VectorizedSimulator(errors=errors, seed=seed)
    total = MonteCarloResult()
    remaining = trials
    while remaining > 0:
        batch = min(remaining, _BATCH)
        total = total.merge(_RUNNERS[strategy](sim, batch))
        remaining -= batch
    return StrategyReport(strategy, total, PAPER_ERROR_RATES[strategy])
