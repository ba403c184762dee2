"""General batched Pauli-frame engine: compile ANY protocol to array form.

The scalar :class:`~repro.error.montecarlo.MonteCarloSimulator` walks
``Gate`` objects one trial at a time. This module runs whole batches of
trials with the same compile-to-arrays discipline the dataflow engine
uses (:mod:`repro.circuits.compiled`):

* :func:`compile_protocol` lowers an arbitrary :class:`Circuit` — with an
  optional qubit map into a larger simulation register — into a
  :class:`CompiledProtocol`: int-coded ops, flat qubit indices, and
  interned classical-bit ids for measurements and classically conditioned
  corrections. Lowering is memoized per ``(circuit, qubit_map)`` in the
  circuit's own memo, like the scalar engine's mapped gates.
* :class:`BatchedSimulator` executes a compiled program over
  ``(trials, qubits)`` uint8 X/Z matrices (:class:`BatchFrames`), drawing
  each gate's, movement charge's and measurement's faults as a sparse
  set of hit trials (a binomial count, then a uniform subset).
* :func:`run_batches` splits a large trial count into batches of at most
  :data:`BATCH_TRIALS`, so memory stays modest at any count.

Semantics mirror the scalar engine gate for gate (same X/Y-only prep
faults, same fifteen-Pauli two-qubit faults, same skip rule for
conditional gates, same movement charging); only the RNG stream differs,
so the engines agree statistically — which the test suite checks trial
driver by trial driver. At 20k trials and the paper's rates (2-core
host) it runs ~70x the scalar cat-prep and ~65x the scalar pi/8 driver,
which replay every trial, and 0.5-2.3x the Figure 4 strategies' scalar
``estimate``, which skips fault-free trials whole (5-19x at 10x the
rates). Million-trial estimates are routine for every protocol.

Steane-code decode tables (syndrome -> correction row, stabilizer-coset
membership) live here too, so protocol drivers (Figure 4 strategies,
cat-state prep, the pi/8 ancilla pipeline) can grade whole batches
without per-trial Python.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.circuit import Circuit
from repro.circuits.gate import GateType
from repro.codes.steane import HAMMING_PARITY_CHECK
from repro.error.montecarlo import MonteCarloResult
from repro.obs.trace import span as _span
from repro.tech import ErrorRates

# ----------------------------------------------------------------------
# Protocol ops: the engine's instruction set. Every supported GateType
# lowers to one of these; gates whose Pauli-frame conjugation is the
# identity still charge their fault model (that is what distinguishes
# OP_FAULT_1Q from skipping the gate).

OP_PREP = 0        # clear frame, inject X/Y prep fault
OP_H = 1           # swap X and Z
OP_S = 2           # X -> Y (S and S_DAG act identically on frames)
OP_CX = 3
OP_CZ = 4
OP_SWAP = 5
OP_FAULT_1Q = 6    # frame no-op, one-qubit fault (X/Y/Z, T, T_DAG, RZ)
OP_FAULT_2Q = 7    # frame no-op, two-qubit fault (CS, CRZ)
OP_MEASURE_Z = 8
OP_MEASURE_X = 9

_LOWERING: Dict[GateType, int] = {
    GateType.PREP_0: OP_PREP,
    GateType.PREP_PLUS: OP_PREP,
    GateType.H: OP_H,
    GateType.S: OP_S,
    GateType.S_DAG: OP_S,
    GateType.CX: OP_CX,
    GateType.CZ: OP_CZ,
    GateType.SWAP: OP_SWAP,
    GateType.X: OP_FAULT_1Q,
    GateType.Y: OP_FAULT_1Q,
    GateType.Z: OP_FAULT_1Q,
    GateType.T: OP_FAULT_1Q,
    GateType.T_DAG: OP_FAULT_1Q,
    GateType.RZ: OP_FAULT_1Q,
    GateType.CS: OP_FAULT_2Q,
    GateType.CRZ: OP_FAULT_2Q,
    GateType.MEASURE_Z: OP_MEASURE_Z,
    GateType.MEASURE_X: OP_MEASURE_X,
}

_TWO_QUBIT_OPS = frozenset({OP_CX, OP_CZ, OP_SWAP, OP_FAULT_2Q})

#: The fifteen non-identity two-qubit Paulis as (xa, za, xb, zb) bit rows,
#: in the same order the scalar engine enumerates them.
_PAIR_TABLE = np.array(
    [
        (int(a in "XY"), int(a in "YZ"), int(b in "XY"), int(b in "YZ"))
        for a in ("I", "X", "Y", "Z")
        for b in ("I", "X", "Y", "Z")
        if not (a == "I" and b == "I")
    ],
    dtype=np.uint8,
)


_NO_HITS = np.zeros(0, dtype=np.intp)


class ProtocolLoweringError(ValueError):
    """Raised when a circuit contains a gate the engine cannot lower."""


@dataclass(frozen=True, eq=False)
class CompiledProtocol:
    """Array form of one circuit under one qubit map.

    All per-gate lists are parallel (index ``i`` describes gate ``i`` of
    the source circuit, program order). Plain Python lists are used
    because the execution loop indexes them scalar-by-scalar, where list
    access beats numpy scalar access.

    Attributes:
        num_qubits: Minimum frame width the program addresses (max mapped
            qubit + 1).
        ops: Int-coded operations (``OP_*``).
        q0: First operand qubit (frame index) of each gate.
        q1: Second operand qubit, or ``-1``.
        cond: Interned condition-bit id, or ``-1``.
        result: Interned result-bit id, or ``-1``.
        bit_names: Classical bit names, id order.
    """

    num_qubits: int
    ops: List[int]
    q0: List[int]
    q1: List[int]
    cond: List[int]
    result: List[int]
    bit_names: Tuple[str, ...]

    @property
    def num_gates(self) -> int:
        return len(self.ops)

    @property
    def num_bits(self) -> int:
        return len(self.bit_names)


def _lower(circuit: Circuit, qubit_map: Dict[int, int]) -> CompiledProtocol:
    ops: List[int] = []
    q0: List[int] = []
    q1: List[int] = []
    cond: List[int] = []
    result: List[int] = []
    bit_ids: Dict[str, int] = {}
    top = -1
    for gate in circuit:
        op = _LOWERING.get(gate.gate_type)
        if op is None:
            raise ProtocolLoweringError(
                f"batched engine cannot lower {gate.describe()}; decompose "
                f"{gate.gate_type.value} before Monte Carlo evaluation"
            )
        ops.append(op)
        qubits = [qubit_map.get(q, q) for q in gate.qubits]
        q0.append(qubits[0])
        q1.append(qubits[1] if len(qubits) > 1 else -1)
        top = max(top, *qubits)
        for name, ids in ((gate.condition, cond), (gate.result, result)):
            if name is None:
                ids.append(-1)
            else:
                if name not in bit_ids:
                    bit_ids[name] = len(bit_ids)
                ids.append(bit_ids[name])
    return CompiledProtocol(
        num_qubits=top + 1,
        ops=ops,
        q0=q0,
        q1=q1,
        cond=cond,
        result=result,
        bit_names=tuple(bit_ids),
    )


def _compile_protocol(
    circuit: Circuit, items: Tuple[Tuple[int, int], ...]
) -> CompiledProtocol:
    with _span("protocol.compile", gates=len(circuit)):
        return _lower(circuit, dict(items))


def compile_protocol(
    circuit: Circuit, qubit_map: Optional[Dict[int, int]] = None
) -> CompiledProtocol:
    """Lower ``circuit`` to a protocol program, memoized per (circuit, map)
    in the circuit's memo.

    Protocols run the same sub-circuit at the same register offset for
    every batch, so lowering once and replaying the arrays is the whole
    point.
    """
    items = tuple(sorted((qubit_map or {}).items()))
    return circuit.memoized(_compile_protocol, items)


class BatchFrames:
    """(trials, qubits) Pauli frames."""

    __slots__ = ("x", "z")

    def __init__(self, trials: int, qubits: int) -> None:
        self.x = np.zeros((trials, qubits), dtype=np.uint8)
        self.z = np.zeros((trials, qubits), dtype=np.uint8)


class BatchedSimulator:
    """Batch executor for compiled protocol programs.

    Args:
        errors: Per-operation error probabilities (paper defaults).
        seed: RNG seed; batches are reproducible given a seed.
    """

    def __init__(self, errors: Optional[ErrorRates] = None, seed: int = 0) -> None:
        self.errors = errors or ErrorRates()
        self.rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    # Error injection primitives (sparse draws)

    def _hits(self, n: int, p: float, active: np.ndarray) -> np.ndarray:
        """Indices of the active trials a probability-``p`` fault hits.

        Draws the hit count binomially and the hit set uniformly without
        replacement, which is the same distribution as one Bernoulli(p)
        per trial; at the paper's rates that is a handful of indices
        instead of a full column of uniforms.
        """
        k = int(self.rng.binomial(n, p))
        if not k:
            return _NO_HITS
        hit = self.rng.choice(n, size=k, replace=False)
        return hit[active[hit]]

    def _inject_1q(self, frames: BatchFrames, qubit: int,
                   active: np.ndarray, prep: bool) -> None:
        """With probability ``errors.gate`` per trial, corrupt one qubit.

        Preparation faults inject only X or Y: a Z error on a fresh |0>
        acts trivially, so injecting it would manufacture fictitious
        error events (same rule as the scalar engine).
        """
        p = self.errors.gate
        if p == 0.0:
            return
        hit = self._hits(frames.x.shape[0], p, active)
        if not hit.size:
            return
        if prep:
            choice = self.rng.integers(2, size=hit.size)
            frames.x[hit, qubit] ^= 1
            frames.z[hit, qubit] ^= (choice == 1).astype(np.uint8)
        else:
            self._random_1q(frames, qubit, hit)

    def _random_1q(self, frames: BatchFrames, qubit: int,
                   hit: np.ndarray) -> None:
        """A uniform X, Y or Z on ``qubit`` in each ``hit`` trial."""
        choice = self.rng.integers(3, size=hit.size)  # 0=X, 1=Y, 2=Z
        frames.x[hit, qubit] ^= (choice != 2).astype(np.uint8)
        frames.z[hit, qubit] ^= (choice != 0).astype(np.uint8)

    def _inject_2q(self, frames: BatchFrames, qa: int, qb: int,
                   active: np.ndarray) -> None:
        """Uniform draw over the fifteen non-identity two-qubit Paulis."""
        p = self.errors.gate
        if p == 0.0:
            return
        hit = self._hits(frames.x.shape[0], p, active)
        if not hit.size:
            return
        pick = _PAIR_TABLE[self.rng.integers(len(_PAIR_TABLE), size=hit.size)]
        frames.x[hit, qa] ^= pick[:, 0]
        frames.z[hit, qa] ^= pick[:, 1]
        frames.x[hit, qb] ^= pick[:, 2]
        frames.z[hit, qb] ^= pick[:, 3]

    def _inject_movement(self, frames: BatchFrames, qubit: int,
                         active: np.ndarray, move_ops: int) -> None:
        """One random Pauli on each trial with >= 1 fault in ``move_ops`` ops."""
        pm = self.errors.movement
        if pm == 0.0 or move_ops <= 0:
            return
        # P(Binomial(move_ops, pm) > 0), without cancellation at tiny pm.
        p = 1.0 if pm == 1.0 else -math.expm1(move_ops * math.log1p(-pm))
        hit = self._hits(frames.x.shape[0], p, active)
        if hit.size:
            self._random_1q(frames, qubit, hit)

    # ------------------------------------------------------------------
    # Program execution

    def run_program(
        self,
        program: CompiledProtocol,
        frames: BatchFrames,
        active: np.ndarray,
        measure_flips: Optional[Dict[str, np.ndarray]] = None,
        moves_per_qubit_per_gate: float = 0.0,
    ) -> Dict[str, np.ndarray]:
        """Execute a compiled program over the batch.

        Gates propagate ideally, then inject stochastic errors; per-gate
        movement is charged to each involved qubit before the gate. A
        classically conditioned gate fires, per trial, when its condition
        bit's *flip* column is set — trials whose condition is 0 skip the
        gate entirely, movement charge included, exactly like the scalar
        engine's skip rule. Measurement flip columns are written into
        ``measure_flips`` keyed by result-bit name; measured qubits clear.
        Trials where ``active`` is False are untouched.

        Returns the flip-column dict (the ``measure_flips`` argument when
        given, else a fresh dict).
        """
        if program.num_qubits > frames.x.shape[1]:
            raise ValueError(
                f"program addresses {program.num_qubits} qubits, frames "
                f"have {frames.x.shape[1]}"
            )
        with _span("protocol.frames", trials=frames.x.shape[0],
                   gates=program.num_gates):
            return self._run_program_body(
                program, frames, active, measure_flips,
                moves_per_qubit_per_gate,
            )

    def _run_program_body(
        self,
        program: CompiledProtocol,
        frames: BatchFrames,
        active: np.ndarray,
        measure_flips: Optional[Dict[str, np.ndarray]],
        moves_per_qubit_per_gate: float,
    ) -> Dict[str, np.ndarray]:
        flips = measure_flips if measure_flips is not None else {}
        moves = int(round(moves_per_qubit_per_gate))
        n = frames.x.shape[0]
        x, z = frames.x, frames.z
        ops, q0s, q1s = program.ops, program.q0, program.q1
        conds, results = program.cond, program.result
        bit_names = program.bit_names
        # Flip columns indexed by interned bit id; bits never written stay
        # None and read as all-zero (the scalar `flips.get(cond, 0)` rule).
        bit_cols: List[Optional[np.ndarray]] = [None] * program.num_bits
        p_meas = self.errors.measurement
        for i in range(program.num_gates):
            cid = conds[i]
            if cid < 0:
                mask = active
            else:
                col = bit_cols[cid]
                if col is None:
                    continue  # condition never measured: 0 in every trial
                mask = active & (col != 0)
                if not mask.any():
                    continue
            op = ops[i]
            q = q0s[i]
            if moves:
                self._inject_movement(frames, q, mask, moves)
                if op in _TWO_QUBIT_OPS:
                    self._inject_movement(frames, q1s[i], mask, moves)
            mask8 = mask.astype(np.uint8)
            if op == OP_PREP:
                keep = 1 - mask8
                x[:, q] &= keep
                z[:, q] &= keep
                self._inject_1q(frames, q, mask, prep=True)
            elif op == OP_H:
                diff = (x[:, q] ^ z[:, q]) & mask8
                x[:, q] ^= diff
                z[:, q] ^= diff
                self._inject_1q(frames, q, mask, prep=False)
            elif op == OP_S:
                z[:, q] ^= x[:, q] & mask8
                self._inject_1q(frames, q, mask, prep=False)
            elif op == OP_CX:
                t = q1s[i]
                x[:, t] ^= x[:, q] & mask8
                z[:, q] ^= z[:, t] & mask8
                self._inject_2q(frames, q, t, mask)
            elif op == OP_CZ:
                b = q1s[i]
                z[:, b] ^= x[:, q] & mask8
                z[:, q] ^= x[:, b] & mask8
                self._inject_2q(frames, q, b, mask)
            elif op == OP_SWAP:
                b = q1s[i]
                diff = (x[:, q] ^ x[:, b]) & mask8
                x[:, q] ^= diff
                x[:, b] ^= diff
                diff = (z[:, q] ^ z[:, b]) & mask8
                z[:, q] ^= diff
                z[:, b] ^= diff
                self._inject_2q(frames, q, b, mask)
            elif op == OP_FAULT_1Q:
                self._inject_1q(frames, q, mask, prep=False)
            elif op == OP_FAULT_2Q:
                self._inject_2q(frames, q, q1s[i], mask)
            else:  # OP_MEASURE_Z / OP_MEASURE_X
                basis = x[:, q] if op == OP_MEASURE_Z else z[:, q]
                col = basis & mask8  # a fresh column, safe to flip in place
                if p_meas > 0.0:
                    col[self._hits(n, p_meas, mask)] ^= 1
                bit_cols[results[i]] = col
                flips[bit_names[results[i]]] = col
                # Measurement collapses the qubit; its frame is consumed.
                keep = 1 - mask8
                x[:, q] &= keep
                z[:, q] &= keep
        return flips

    def run_circuit(
        self,
        circuit: Circuit,
        frames: BatchFrames,
        qubit_map: Optional[Dict[int, int]] = None,
        active: Optional[np.ndarray] = None,
        measure_flips: Optional[Dict[str, np.ndarray]] = None,
        moves_per_qubit_per_gate: float = 0.0,
    ) -> Dict[str, np.ndarray]:
        """Lower (memoized) and execute a circuit over the batch."""
        if active is None:
            active = np.ones(frames.x.shape[0], dtype=bool)
        return self.run_program(
            compile_protocol(circuit, qubit_map),
            frames,
            active,
            measure_flips=measure_flips,
            moves_per_qubit_per_gate=moves_per_qubit_per_gate,
        )

    def apply_correction(self, frames: BatchFrames, block: Sequence[int],
                         bits: np.ndarray, pauli: str) -> None:
        """Decode measured Steane helper bits and correct ``block``.

        ``bits`` is the ``(trials, 7)`` helper readout; its table decode
        is applied as ``pauli`` (``"X"`` or ``"Z"``), and each applied
        correction gate can itself fail, as in the scalar engine.
        """
        correction = STEANE_DECODE[steane_syndrome_keys(bits)]
        blk = list(block)
        target = frames.x if pauli == "X" else frames.z
        target[:, blk] ^= correction
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


#: Trials per batch in :func:`run_batches`, so memory stays modest at
#: huge trial counts.
BATCH_TRIALS = 200_000


def run_batches(
    trials: int, run_batch: Callable[[int], MonteCarloResult]
) -> MonteCarloResult:
    """Run ``trials`` trials as batches of at most :data:`BATCH_TRIALS`.

    ``run_batch(n)`` runs ``n`` trials and returns their counts; the
    batches run in order, so a seeded simulator it closes over gives the
    same totals on every run.
    """
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    total = MonteCarloResult()
    remaining = trials
    while remaining > 0:
        batch = min(remaining, BATCH_TRIALS)
        total = total.merge(run_batch(batch))
        remaining -= batch
    return total


# ----------------------------------------------------------------------
# Steane [[7,1,3]] decode tables and batched grading helpers. Shared by
# every driver that grades an encoded block (Figure 4 strategies, the
# pi/8 ancilla protocol).

#: Decode table: 3-bit syndrome (as integer, bit i = parity-check row i)
#: -> 7-bit correction row. Index 0 is the zero correction.
STEANE_DECODE = np.zeros((8, 7), dtype=np.uint8)
for _q in range(7):
    _bits = HAMMING_PARITY_CHECK[:, _q]
    _key = int(_bits[0]) | (int(_bits[1]) << 1) | (int(_bits[2]) << 2)
    STEANE_DECODE[_key, _q] = 1

STEANE_H_T = HAMMING_PARITY_CHECK.T.astype(np.uint8)

#: All eight X-stabilizer rowspace words, packed as 7-bit integers.
_ROWSPACE_LOOKUP = np.zeros(128, dtype=bool)
for _a in range(2):
    for _b in range(2):
        for _c in range(2):
            _word = (
                _a * HAMMING_PARITY_CHECK[0]
                + _b * HAMMING_PARITY_CHECK[1]
                + _c * HAMMING_PARITY_CHECK[2]
            ) % 2
            _ROWSPACE_LOOKUP[int(np.packbits(_word, bitorder="little")[0])] = True


def in_stabilizer_rowspace(residual: np.ndarray) -> np.ndarray:
    """Row-wise membership of (rows, 7) bit patterns in the rowspace."""
    packed = np.packbits(residual, axis=1, bitorder="little")[:, 0]
    return _ROWSPACE_LOOKUP[packed]


def steane_syndrome_keys(bits: np.ndarray) -> np.ndarray:
    """3-bit syndrome of each (rows, 7) bit pattern, packed to 0..7."""
    syndrome = (bits @ STEANE_H_T) % 2
    return syndrome[:, 0] | (syndrome[:, 1] << 1) | (syndrome[:, 2] << 2)


def steane_grade_bad(frames: BatchFrames, block: Sequence[int]) -> np.ndarray:
    """Uncorrectable-residual mask (logical X or logical Z content).

    A residual is bad iff, after the table decode of its syndrome, the
    zero-syndrome remainder is outside the stabilizer row space. With the
    full 8-entry decode table, the remainder always has zero syndrome,
    and membership is tested against precomputed cosets. Agrees with the
    scalar :meth:`repro.codes.css.CssCode.is_uncorrectable` bit for bit
    (checked by the test suite on random patterns).
    """
    blk = list(block)
    bad = np.zeros(frames.x.shape[0], dtype=bool)
    for err in (frames.x[:, blk], frames.z[:, blk]):
        keys = steane_syndrome_keys(err)
        residual = (err ^ STEANE_DECODE[keys]).astype(np.uint8)
        bad |= ~in_stabilizer_rowspace(residual)
    return bad
