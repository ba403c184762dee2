"""Monte Carlo error simulation (paper Section 2.2).

Errors are injected independently at every gate and movement operation and
propagated through the circuit via Pauli-frame conjugation. One-qubit gate
errors are uniform over {X, Y, Z}; two-qubit gate errors are uniform over
the fifteen non-identity two-qubit Paulis (so correlated errors straddling
both qubits occur, which is what makes single faults during encoding able to
defeat a distance-3 code).

Faults are sampled by geometric gaps, not one draw per opportunity. The
simulator keeps one countdown per fault kind (gate, movement op, readout):
the number of fault-free opportunities left before that kind's next fault,
drawn from ``rng.geometric(p) - 1`` and drawn again each time it fires.
Gaps are memoryless, so this is the same distribution as an independent
Bernoulli(p) per opportunity (the sparse-sampling technique of Stim,
Gidney 2021). At the paper's rates almost every sub-circuit then runs
fault-free on a clean frame; :meth:`MonteCarloSimulator.run_circuit`
detects that from the clocks and per-circuit opportunity counts, and
advances the clocks without walking the gates.
:meth:`MonteCarloSimulator.estimate` does the same for whole trials: a
run of trials no clock fires in is recorded and skipped at once.

Protocols (in :mod:`repro.ancilla.evaluation`) drive the simulator: they run
circuits, read measurement flip bits, make accept/discard decisions and
grade the surviving output block.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, NamedTuple, Optional, Tuple

import numpy as np

from repro.circuits import Circuit
from repro.circuits.gate import Gate
from repro.error.pauli import PauliFrame
from repro.error.propagation import measurement_flipped, propagate_gate
from repro.obs.trace import span as _span
from repro.tech import ErrorRates

_ONE_QUBIT_PAULIS = ("X", "Y", "Z")
_TWO_QUBIT_PAULIS = tuple(
    (a, b)
    for a in ("I", "X", "Y", "Z")
    for b in ("I", "X", "Y", "Z")
    if not (a == "I" and b == "I")
)


#: The gap of a fault kind whose probability is zero: it never fires.
_NEVER = math.inf

#: Where a fault-free probe's clocks start: beyond any trial's opportunities.
_PROBE_CLOCK = 1 << 62


class _MappedCircuit(NamedTuple):
    """A circuit's gates under one qubit map, with its fault opportunities.

    The counts cover the gates a run executes when no measurement flips:
    every gate except the classically conditioned ones.
    """

    gates: Tuple[Gate, ...]
    gate_ops: int  # gate-error opportunities (non-measurement gates)
    qubit_moves: int  # qubits touched; each pays the run's move ops
    readouts: int  # readout-error opportunities (measurements)
    zero_flips: Dict[str, int]  # the flips of a fault-free run on a clean frame


_REMAP_CACHE: "weakref.WeakKeyDictionary[Circuit, Dict[tuple, _MappedCircuit]]" = (
    weakref.WeakKeyDictionary()
)


def _mapped_gates(circuit: Circuit, qubit_map: Dict[int, int]) -> _MappedCircuit:
    """The circuit's gates with qubits remapped, and their fault
    opportunities, memoized per (circuit, map).

    Protocols run the same sub-circuit at the same register offset for
    every Monte Carlo trial; rebuilding a mapped ``Gate`` per gate per
    trial dominated injection cost. The cache key includes the gate count
    (circuits are append-only by convention) and the map items; entries
    die with their circuit.
    """
    key = (len(circuit), tuple(sorted(qubit_map.items())))
    per_circuit = _REMAP_CACHE.get(circuit)
    if per_circuit is None:
        per_circuit = {}
        _REMAP_CACHE[circuit] = per_circuit
    mapped = per_circuit.get(key)
    if mapped is None:
        gates = tuple(
            Gate(
                gate.gate_type,
                tuple(qubit_map.get(q, q) for q in gate.qubits),
                angle_k=gate.angle_k,
                condition=gate.condition,
                result=gate.result,
            )
            for gate in circuit
        )
        always = [gate for gate in gates if gate.condition is None]
        measured = [gate for gate in always if gate.is_measurement]
        mapped = _MappedCircuit(
            gates=gates,
            gate_ops=len(always) - len(measured),
            qubit_moves=sum(len(gate.qubits) for gate in always),
            readouts=len(measured),
            zero_flips={gate.result: 0 for gate in measured},
        )
        per_circuit[key] = mapped
    return mapped


class TrialOutcome(Enum):
    """Result of one Monte Carlo trial of a preparation protocol."""

    GOOD = "good"
    BAD = "bad"  # accepted output carries an uncorrectable error
    DISCARDED = "discarded"  # verification rejected the attempt


@dataclass
class MonteCarloResult:
    """Aggregated Monte Carlo statistics.

    ``error_rate`` is failures over *accepted* trials, matching the paper's
    convention: discarded ancillae are recycled, not counted as errors.
    """

    trials: int = 0
    good: int = 0
    bad: int = 0
    discarded: int = 0

    def record(self, outcome: TrialOutcome, count: int = 1) -> None:
        self.trials += count
        if outcome is TrialOutcome.GOOD:
            self.good += count
        elif outcome is TrialOutcome.BAD:
            self.bad += count
        else:
            self.discarded += count

    @property
    def accepted(self) -> int:
        return self.good + self.bad

    @property
    def error_rate(self) -> float:
        if self.accepted == 0:
            return 0.0
        return self.bad / self.accepted

    @property
    def discard_rate(self) -> float:
        if self.trials == 0:
            return 0.0
        return self.discarded / self.trials

    def error_rate_interval(self, z: float = 1.96) -> tuple:
        """Wilson score interval for the error rate."""
        n = self.accepted
        if n == 0:
            return (0.0, 1.0)
        p = self.error_rate
        denom = 1 + z * z / n
        center = (p + z * z / (2 * n)) / denom
        half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
        return (max(0.0, center - half), min(1.0, center + half))

    def merge(self, other: "MonteCarloResult") -> "MonteCarloResult":
        return MonteCarloResult(
            trials=self.trials + other.trials,
            good=self.good + other.good,
            bad=self.bad + other.bad,
            discarded=self.discarded + other.discarded,
        )


class MonteCarloSimulator:
    """Injects and propagates Pauli errors through circuits.

    Args:
        errors: Per-operation error probabilities.
        seed: RNG seed; trials are reproducible given a seed.
    """

    def __init__(self, errors: Optional[ErrorRates] = None, seed: int = 0) -> None:
        self.errors = errors or ErrorRates()
        self.rng = np.random.default_rng(seed)
        # Fault clocks: fault-free opportunities left before each kind's
        # next fault (see the module docstring).
        self._gate_gap = self._draw_gap(self.errors.gate)
        self._move_gap = self._draw_gap(self.errors.movement)
        self._readout_gap = self._draw_gap(self.errors.measurement)

    def _clocks(self) -> Tuple[float, float, float]:
        return (self._gate_gap, self._move_gap, self._readout_gap)

    def _draw_gap(self, p: float) -> float:
        if p <= 0.0:
            return _NEVER
        return int(self.rng.geometric(p)) - 1

    # ------------------------------------------------------------------
    # Error injection primitives

    def gate_fault(self) -> bool:
        """Spend one gate-error opportunity; True when it faults."""
        if self._gate_gap:
            self._gate_gap -= 1
            return False
        self._gate_gap = self._draw_gap(self.errors.gate)
        return True

    def _readout_fault(self) -> bool:
        if self._readout_gap:
            self._readout_gap -= 1
            return False
        self._readout_gap = self._draw_gap(self.errors.measurement)
        return True

    def inject_gate_error(self, frame: PauliFrame, gate: Gate) -> None:
        """With probability ``errors.gate``, corrupt the gate's qubits.

        Preparation faults inject only X or Y: a Z error on a fresh |0>
        acts trivially (|0> is a Z eigenstate), so injecting it would
        manufacture fictitious error events.
        """
        if not self.gate_fault():
            return
        if gate.is_two_qubit:
            a, b = gate.qubits
            pa, pb = _TWO_QUBIT_PAULIS[self.rng.integers(len(_TWO_QUBIT_PAULIS))]
            frame.apply_pauli(a, pa)
            frame.apply_pauli(b, pb)
        elif gate.is_prep:
            q = gate.qubits[0]
            frame.apply_pauli(q, ("X", "Y")[self.rng.integers(2)])
        else:
            q = gate.qubits[0]
            frame.apply_pauli(q, _ONE_QUBIT_PAULIS[self.rng.integers(3)])

    def inject_movement_error(
        self, frame: PauliFrame, qubit: int, move_ops: int
    ) -> None:
        """Inject errors for ``move_ops`` movement operations on one qubit.

        Each movement op independently corrupts the qubit with probability
        ``errors.movement``; the movement clock skips straight to the
        faulting ops, since move counts can be large and rates tiny.
        """
        if move_ops <= 0:
            return
        gap = self._move_gap
        while gap < move_ops:
            frame.apply_pauli(qubit, _ONE_QUBIT_PAULIS[self.rng.integers(3)])
            move_ops -= gap + 1
            gap = self._draw_gap(self.errors.movement)
        self._move_gap = gap - move_ops

    # ------------------------------------------------------------------
    # Circuit execution

    def run_circuit(
        self,
        circuit: Circuit,
        frame: PauliFrame,
        qubit_map: Optional[Dict[int, int]] = None,
        moves_per_qubit_per_gate: float = 0.0,
    ) -> Dict[str, int]:
        """Run a circuit over an existing frame, injecting errors.

        Gates execute in order: first the ideal conjugation, then stochastic
        error injection. Measurement flip bits (whether the pending error
        flips the ideal outcome) are returned keyed by result-bit name.
        Classically conditioned gates fire when their condition bit's *flip*
        is set — appropriate for syndrome-driven corrections whose ideal
        outcome is the zero syndrome.

        When the frame is clean and no fault clock fires within the
        circuit's opportunities, the gate walk is skipped: preparations
        and measurements would clear qubits that are already clear, every
        flip is zero and no conditional gate fires, so advancing the
        clocks by the circuit's counts is exact.

        Args:
            circuit: Circuit to execute.
            frame: Frame over the full simulation register (mutated).
            qubit_map: Maps circuit-local qubit indices into frame indices.
            moves_per_qubit_per_gate: Average movement ops charged to each
                involved qubit around each gate (a coarse layout proxy used
                when no explicit schedule is attached).
        """
        # The mapped gate list and its opportunity counts are a pure
        # function of (circuit, map) — built once and replayed per trial.
        mapped = _mapped_gates(circuit, qubit_map or {})
        move_ops = int(round(moves_per_qubit_per_gate))
        moves = move_ops * mapped.qubit_moves
        if (
            self._gate_gap >= mapped.gate_ops
            and self._move_gap >= moves
            and self._readout_gap >= mapped.readouts
            and frame.is_identity()
        ):
            self._gate_gap -= mapped.gate_ops
            self._move_gap -= moves
            self._readout_gap -= mapped.readouts
            return dict(mapped.zero_flips)
        flips: Dict[str, int] = {}
        for gate in mapped.gates:
            if gate.condition is not None and not flips.get(gate.condition, 0):
                continue
            if move_ops:
                for q in gate.qubits:
                    self.inject_movement_error(frame, q, move_ops)
            propagate_gate(frame, gate)
            if gate.is_measurement:
                flipped = measurement_flipped(frame, gate)
                if self._readout_fault():
                    flipped = not flipped
                flips[gate.result] = int(flipped)
                # Measurement collapses the qubit; its frame is consumed.
                frame.clear(gate.qubits[0])
            else:
                self.inject_gate_error(frame, gate)
        return flips

    def estimate(
        self,
        trial: Callable[["MonteCarloSimulator"], TrialOutcome],
        trials: int,
    ) -> MonteCarloResult:
        """Run a protocol trial function repeatedly and aggregate.

        Contract: a trial starts from a fresh frame, keeps no state
        between trials except through the simulator, and touches
        ``sim.rng`` only after a fault fires. A trial in which no fault
        clock fires then spends a fixed number of gate, movement and
        readout opportunities and returns a fixed outcome, so runs of
        such trials are skipped whole: one probe run (on a simulator
        whose clocks never fire and which has no RNG) records that
        fault-free cost and outcome, and each skip records the outcome
        and advances the clocks by the cost times the trials skipped.
        The clocks and the RNG stream end exactly where running every
        trial would leave them. Only trials a clock fires in are run;
        the span's ``replayed`` attribute counts them.
        """
        if trials <= 0:
            raise ValueError(f"trials must be positive, got {trials}")
        result = MonteCarloResult()
        left = trials
        replayed = 0
        with _span("mc.estimate", trials=trials) as sp:
            probe = _FaultFreeProbe(self.errors)
            clean = trial(probe)
            costs = [_PROBE_CLOCK - gap for gap in probe._clocks()]
            while True:
                clocks = self._clocks()
                skip = min(
                    [left]
                    + [
                        gap // cost
                        for gap, cost in zip(clocks, costs)
                        if cost and gap != _NEVER
                    ]
                )
                if skip:
                    result.record(clean, skip)
                    self._gate_gap, self._move_gap, self._readout_gap = (
                        gap - skip * cost for gap, cost in zip(clocks, costs)
                    )
                    left -= skip
                if not left:
                    break
                result.record(trial(self))
                left -= 1
                replayed += 1
            sp.set(replayed=replayed)
        return result


class _NoRng:
    """A fault-free probe's RNG: using it breaks the contract of
    :meth:`MonteCarloSimulator.estimate`."""

    def __getattr__(self, name: str):
        raise RuntimeError(
            "a Monte Carlo trial used sim.rng before any fault fired; "
            "estimate() requires trials to draw only after a fault"
        )


class _FaultFreeProbe(MonteCarloSimulator):
    """Runs one trial with no fault: its clocks never fire, it has no RNG."""

    def __init__(self, errors: ErrorRates) -> None:
        self.errors = errors
        self.rng = _NoRng()
        self._gate_gap = self._move_gap = self._readout_gap = _PROBE_CLOCK
