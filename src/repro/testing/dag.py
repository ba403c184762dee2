"""Dataflow analysis over circuits: dependency DAG, schedules, critical path.

The gate-by-gate oracle for :func:`repro.circuits.compiled.dataflow_metadata`
(dependency levels) and for kernel analysis's speed-of-data schedule and
critical chain, which compute the same dependencies and schedules over
the compiled operand arrays. Dependencies follow qubit lines (two gates
touching the same qubit are ordered) and classical bits (a conditioned gate depends on the measurement
producing its condition bit).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Sequence, Tuple

from repro.circuits.circuit import Circuit
from repro.circuits.gate import Gate, GateKind
from repro.circuits.latency import LogicalLatencyModel
from repro.tech import TechnologyParams


class LatencyModel(Protocol):
    """Anything that can price a gate in microseconds."""

    def gate_latency(self, gate: Gate) -> float:
        """Latency of executing ``gate``, in microseconds."""
        ...


@dataclass(frozen=True)
class PhysicalLatencyModel:
    """Prices physical gates from technology parameters (Table 1)."""

    tech: TechnologyParams

    def gate_latency(self, gate: Gate) -> float:
        kind = gate.kind
        if kind is GateKind.PREP:
            return self.tech.t_prep
        if kind is GateKind.MEASURE:
            return self.tech.t_meas
        if kind is GateKind.TWO_QUBIT:
            return self.tech.t_2q
        return self.tech.t_1q


@dataclass(frozen=True)
class QecAwareLatency:
    """Gate latency including the data-side QEC interaction that follows.

    The speed-of-data makespan (Table 2 columns 2+3): the qubit is busy
    for the gate plus its QEC step before the next gate can touch it.
    """

    logical: LogicalLatencyModel

    def gate_latency(self, gate: Gate) -> float:
        return self.logical.gate_latency(gate) + self.logical.qec_interaction_latency()


@dataclass(frozen=True)
class ScheduleEntry:
    """One gate's placement in an ASAP schedule."""

    index: int
    gate: Gate
    start: float
    finish: float

    @property
    def duration(self) -> float:
        return self.finish - self.start


class CircuitDag:
    """Dependency DAG of a circuit.

    Nodes are gate indices into ``circuit.gates``; edges run from each gate
    to the next gate on any of its qubit lines and from measurements to the
    gates conditioned on their results.
    """

    def __init__(self, circuit: Circuit) -> None:
        self._circuit = circuit
        n = len(circuit)
        self._succ: List[List[int]] = [[] for _ in range(n)]
        self._pred: List[List[int]] = [[] for _ in range(n)]
        last_on_qubit: Dict[int, int] = {}
        bit_writer: Dict[str, int] = {}
        for i, gate in enumerate(circuit):
            deps = set()
            for q in gate.qubits:
                if q in last_on_qubit:
                    deps.add(last_on_qubit[q])
                last_on_qubit[q] = i
            if gate.condition is not None and gate.condition in bit_writer:
                deps.add(bit_writer[gate.condition])
            if gate.result is not None:
                bit_writer[gate.result] = i
            for d in sorted(deps):
                self._succ[d].append(i)
                self._pred[i].append(d)

    @property
    def circuit(self) -> Circuit:
        return self._circuit

    def predecessors(self, index: int) -> Tuple[int, ...]:
        return tuple(self._pred[index])

    def successors(self, index: int) -> Tuple[int, ...]:
        return tuple(self._succ[index])

    def sources(self) -> Tuple[int, ...]:
        """Gates with no dependencies."""
        return tuple(i for i, p in enumerate(self._pred) if not p)

    def sinks(self) -> Tuple[int, ...]:
        """Gates nothing depends on."""
        return tuple(i for i, s in enumerate(self._succ) if not s)

    def levels(self) -> List[int]:
        """Unit-latency ASAP level of every gate (longest path in edges)."""
        level = [0] * len(self._pred)
        for i in range(len(self._pred)):  # indices are already topological
            for p in self._pred[i]:
                level[i] = max(level[i], level[p] + 1)
        return level


def asap_schedule(
    circuit: Circuit, latency: LatencyModel
) -> List[ScheduleEntry]:
    """As-soon-as-possible schedule assuming unlimited parallel hardware.

    Each gate starts as soon as all its dependencies finish. This is the
    "speed of data" execution model: the schedule length is limited only by
    data dependencies, exactly the paper's Figure 1b.
    """
    dag = CircuitDag(circuit)
    entries: List[Optional[ScheduleEntry]] = [None] * len(circuit)
    for i, gate in enumerate(circuit):
        start = 0.0
        for p in dag.predecessors(i):
            pred_entry = entries[p]
            assert pred_entry is not None  # topological order guarantees this
            start = max(start, pred_entry.finish)
        duration = latency.gate_latency(gate)
        entries[i] = ScheduleEntry(i, gate, start, start + duration)
    return [e for e in entries if e is not None]


def critical_path(circuit: Circuit, latency: LatencyModel) -> float:
    """Length (microseconds) of the data-dependency critical path."""
    schedule = asap_schedule(circuit, latency)
    return max((e.finish for e in schedule), default=0.0)


def critical_path_gates(
    circuit: Circuit, latency: LatencyModel
) -> List[int]:
    """Indices of one maximal-latency chain through the circuit."""
    schedule = asap_schedule(circuit, latency)
    if not schedule:
        return []
    dag = CircuitDag(circuit)
    end = max(schedule, key=lambda e: e.finish)
    chain = [end.index]
    current = end
    while dag.predecessors(current.index):
        preds = dag.predecessors(current.index)
        blocker = max(
            (schedule[p] for p in preds), key=lambda e: e.finish
        )
        # Follow the predecessor that actually gates our start time; if the
        # gate started at 0 with predecessors finishing earlier, any works.
        chain.append(blocker.index)
        current = blocker
    chain.reverse()
    return chain


def schedule_makespan(entries: Sequence[ScheduleEntry]) -> float:
    return max((e.finish for e in entries), default=0.0)
