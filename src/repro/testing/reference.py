"""The reference dataflow loop: the oracle the production engines match.

:func:`run_reference` is the per-gate-object walk of the
dataflow model in :mod:`repro.arch.simulator`: one Python iteration per
:class:`~repro.circuits.gate.Gate`, every ancilla taken through the
supply's per-gate ``acquire``. It is the executable specification —
:meth:`DataflowSimulator.run <repro.arch.simulator.DataflowSimulator.run>`
and :func:`repro.arch.batched.simulate_batch` must reproduce its
:class:`~repro.arch.simulator.SimulationResult` exactly (float equality,
not approximation), and the equivalence suites assert that. No
production path calls it.

:func:`evaluate_reference` is the same oracle one level up: design
points canonicalized and lowered exactly as the
:class:`~repro.explore.evaluator.Evaluator` does, then each run through
:func:`run_reference` — what the evaluator, the sweeps and the server
must reproduce.
"""

from __future__ import annotations

from collections import OrderedDict
from heapq import heapify, heapreplace
from typing import Dict, List, Optional, Sequence

from repro.arch.architectures import CqlaConfig, teleport_latency
from repro.arch.simulator import (
    ZEROS_PER_QEC,
    DataflowSimulator,
    SimulationResult,
)
from repro.arch.supply import PI8, ZERO
from repro.circuits.gate import PI8_CONSUMING_GATES
from repro.explore.evaluator import (
    Evaluation,
    KernelSummary,
    _canonicalize,
    _evaluation,
    _lower_point,
)


class _LruCache:
    """LRU residency set over qubit ids.

    Backed by an :class:`~collections.OrderedDict` whose iteration order
    is recency order (oldest first), so eviction pops the front in O(1)
    instead of scanning for the minimum timestamp.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._order: "OrderedDict[int, None]" = OrderedDict()

    def __contains__(self, qubit: int) -> bool:
        return qubit in self._order

    def touch(self, qubit: int) -> Optional[int]:
        """Mark ``qubit`` resident; returns an evicted qubit or None."""
        order = self._order
        if qubit in order:
            order.move_to_end(qubit)
            return None
        evicted = None
        if len(order) >= self.capacity:
            evicted, _ = order.popitem(last=False)
        order[qubit] = None
        return evicted


class _PortBank:
    """Earliest-free teleport port selection via a min-heap.

    Heap entries are ``(free_time, port_index)``; ties resolve to the
    lowest index, matching a first-minimum linear scan over a port list.
    """

    __slots__ = ("_heap",)

    def __init__(self, ports: int) -> None:
        self._heap = [(0.0, i) for i in range(ports)]
        heapify(self._heap)

    def book(self, start: float, duration: float) -> float:
        """Occupy the earliest-free port from ``start``; returns the
        completion time."""
        free, index = self._heap[0]
        begin = start if start > free else free
        end = begin + duration
        heapreplace(self._heap, (end, index))
        return end


def run_reference(sim: DataflowSimulator) -> SimulationResult:
    """Execute ``sim`` via the per-gate-object reference loop.

    Consumes ``sim.supply`` gate by gate through ``acquire``, so rate-
    limited supplies advance exactly as they would under a production
    run of the same simulator.
    """
    tech = sim.tech
    logical = sim._logical
    qec_interact = logical.qec_interaction_latency()
    qubit_free = [0.0] * sim.circuit.num_qubits
    bit_ready: Dict[str, float] = {}
    cache = None
    ports: Optional[_PortBank] = None
    misses = 0
    teleports = 0
    if sim.cqla is not None:
        cache = _LruCache(sim.cqla.cache_size(sim.circuit.num_qubits))
        ports = _PortBank(sim.cqla.ports)
    t_teleport = teleport_latency(tech)
    zeros = 0
    pi8s = 0
    makespan = 0.0
    for gate in sim.circuit:
        qubits = gate.qubits
        start = max(qubit_free[q] for q in qubits)
        if gate.condition is not None:
            start = max(start, bit_ready.get(gate.condition, 0.0))
        # Cache fills: each non-resident operand teleports in through
        # the earliest-free port; dirty evictions teleport out first.
        if cache is not None:
            for q in qubits:
                if q in cache:
                    cache.touch(q)
                    continue
                misses += 1
                evicted = cache.touch(q)
                trips = 1 + (1 if evicted is not None else 0)
                for _ in range(trips):
                    teleports += 1
                    start = ports.book(start, t_teleport)
        # Architecture movement for the gate itself.
        movement = sim.move_2q if gate.is_two_qubit else sim.move_1q
        if movement and not (gate.is_prep or gate.is_measurement):
            if movement >= t_teleport:
                teleports += 1 if not gate.is_two_qubit else 2
            start += movement
        # Ancilla availability.
        home = qubits[0]
        start = max(start, sim.supply.acquire(ZERO, home, ZEROS_PER_QEC, start))
        zeros += ZEROS_PER_QEC
        if gate.gate_type in PI8_CONSUMING_GATES:
            start = max(start, sim.supply.acquire(PI8, home, 1, start))
            pi8s += 1
        finish = start + logical.gate_latency(gate) + qec_interact
        for q in qubits:
            qubit_free[q] = finish
        if gate.result is not None:
            bit_ready[gate.result] = finish
        makespan = max(makespan, finish)
    return SimulationResult(
        makespan_us=makespan,
        gates=len(sim.circuit),
        zero_ancillae_consumed=zeros,
        pi8_ancillae_consumed=pi8s,
        cache_misses=misses,
        teleports=teleports,
    )


def evaluate_reference(
    analysis,
    points: Sequence[Dict[str, object]],
    cqla: Optional[CqlaConfig] = None,
) -> List[Evaluation]:
    """Evaluate design points on the reference loop.

    Each point is canonicalized and lowered exactly as
    ``Evaluator(analysis=analysis, cqla=cqla)`` would, then simulated by
    :func:`run_reference` on a fresh supply.
    """
    summary = KernelSummary.from_analysis(analysis)
    out = []
    for point in points:
        canonical = _canonicalize(point, cqla, allow_recharacterize=False)
        lowered = _lower_point(summary, canonical)
        sim = DataflowSimulator(
            summary.circuit,
            summary.tech,
            supply=lowered.supply,
            movement_penalty_us=lowered.move_1q,
            two_qubit_movement_penalty_us=lowered.move_2q,
            cqla=lowered.cqla,
        )
        out.append(_evaluation(summary, canonical, lowered, run_reference(sim)))
    return out
