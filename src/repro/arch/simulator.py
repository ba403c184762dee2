"""Event-based dataflow simulation of kernel execution (Section 5.2).

The simulator walks the decomposed kernel's dependency DAG in program
order (which is topological). Each gate starts once

* its data dependencies have finished,
* its operand qubits are free,
* its ancillae are available from the architecture's supply model
  (two corrected zeros for the QEC step; one pi/8 for T-type gates), and
* any architecture movement (teleports, cache-miss fills) has completed;

it then occupies its qubits for gate latency plus the data/QEC interaction.
CQLA cache behavior follows the paper's sim-cache-style approach: an LRU
set of resident qubits, with misses teleporting qubits in through a
limited number of ports and dirty evictions teleporting out.

Two production paths execute this model:

* :meth:`DataflowSimulator.run` — one design point. It consumes the
  struct-of-arrays :class:`~repro.circuits.compiled.CompiledCircuit`
  form, allocates no per-gate objects, and lowers any supply that
  publishes a declarative ready-time description
  (:func:`~repro.arch.supply.declared_ready_spec`) through its closed
  form — steady-rate kinds (the k-th ancilla exists at ``k / rate``)
  evaluate for the whole circuit in one vectorized pass, dedicated
  per-qubit kinds through the inlined counter loop; spec-less custom
  supplies go through per-gate ``acquire``.
* :func:`repro.arch.batched.simulate_batch` — a whole *sweep* of design
  points (one supply per point) in a single vectorized pass over
  dependency levels, bit-identical to :meth:`~DataflowSimulator.run`
  once per point.

Both are bit-identical to the per-gate-object reference loop, the test
oracle :func:`repro.testing.reference.run_reference` — the equivalence
test suites assert exact equality of every :class:`SimulationResult`
field across kernels and supplies.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from dataclasses import dataclass
from heapq import heapify, heapreplace
from itertools import repeat
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.trace import span as _span

from repro.arch.architectures import (
    ArchitectureKind,
    CqlaConfig,
    teleport_latency,
)
from repro.arch.supply import (
    PI8,
    ZERO,
    AncillaSupply,
    DedicatedKindSpec,
    InfiniteSupply,
    SteadyKindSpec,
    declared_ready_spec,
)
from repro.circuits import Circuit
from repro.circuits.compiled import CompiledCircuit, compile_circuit
from repro.circuits.latency import LogicalLatencyModel
from repro.tech import ION_TRAP, TechnologyParams

#: Encoded zeros per QEC step (bit + phase correction).
ZEROS_PER_QEC = 2

_INF = float("inf")


@dataclass
class SimulationResult:
    """Outcome of one dataflow simulation."""

    makespan_us: float
    gates: int
    zero_ancillae_consumed: int
    pi8_ancillae_consumed: int
    cache_misses: int = 0
    teleports: int = 0

    @property
    def makespan_ms(self) -> float:
        return self.makespan_us / 1000.0


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


def spec_kind_mode(kind_spec) -> Optional[str]:
    """Lowering class of one kind's declarative spec.

    ``None`` (unconstrained), ``"steady"``, ``"dedicated"``, or
    ``"unknown"`` for a foreign spec type neither engine can lower —
    callers must route unknown specs through per-gate ``acquire``.
    """
    if kind_spec is None:
        return None
    if isinstance(kind_spec, SteadyKindSpec):
        return "steady"
    if isinstance(kind_spec, DedicatedKindSpec):
        return "dedicated"
    return "unknown"


def movement_teleports(
    cc: CompiledCircuit, move_1q: float, move_2q: float, tech: TechnologyParams
) -> int:
    """Teleports implied by movement penalties alone (no cache traffic).

    A movement penalty at least as long as a teleport is one (two for
    two-qubit gates, which move both operands) — the accounting rule
    the reference loop applies per gate, evaluated in closed form here
    for both production paths.
    """
    t_teleport = teleport_latency(tech)
    teleports = 0
    if move_1q and move_1q >= t_teleport:
        teleports += cc.one_qubit_moves
    if move_2q and move_2q >= t_teleport:
        teleports += 2 * cc.two_qubit_moves
    return teleports


class DataflowSimulator:
    """Simulates kernel execution under an architecture's constraints.

    Args:
        circuit: Decomposed (encoded-gate-set) kernel circuit.
        tech: Technology parameters.
        supply: Ancilla supply model; defaults to infinite (speed of data).
        movement_penalty_us: Per-gate movement latency added before the
            gate (architecture-dependent; 0 for the pure dataflow bound).
        cqla: When given, enables compute-cache modeling with this config.
        compiled: Optional pre-lowered form of ``circuit`` (from
            :func:`~repro.circuits.compiled.compile_circuit`), letting
            sweeps share one compilation across many simulator instances.
            Compiled lazily on first :meth:`run` when omitted.
    """

    def __init__(
        self,
        circuit: Circuit,
        tech: TechnologyParams = ION_TRAP,
        supply: Optional[AncillaSupply] = None,
        movement_penalty_us: float = 0.0,
        two_qubit_movement_penalty_us: Optional[float] = None,
        cqla: Optional[CqlaConfig] = None,
        compiled: Optional[CompiledCircuit] = None,
    ) -> None:
        self.circuit = circuit
        self.tech = tech
        self.supply = supply if supply is not None else InfiniteSupply()
        self.move_1q = movement_penalty_us
        self.move_2q = (
            two_qubit_movement_penalty_us
            if two_qubit_movement_penalty_us is not None
            else movement_penalty_us
        )
        self.cqla = cqla
        self._logical = LogicalLatencyModel(tech)
        if compiled is not None:
            if (
                not compiled.compiled_from(circuit)
                or compiled.num_gates != len(circuit)
                or compiled.num_qubits != circuit.num_qubits
                or compiled.tech != tech
            ):
                raise ValueError(
                    "compiled circuit does not match this simulator's "
                    f"circuit/tech (compiled {compiled.num_gates} gates under "
                    f"{compiled.tech.name!r}, simulating {len(circuit)} gates "
                    f"under {tech.name!r}); pass compiled=None to recompile"
                )
        self._compiled = compiled

    @property
    def compiled(self) -> CompiledCircuit:
        """The circuit's array form, compiled on first access."""
        if self._compiled is None:
            self._compiled = compile_circuit(self.circuit, self.tech)
        return self._compiled

    def run(self) -> SimulationResult:
        """Execute via the compiled array-form engine.

        Result-identical to the reference loop
        (:func:`repro.testing.reference.run_reference`, exact float
        equality), several times faster: no per-gate object allocation,
        inlined dependency updates, and closed-form steady-rate supply
        queries.
        """
        with _span("simulate.setup"):
            cc = self.compiled
            n = cc.num_gates
            if n == 0:
                return SimulationResult(0.0, 0, 0, 0, 0, 0)
            supply = self.supply
            qec = self._logical.qec_interaction_latency()
            move_1q = self.move_1q
            move_2q = self.move_2q
            teleports = movement_teleports(cc, move_1q, move_2q, self.tech)
            movement = None
            if move_1q or move_2q:
                table = (0.0, move_1q, move_2q)
                movement = [table[k] for k in cc.move_kind]
            spec = declared_ready_spec(supply)
            supply_ready: Optional[List[float]] = None
            zero_spec = pi8_spec = None
            dedicated = False
            generic = None
            if spec is None:
                generic = supply.acquire
            else:
                zero_spec = spec.kind(ZERO)
                pi8_spec = spec.kind(PI8)
                zero_mode = spec_kind_mode(zero_spec)
                pi8_mode = spec_kind_mode(pi8_spec)
                modes = {zero_mode, pi8_mode}
                if "unknown" in modes:
                    # A spec type this engine cannot lower: per-gate
                    # acquire threads state exactly, like any custom
                    # supply.
                    generic = supply.acquire
                    spec = None
                elif "dedicated" in modes and (
                    self.cqla is not None or "steady" in modes
                ):
                    # Per-gate acquire keeps home-qubit counters exact
                    # under cache reordering concerns and mixed
                    # steady/dedicated kinds; state advances in place.
                    generic = supply.acquire
                    spec = None
                elif "dedicated" in modes:
                    dedicated = True
                else:
                    # Steady and/or unconstrained kinds: the whole
                    # circuit's ready times in one closed form. The list
                    # companion of the memoized ready vector: the serial
                    # loops iterate it element by element, and plain
                    # floats are ~2x faster there than np.float64
                    # scalars.
                    supply_ready = _steady_ready_entry(
                        cc, zero_spec, pi8_spec
                    )[1]
        with _span("simulate.level_walk", gates=n):
            if self.cqla is not None:
                makespan, misses, cache_teleports = _run_cache(
                    cc, self.cqla, self.tech, movement, supply_ready, generic,
                    qec
                )
                teleports += cache_teleports
            elif dedicated:
                makespan = _run_dedicated(cc, movement, zero_spec, pi8_spec,
                                          qec)
                misses = 0
            elif generic is not None:
                makespan = _run_generic(cc, movement, generic, qec)
                misses = 0
            else:
                makespan = _run_flat(cc, movement, supply_ready, qec)
                misses = 0
        if spec is not None and not dedicated:
            # Commit the aggregate consumption the lowered run skipped
            # (dedicated lowering mutates the spec's live lists in
            # place, so only steady kinds need an explicit commit).
            advance_zero = isinstance(zero_spec, SteadyKindSpec)
            advance_pi8 = isinstance(pi8_spec, SteadyKindSpec)
            if advance_zero or advance_pi8:
                with _span("simulate.supply_advance"):
                    if advance_zero:
                        supply.advance(ZERO, ZEROS_PER_QEC * n)
                    if advance_pi8:
                        supply.advance(PI8, cc.pi8_count)
        return SimulationResult(
            makespan_us=float(makespan),
            gates=n,
            zero_ancillae_consumed=ZEROS_PER_QEC * n,
            pi8_ancillae_consumed=cc.pi8_count,
            cache_misses=misses,
            teleports=teleports,
        )


# ----------------------------------------------------------------------
# Compiled-engine loop bodies.
#
# Each is a module-level function over plain locals: per-gate work is a
# handful of list index / compare operations and nothing else. Floating-
# point evaluation order matches the reference loop
# (:func:`repro.testing.reference.run_reference`) exactly (same max
# chains, same addition associativity), which is what makes the engine
# bit-identical to it rather than merely approximately equal.


#: Memoized steady-supply ready vectors: per compiled circuit (weak), a
#: small LRU of rates-fingerprint -> ``(read-only ndarray, list)``.
#: Sweeps construct a fresh supply per design point, so within one sweep
#: each fingerprint is computed once; across repeated evaluations of the
#: same point the whole vector is reused. Bounded so pathological rate
#: churn cannot accumulate unbounded float matrices.
#:
#: Both forms are cached because they serve different consumers: the
#: point-batched engine stacks the ndarrays into ready matrices, while
#: the serial loops here iterate element by element — and iterating an
#: ndarray yields np.float64 scalars whose compare/add boxing is ~2x
#: slower than plain floats (the PR 4/5 single-point throughput
#: regression). ``.tolist()`` preserves every float bit, so both
#: consumers stay bit-identical to the reference loop.
_READY_CACHE: "weakref.WeakKeyDictionary[CompiledCircuit, OrderedDict]" = (
    weakref.WeakKeyDictionary()
)
_READY_CACHE_MAX = 128

_ReadyEntry = Tuple[Optional[np.ndarray], Optional[List[float]]]


def _steady_ready_entry(
    cc: CompiledCircuit,
    zero: Optional[SteadyKindSpec],
    pi8: Optional[SteadyKindSpec],
) -> _ReadyEntry:
    """Memoized ``(ndarray, list)`` ready-vector pair for steady specs.

    Consumption order under the reference loop is program order (two
    zeros per gate, one pi/8 per T-type gate), so the time the i-th
    gate's ancillae exist is a pure function of i — computed here for
    the whole circuit in one vectorized pass from the kinds' declarative
    :class:`SteadyKindSpec` forms. A zero-rate kind yields infinity
    (matching ``_RateCounter.acquire``); an unconstrained kind (None)
    contributes no constraint. Returns ``(None, None)`` when no kind
    constrains this circuit.
    """
    n = cc.num_gates
    fingerprint = (
        zero.rate_per_us if zero is not None else None,
        zero.consumed if zero is not None else 0,
        pi8.rate_per_us if pi8 is not None else None,
        pi8.consumed if pi8 is not None else 0,
    )
    per_cc = _READY_CACHE.get(cc)
    if per_cc is None:
        per_cc = OrderedDict()
        _READY_CACHE[cc] = per_cc
    elif fingerprint in per_cc:
        per_cc.move_to_end(fingerprint)
        return per_cc[fingerprint]
    with _span("simulate.ready_vector", gates=n):
        ready = None
        if zero is not None:
            if zero.rate_per_us == 0.0:
                ready = np.full(n, np.inf)
            else:
                consumed = zero.consumed + (
                    ZEROS_PER_QEC * np.arange(1, n + 1, dtype=np.float64)
                )
                ready = consumed / zero.rate_per_us
        if pi8 is not None and cc.pi8_count:
            if pi8.rate_per_us == 0.0:
                pi8_ready = np.full(cc.pi8_count, np.inf)
            else:
                consumed = pi8.consumed + np.arange(
                    1, cc.pi8_count + 1, dtype=np.float64
                )
                pi8_ready = consumed / pi8.rate_per_us
            if ready is None:
                ready = np.zeros(n)
            index = cc.pi8_indices
            ready[index] = np.maximum(ready[index], pi8_ready)
        if ready is not None:
            ready.setflags(write=False)
            entry = (ready, ready.tolist())
        else:
            entry = (None, None)
    per_cc[fingerprint] = entry
    if len(per_cc) > _READY_CACHE_MAX:
        per_cc.popitem(last=False)
    return entry


def _run_flat(
    cc: CompiledCircuit,
    movement: Optional[List[float]],
    supply_ready: Optional[Sequence[float]],
    qec: float,
) -> float:
    """Hot loop for infinite / steady-rate supplies without a cache.

    ``supply_ready`` must be a list of plain floats (the list half of
    :func:`_steady_ready_entry`): iterating an ndarray here yields
    np.float64 scalars whose per-element boxing roughly halves
    throughput, while ``.tolist()`` floats are bit-identical.
    """
    qubit_free = [0.0] * cc.num_qubits
    bits = [0.0] * cc.num_bits
    move_iter = movement if movement is not None else repeat(0.0)
    ready_iter = supply_ready if supply_ready is not None else repeat(0.0)
    for a, b, c, cond, move, ready, latency, result in zip(
        cc.q0, cc.q1, cc.q2, cc.cond_id, move_iter, ready_iter,
        cc.latency_us, cc.result_id,
    ):
        t = qubit_free[a]
        if b >= 0:
            v = qubit_free[b]
            if v > t:
                t = v
            if c >= 0:
                v = qubit_free[c]
                if v > t:
                    t = v
        if cond >= 0:
            v = bits[cond]
            if v > t:
                t = v
        if move:
            t += move
        if ready > t:
            t = ready
        finish = t + latency + qec
        qubit_free[a] = finish
        if b >= 0:
            qubit_free[b] = finish
            if c >= 0:
                qubit_free[c] = finish
        if result >= 0:
            bits[result] = finish
    return max(qubit_free) if qubit_free else 0.0


def _run_dedicated(
    cc: CompiledCircuit,
    movement: Optional[List[float]],
    zero: Optional[DedicatedKindSpec],
    pi8_spec: Optional[DedicatedKindSpec],
    qec: float,
) -> float:
    """Hot loop for per-qubit dedicated generators (the QLA model).

    Counter arithmetic is inlined over the specs' live rate/consumed
    lists (mutated in place, so observable state matches a per-gate
    ``acquire`` walk): availability depends on the consuming gate's home
    qubit, so there is no closed form over gate index alone.
    """
    qubit_free = [0.0] * cc.num_qubits
    bits = [0.0] * cc.num_bits
    move_iter = movement if movement is not None else repeat(0.0)
    zero_rates = zero.rates_per_us if zero is not None else None
    zero_consumed = zero.consumed if zero is not None else None
    pi8_rates = pi8_spec.rates_per_us if pi8_spec is not None else None
    pi8_consumed = pi8_spec.consumed if pi8_spec is not None else None
    for a, b, c, cond, move, pi8, latency, result in zip(
        cc.q0, cc.q1, cc.q2, cc.cond_id, move_iter, cc.pi8_flag,
        cc.latency_us, cc.result_id,
    ):
        t = qubit_free[a]
        if b >= 0:
            v = qubit_free[b]
            if v > t:
                t = v
            if c >= 0:
                v = qubit_free[c]
                if v > t:
                    t = v
        if cond >= 0:
            v = bits[cond]
            if v > t:
                t = v
        if move:
            t += move
        if zero_rates is not None:
            rate = zero_rates[a]
            if rate == 0.0:
                t = _INF
            else:
                zero_consumed[a] += ZEROS_PER_QEC
                v = zero_consumed[a] / rate
                if v > t:
                    t = v
        if pi8 and pi8_rates is not None:
            rate = pi8_rates[a]
            if rate == 0.0:
                t = _INF
            else:
                pi8_consumed[a] += 1
                v = pi8_consumed[a] / rate
                if v > t:
                    t = v
        finish = t + latency + qec
        qubit_free[a] = finish
        if b >= 0:
            qubit_free[b] = finish
            if c >= 0:
                qubit_free[c] = finish
        if result >= 0:
            bits[result] = finish
    return max(qubit_free) if qubit_free else 0.0


def _run_generic(
    cc: CompiledCircuit,
    movement: Optional[List[float]],
    acquire,
    qec: float,
) -> float:
    """Hot loop for arbitrary :class:`AncillaSupply` implementations."""
    qubit_free = [0.0] * cc.num_qubits
    bits = [0.0] * cc.num_bits
    move_iter = movement if movement is not None else repeat(0.0)
    for a, b, c, cond, move, pi8, latency, result in zip(
        cc.q0, cc.q1, cc.q2, cc.cond_id, move_iter, cc.pi8_flag,
        cc.latency_us, cc.result_id,
    ):
        t = qubit_free[a]
        if b >= 0:
            v = qubit_free[b]
            if v > t:
                t = v
            if c >= 0:
                v = qubit_free[c]
                if v > t:
                    t = v
        if cond >= 0:
            v = bits[cond]
            if v > t:
                t = v
        if move:
            t += move
        v = acquire(ZERO, a, ZEROS_PER_QEC, t)
        if v > t:
            t = v
        if pi8:
            v = acquire(PI8, a, 1, t)
            if v > t:
                t = v
        finish = t + latency + qec
        qubit_free[a] = finish
        if b >= 0:
            qubit_free[b] = finish
            if c >= 0:
                qubit_free[c] = finish
        if result >= 0:
            bits[result] = finish
    return max(qubit_free) if qubit_free else 0.0


def _run_cache(
    cc: CompiledCircuit,
    cqla: CqlaConfig,
    tech: TechnologyParams,
    movement: Optional[List[float]],
    supply_ready: Optional[Sequence[float]],
    acquire,
    qec: float,
):
    """Hot loop with CQLA compute-cache modeling.

    Returns ``(makespan, cache_misses, teleports)``. Supply constraints
    come either from a precomputed steady-rate ready list (plain floats,
    as in :func:`_run_flat`) or from per-gate ``acquire`` calls
    (``acquire`` may be None for infinite).
    """
    qubit_free = [0.0] * cc.num_qubits
    bits = [0.0] * cc.num_bits
    cache = _LruCache(cqla.cache_size(cc.num_qubits))
    ports = _PortBank(cqla.ports)
    t_teleport = teleport_latency(tech)
    misses = 0
    teleports = 0
    move_iter = movement if movement is not None else repeat(0.0)
    ready_iter = supply_ready if supply_ready is not None else repeat(0.0)
    for a, b, c, cond, move, ready, pi8, latency, result in zip(
        cc.q0, cc.q1, cc.q2, cc.cond_id, move_iter, ready_iter,
        cc.pi8_flag, cc.latency_us, cc.result_id,
    ):
        t = qubit_free[a]
        if b >= 0:
            v = qubit_free[b]
            if v > t:
                t = v
            if c >= 0:
                v = qubit_free[c]
                if v > t:
                    t = v
        if cond >= 0:
            v = bits[cond]
            if v > t:
                t = v
        q = a
        while q >= 0:
            if q in cache:
                cache.touch(q)
            else:
                misses += 1
                trips = 1 + (1 if cache.touch(q) is not None else 0)
                for _ in range(trips):
                    teleports += 1
                    t = ports.book(t, t_teleport)
            q = b if q == a else (c if q == b else -1)
        if move:
            t += move
        if ready > t:
            t = ready
        if acquire is not None:
            v = acquire(ZERO, a, ZEROS_PER_QEC, t)
            if v > t:
                t = v
            if pi8:
                v = acquire(PI8, a, 1, t)
                if v > t:
                    t = v
        finish = t + latency + qec
        qubit_free[a] = finish
        if b >= 0:
            qubit_free[b] = finish
            if c >= 0:
                qubit_free[c] = finish
        if result >= 0:
            bits[result] = finish
    makespan = max(qubit_free) if qubit_free else 0.0
    return makespan, misses, teleports
