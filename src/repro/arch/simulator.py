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
limited number of ports and dirty evictions teleporting out. Which
operands miss depends only on the operand sequence and the cache size,
never on timing, so the LRU walk runs once per (circuit, cache size)
(:func:`_cache_schedule`). Port booking runs once per cache
configuration with no ancilla constraint (:func:`_supply_free_walk`): a
point whose ancillae are ready by every gate's supply-free start
returns that walk's makespan, and only a point whose supply binds books
ports itself.

Two production paths execute this model:

* :meth:`DataflowSimulator.run` — one design point, over the
  struct-of-arrays :class:`~repro.circuits.compiled.CompiledCircuit`
  with no per-gate objects: ~0.15-0.22 us per gate (~0.2-0.37 us when
  it books cache ports). Its loops walk only *lean* circuits
  (:attr:`~repro.circuits.compiled.CompiledCircuit.lean`), as every
  kernel is; other gate shapes run as a one-column numpy kernel pass,
  and only without a cache (CQLA refuses them).
* :func:`repro.arch.batched.simulate_batch` — a whole *sweep* of design
  points in one vectorized pass over dependency levels; it sends small
  groups, and every CQLA point, to :meth:`~DataflowSimulator.run`.

Both read a supply only through its ``ready_spec()`` (see
:class:`~repro.arch.supply.AncillaSupply`) and lower it through the
functions here: :func:`lowerable_spec` classifies it, :func:`lower_ready`
turns a group of specs into one ready time per gate and point, and
:func:`commit_draws` records the consumption afterwards. Both are
bit-identical to the per-gate-object reference loop, the test oracle
:func:`repro.testing.reference.run_reference`: the equivalence suites
assert exact equality of every :class:`SimulationResult` field.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from dataclasses import dataclass
from heapq import heapreplace
from itertools import repeat
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.trace import span as _span

from repro.arch.architectures import CqlaConfig, teleport_latency
from repro.arch.supply import (
    PI8,
    ZERO,
    AncillaSupply,
    DedicatedKindSpec,
    InfiniteSupply,
    ReadySpec,
    SteadyKindSpec,
)
from repro.circuits import Circuit
from repro.circuits.compiled import CompiledCircuit, compile_circuit
from repro.circuits.latency import LogicalLatencyModel
from repro.tech import ION_TRAP, TechnologyParams

#: Encoded zeros per QEC step (bit + phase correction).
ZEROS_PER_QEC = 2


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


@dataclass(frozen=True, eq=False)
class _CacheSchedule:
    """Per-gate teleport trips implied by LRU residency: which operands
    miss, and whether each miss evicts, depends only on the operand
    sequence and the cache size, never on timing."""

    trips: List[int]  # bookings gate i performs (0 for full hits)
    misses: int
    teleports: int  # total bookings == sum(trips)


_SCHEDULE_CACHE: "weakref.WeakKeyDictionary[CompiledCircuit, Dict[int, _CacheSchedule]]" = (
    weakref.WeakKeyDictionary()
)


def _cache_schedule(cc: CompiledCircuit, cache_size: int) -> _CacheSchedule:
    """The LRU walk of ``cc``'s operands at ``cache_size``, timing-free:
    each non-resident operand is one miss and one trip, plus one trip
    when it evicts a resident qubit (the dirty copy teleports out)."""
    per_cc = _SCHEDULE_CACHE.setdefault(cc, {})
    schedule = per_cc.get(cache_size)
    if schedule is not None:
        return schedule
    # Resident qubits in recency order, oldest first.
    resident: "OrderedDict[int, None]" = OrderedDict()
    trips = [0] * cc.num_gates
    misses = 0
    total = 0
    for i, (a, b, c) in enumerate(zip(cc.q0, cc.q1, cc.q2)):
        q = a
        while q >= 0:
            if q in resident:
                resident.move_to_end(q)
            else:
                misses += 1
                k = 1
                if len(resident) >= cache_size:
                    resident.popitem(last=False)
                    k = 2
                resident[q] = None
                trips[i] += k
                total += k
            q = b if q == a else (c if q == b else -1)
    per_cc[cache_size] = schedule = _CacheSchedule(trips, misses, total)
    return schedule


class _StartLog(list):
    """The ready time of every gate in a supply-free :func:`_run_cache`
    walk: the loop's one ``ready > t`` test per gate appends ``t`` (the
    gate's start before the ready max) and never binds."""

    def __gt__(self, t: float) -> bool:
        self.append(t)
        return False


#: Per circuit: (cache size, ports, t_teleport, move_1q, move_2q, qec)
#: -> (supply-free starts, makespan).
_SUPPLY_FREE: "weakref.WeakKeyDictionary[CompiledCircuit, Dict[tuple, tuple]]" = (
    weakref.WeakKeyDictionary()
)


def _supply_free_walk(
    cc: CompiledCircuit, cache_size: int, ports: int, t_teleport: float,
    move_1q: float, move_2q: float, qec: float,
) -> Tuple[np.ndarray, float]:
    """Each gate's start (float64, before the ready max) and the
    makespan of ``cc``'s cache walk with no ancilla constraint, memoized
    per configuration. A point whose ready times are all ``<=`` these
    starts never trips the walk's strict ``ready > t``, so by induction
    its walk repeats this one float for float."""
    per_cc = _SUPPLY_FREE.setdefault(cc, {})
    key = (cache_size, ports, t_teleport, move_1q, move_2q, qec)
    walk = per_cc.get(key)
    if walk is None:
        log = _StartLog()
        makespan = _run_cache(
            cc, _cache_schedule(cc, cache_size).trips, ports, t_teleport,
            move_1q, move_2q, repeat(log), qec,
        )
        walk = per_cc[key] = (np.array(log), makespan)
    return walk


def movement_teleports(
    cc: CompiledCircuit, move_1q: float, move_2q: float, tech: TechnologyParams
) -> int:
    """Teleports implied by movement penalties alone (no cache traffic):
    a penalty at least as long as a teleport is one per moved operand,
    the reference loop's per-gate rule in closed form."""
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
        equality) with no per-gate objects; a circuit that is not lean
        runs as a one-column numpy kernel pass, and only without a cache.

        Raises:
            TypeError: The supply publishes no lowerable ready spec
                (:func:`lowerable_spec`).
            ValueError: CQLA cache mode on a circuit that is not lean
                (every kernel is lean); the supply is left untouched.
        """
        with _span("simulate.setup"):
            cc = self.compiled
            n = cc.num_gates
            if n == 0:
                return SimulationResult(0.0, 0, 0, 0, 0, 0)
            supply = self.supply
            cqla = self.cqla
            if cqla is not None and not cc.lean:
                raise ValueError(
                    "CQLA cache mode simulates only lean circuits (one or "
                    "two operands per gate, no classical bits, no "
                    "prep/measure); this circuit is not lean"
                )
            qec = self._logical.qec_interaction_latency()
            move_1q = self.move_1q
            move_2q = self.move_2q
            teleports = movement_teleports(cc, move_1q, move_2q, self.tech)
            spec, signature = lowerable_spec(cc, supply)
            ready = None
            if signature != (None, None):
                ready = lower_ready(cc, signature, [spec])
                if cc.lean:
                    ready = ready[:, 0]
                    if cqla is None:
                        ready = ready.tolist()  # plain floats, every bit
            misses = 0
            if cqla is not None:
                cache_size = cqla.cache_size(cc.num_qubits)
                schedule = _cache_schedule(cc, cache_size)
                misses = schedule.misses
                teleports += schedule.teleports
        with _span("simulate.level_walk", gates=n) as walk_span:
            if not cc.lean:
                # Imported here: repro.arch.batched imports this module.
                from repro.arch.batched import _kernel_pass

                makespan = _kernel_pass(cc, 1, move_1q, move_2q, ready, qec)[0]
            elif cqla is not None:
                t_teleport = teleport_latency(self.tech)
                starts, makespan = _supply_free_walk(
                    cc, cache_size, cqla.ports, t_teleport, move_1q, move_2q,
                    qec,
                )
                # ``<=`` under all(): a NaN ready time falls through.
                if ready is None or np.all(ready <= starts):
                    walk_span.set(replayed=1)
                else:
                    makespan = _run_cache(
                        cc, schedule.trips, cqla.ports, t_teleport,
                        move_1q, move_2q, ready.tolist(), qec,
                    )
            else:
                makespan = _run_flat(cc, move_1q, move_2q, ready, qec)
        commit_draws(cc, supply, spec)
        return SimulationResult(
            makespan_us=float(makespan),
            gates=n,
            zero_ancillae_consumed=ZEROS_PER_QEC * n,
            pi8_ancillae_consumed=cc.pi8_count,
            cache_misses=misses,
            teleports=teleports,
        )


# ----------------------------------------------------------------------
# Ready-time lowering, shared by run() and repro.arch.batched.
#
# Under the reference loop every gate draws its ancillae in program
# order: two zeros per gate and one pi/8 per T-type gate, from a global
# pool (steady kinds) or from its home qubit's private generator
# (dedicated kinds). Neither order depends on timing, so the time the
# i-th gate's ancillae exist is a pure function of i and the spec's
# rates and prior consumption: one broadcast division per kind.


@dataclass(frozen=True, eq=False)
class _Draws:
    """The order in which one circuit's gates draw ancillae."""

    #: Steady kinds: the i-th gate's zeros are the ``zero_seq[i]``-th
    #: drawn from the pool.
    zero_seq: np.ndarray  # (gates,) float64: ZEROS_PER_QEC * (1..n)
    pi8_seq: np.ndarray  # (pi8_count,) float64: 1..pi8_count
    #: Dedicated kinds: gate i's zeros bring its home generator's counter
    #: to ``home_zero_rank[i]``.
    home: np.ndarray  # (gates,) intp: q0, where ancillae are acquired
    pi8_home: np.ndarray  # (pi8_count,) intp: home of each pi/8 consumer
    home_zero_rank: np.ndarray  # (gates,) float64
    home_pi8_rank: np.ndarray  # (pi8_count,) float64
    #: Whole-circuit consumption per home qubit (plain int lists, for
    #: DedicatedSupply.advance_per_qubit).
    zero_home_totals: List[int]
    pi8_home_totals: List[int]


_DRAWS: "weakref.WeakKeyDictionary[CompiledCircuit, _Draws]" = (
    weakref.WeakKeyDictionary()
)


def _draws(cc: CompiledCircuit) -> _Draws:
    draws = _DRAWS.get(cc)
    if draws is not None:
        return draws
    zero_count = [0] * cc.num_qubits
    pi8_count = [0] * cc.num_qubits
    home_zero_rank = []
    home_pi8_rank = []
    pi8_home = []
    for a, pi8 in zip(cc.q0, cc.pi8_flag):
        zero_count[a] += ZEROS_PER_QEC
        home_zero_rank.append(zero_count[a])
        if pi8:
            pi8_count[a] += 1
            pi8_home.append(a)
            home_pi8_rank.append(pi8_count[a])
    draws = _Draws(
        zero_seq=ZEROS_PER_QEC
        * np.arange(1, cc.num_gates + 1, dtype=np.float64),
        pi8_seq=np.arange(1, cc.pi8_count + 1, dtype=np.float64),
        home=np.array(cc.q0, dtype=np.intp),
        pi8_home=np.array(pi8_home, dtype=np.intp),
        home_zero_rank=np.array(home_zero_rank, dtype=np.float64),
        home_pi8_rank=np.array(home_pi8_rank, dtype=np.float64),
        zero_home_totals=zero_count,
        pi8_home_totals=pi8_count,
    )
    _DRAWS[cc] = draws
    return draws


Signature = Tuple[Optional[str], Optional[str]]


def lowerable_spec(
    cc: CompiledCircuit, supply: AncillaSupply
) -> Tuple[ReadySpec, Signature]:
    """``supply``'s ready spec and its lowering signature.

    The signature is the ``(zero_mode, pi8_mode)`` pair, each
    ``"steady"``, ``"dedicated"``, or None for a kind irrelevant to this
    circuit (untracked, or pi/8 with no pi/8 gates); specs with equal
    signatures lower together (:func:`lower_ready`), and ``(None, None)``
    constrains nothing.

    Raises:
        TypeError: ``supply`` has no ``ready_spec()``, or its zero or
            pi/8 kind is neither a :class:`SteadyKindSpec` nor a
            :class:`DedicatedKindSpec`.
    """
    ready_spec = getattr(supply, "ready_spec", None)
    if ready_spec is None:
        raise TypeError(
            f"{type(supply).__name__} has no ready_spec(); the dataflow "
            "engines read a supply only through its ReadySpec"
        )
    spec = ready_spec()
    zero_mode = _kind_mode(supply, spec.kind(ZERO))
    pi8_mode = _kind_mode(supply, spec.kind(PI8))
    return spec, (zero_mode, pi8_mode if cc.pi8_count else None)


def _kind_mode(supply: AncillaSupply, kind_spec) -> Optional[str]:
    if kind_spec is None:
        return None
    if isinstance(kind_spec, SteadyKindSpec):
        return "steady"
    if isinstance(kind_spec, DedicatedKindSpec):
        return "dedicated"
    raise TypeError(
        f"{type(supply).__name__}.ready_spec() holds a "
        f"{type(kind_spec).__name__}; the dataflow engines lower only "
        "SteadyKindSpec and DedicatedKindSpec"
    )


def _kind_ready(kind_specs, mode, seq, home, rank) -> np.ndarray:
    """``(draws, points)`` ready times for one kind across ``kind_specs``.

    A zero rate divides to infinity, matching ``acquire``'s starvation
    behavior. Fresh supplies (no prior consumption) skip the add, which
    is bit-exactly a no-op.
    """
    consumed = [k.consumed for k in kind_specs]
    if mode == "steady":
        needed = seq[:, None]
        if any(consumed):
            needed = needed + np.array(consumed, dtype=np.float64)
        rates = np.array([k.rate_per_us for k in kind_specs])
    else:
        # Gathered from (qubits, points) rows: one row per draw.
        needed = rank[:, None]
        if any(map(any, consumed)):
            consumed = np.array(consumed, dtype=np.float64).T
            needed = np.ascontiguousarray(consumed)[home] + needed
        rates = np.array([k.rates_per_us for k in kind_specs], dtype=np.float64)
        rates = np.ascontiguousarray(rates.T)[home]
    with np.errstate(divide="ignore"):
        return needed / rates


def lower_ready(
    cc: CompiledCircuit, signature: Signature, specs: Sequence[ReadySpec]
) -> Optional[np.ndarray]:
    """Gate-major ``(gates, points)`` ancilla-ready times, one column per
    spec of one lowering-signature group (see :func:`lowerable_spec`).

    Kinds may mix modes (e.g. a steady zero pool over dedicated pi/8
    generators): a gate's constraint is the elementwise max of its
    kinds' ready times, the order the reference loop applies them in.
    Returns None when no kind constrains this circuit.
    """
    draws = _draws(cc)
    zero_mode, pi8_mode = signature
    with _span("simulate.ready_lowering", kind=f"{zero_mode}/{pi8_mode}",
               points=len(specs), gates=cc.num_gates):
        ready = None
        if zero_mode is not None:
            ready = _kind_ready(
                [spec.kinds[ZERO] for spec in specs], zero_mode,
                draws.zero_seq, draws.home, draws.home_zero_rank,
            )
        if pi8_mode is not None:
            pi8_ready = _kind_ready(
                [spec.kinds[PI8] for spec in specs], pi8_mode,
                draws.pi8_seq, draws.pi8_home, draws.home_pi8_rank,
            )
            if ready is None:
                ready = np.zeros((cc.num_gates, len(specs)))
            index = cc.pi8_indices
            ready[index] = np.maximum(ready[index], pi8_ready, out=pi8_ready)
    return ready


def commit_draws(
    cc: CompiledCircuit, supply: AncillaSupply, spec: ReadySpec
) -> None:
    """Record on ``supply`` what a gate-by-gate walk of ``cc`` would
    have consumed: aggregate counts for steady kinds, per-home totals for
    dedicated kinds. (The built-in ``advance`` / ``advance_per_qubit``
    skip zero-rate counters, matching ``acquire``'s
    return-inf-without-recording.)"""
    draws = _draws(cc)
    for kind, total, home_totals in (
        (ZERO, ZEROS_PER_QEC * cc.num_gates, draws.zero_home_totals),
        (PI8, cc.pi8_count, draws.pi8_home_totals),
    ):
        kind_spec = spec.kind(kind)
        if isinstance(kind_spec, SteadyKindSpec):
            supply.advance(kind, total)
        elif isinstance(kind_spec, DedicatedKindSpec):
            supply.advance_per_qubit(kind, home_totals)


# ----------------------------------------------------------------------
# Compiled-engine loop bodies, over lean circuits only.
#
# A lean gate has one or two operands, no classical bit, and moves by
# its arity, so one ``b >= 0`` split picks its operand reads and its
# movement penalty. Floating-point evaluation order matches the
# reference loop (:func:`repro.testing.reference.run_reference`)
# exactly (same max chains and additions; adding a zero penalty is
# exact), which makes the engine bit-identical to it. ``supply_ready``
# holds plain floats (None: unconstrained, flat loop only): np.float64
# scalars from an ndarray roughly halve the loops' throughput.


def _run_flat(
    cc: CompiledCircuit,
    move_1q: float,
    move_2q: float,
    supply_ready: Optional[Sequence[float]],
    qec: float,
) -> float:
    """Hot loop without a cache; returns the makespan."""
    qubit_free = [0.0] * cc.num_qubits
    ready_iter = supply_ready if supply_ready is not None else repeat(0.0)
    for a, b, ready, latency in zip(cc.q0, cc.q1, ready_iter, cc.latency_us):
        t = qubit_free[a]
        if b >= 0:
            v = qubit_free[b]
            if v > t:
                t = v
            t += move_2q
            if ready > t:
                t = ready
            qubit_free[a] = qubit_free[b] = t + latency + qec
        else:
            t += move_1q
            if ready > t:
                t = ready
            qubit_free[a] = t + latency + qec
    return max(qubit_free)


def _run_cache(
    cc: CompiledCircuit,
    trips: List[int],
    ports: int,
    t_teleport: float,
    move_1q: float,
    move_2q: float,
    supply_ready: Iterable[float],
    qec: float,
) -> float:
    """Hot loop with CQLA compute-cache modeling; returns the makespan.
    Each gate books its :func:`_cache_schedule` trips on a min-heap of
    ``(free_time, port_index)`` (ties go to the lowest index) after its
    operand reads and before its movement penalty."""
    qubit_free = [0.0] * cc.num_qubits
    # Sorted, hence already a heap.
    heap = [(0.0, i) for i in range(ports)]
    for a, b, k, ready, latency in zip(
        cc.q0, cc.q1, trips, supply_ready, cc.latency_us
    ):
        t = qubit_free[a]
        if b >= 0:
            v = qubit_free[b]
            if v > t:
                t = v
            while k:
                k -= 1
                free, port = heap[0]
                if free > t:
                    t = free
                t += t_teleport
                heapreplace(heap, (t, port))
            t += move_2q
            if ready > t:
                t = ready
            qubit_free[a] = qubit_free[b] = t + latency + qec
        else:
            while k:
                k -= 1
                free, port = heap[0]
                if free > t:
                    t = free
                t += t_teleport
                heapreplace(heap, (t, port))
            t += move_1q
            if ready > t:
                t = ready
            qubit_free[a] = t + latency + qec
    return max(qubit_free)
