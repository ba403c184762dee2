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
(:func:`_cache_schedule`). The walk runs once per configuration (cache
or none) with no ancilla constraint (:func:`_supply_free_walk`): a
point whose ancillae are ready by every gate's supply-free start
returns that walk's makespan, and only a point whose supply binds walks
itself. Each of these, like the ancilla draw order (:func:`_draws`) and
the serial steps (:func:`_ops`), is built once per compiled circuit and
kept in its memo
(:meth:`~repro.circuits.compiled.CompiledCircuit.memoized`).

Two production paths execute this model:

* :meth:`DataflowSimulator.run` — one design point, over the
  struct-of-arrays :class:`~repro.circuits.compiled.CompiledCircuit`
  with no per-gate objects. Its loops walk *steps* (:class:`_Ops`): a
  gate, or a *chain* of consecutive one-qubit gates on one qubit taken
  as one closed-form step, ``max(x + C0, max_j(r_j + C_j))`` over the
  chain's integer latency sums. The closed form is used only when every
  addend is a non-negative integer and an error-free-addition check
  shows that no sum the per-gate walk would form rounds; a chain that
  fails is walked gate by gate, so the result is the same bit for bit.
  A step costs ~0.15-0.25 us (~0.2-0.37 us when it books cache ports),
  plus ~0.05 us of numpy per gate; qft-32's 7,552 gates walk in 1,378
  steps, while qrca and qcla have no chains and walk one step per gate.
  Every gate has one or two operands and no classical bit, the only
  shape :func:`~repro.circuits.compiled.compile_circuit` accepts.
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
    sequence and the cache size, never on timing. Without a cache
    (cache size None) ``trips`` is None."""

    trips: Optional[List[int]]  # bookings gate i performs (0 for full hits)
    misses: int
    teleports: int  # total bookings == sum(trips)


def _cache_schedule(
    cc: CompiledCircuit, cache_size: Optional[int]
) -> _CacheSchedule:
    """The LRU walk of ``cc``'s operands at ``cache_size``, timing-free:
    each non-resident operand is one miss and one trip, plus one trip
    when it evicts a resident qubit (the dirty copy teleports out).
    Read through ``cc.memoized``, like every builder here."""
    if cache_size is None:
        return _CacheSchedule(None, 0, 0)
    # Resident qubits in recency order, oldest first.
    resident: "OrderedDict[int, None]" = OrderedDict()
    trips = [0] * cc.num_gates
    misses = 0
    total = 0
    for i, (a, b) in enumerate(zip(cc.q0, cc.q1)):
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
            q = b if q == a else -1
    return _CacheSchedule(trips, misses, total)


#: Shortest run of one-qubit gates the serial walk takes as one step
#: (:class:`_Ops`). The kernels' runs are bimodal: qrca and qcla have
#: none longer than 3 gates, qft's are 24-25 gates (its rotations) or at
#: most 2. Per point (``run()`` over QLA and steady ladders, medians of
#: 7 interleaved rounds, one 2-core host), at 2 / 3 / 4 / no chains:
#: qrca-32 0.555 / 0.557 / 0.527 / 0.529 ms, qcla-32 0.630 / 0.614 /
#: 0.586 / 0.575 ms, qft-32 0.608 / 0.602 / 0.605 / 1.606 ms. Chains of
#: 2-3 gates cost qrca and qcla 5-10% and gain qft nothing; 4 is the
#: shortest length at which qrca and qcla collapse nothing.
_CHAIN_MIN = 4

#: Every integer below this is a float64: a sum of non-negative
#: integers that stays below it is exact in any order.
_EXACT = 2.0**53


@dataclass(frozen=True, eq=False)
class _Ops:
    """The steps of one serial walk: the gates in program order, with
    every *chain* taken as one step.

    A chain is ``_CHAIN_MIN`` or more consecutive one-qubit gates on one
    qubit ``a`` (in ``a``'s own gate order) that book no cache trips. Its
    step sits at its first gate: no other gate touches ``a`` before its
    last, and it books no port, so moving its later gates up changes no
    other step. Step ``k``'s ``q1`` is the sentinel ``-2 - k`` and its
    ``latency`` is ``C0 = sum(move_1q + latency_j + qec)``. Entered with
    ``x = qubit_free[a]``, the per-gate walk leaves ``a`` at

        ``max(x + C0, max over kept j of (r_j + C_j))``, where
        ``C_j = latency_j + qec
        + sum over k > j of (move_1q + latency_k + qec)``

    (``chain_tail``), where ``r_j`` is gate ``j``'s ready time, kept only
    when ``r_j > s_j``, its supply-free start (:func:`_supply_free_walk`).
    The walk is monotone in ready times (the sorted port-free times
    too), so every real start is ``>= s_j`` and a dropped ``r_j`` never
    binds the strict ``ready > t``. A NaN ``r_j``, which binds nothing,
    sends its chain to the gate-by-gate walk.

    Exactness (the error-free-addition test, Dekker 1971). Chains exist
    only when every addend (each latency, ``qec``, ``move_1q``) is a
    non-negative integer, as for ION_TRAP at code levels 1-3; otherwise
    the steps are the gates. For ``y >= 0`` and an integer ``C`` with
    ``fl(y + C) < 2**53``, ``fl(fl(y + C) - C)`` is exact, so it equals
    ``y`` only when ``y + C`` did not round; and then every ``y + P``
    for integer ``0 <= P <= C`` is a float too. So when the entry
    passes ``(x + C0) - C0 == x`` (checked in the loop), every kept
    candidate passes ``(r_j + C_j) - C_j == r_j`` (checked vectorized,
    :func:`_op_ready`) and the result is below ``2**53``, every partial
    sum the per-gate walk forms is exact: that walk equals the
    real-number max, which is the closed form, bit for bit. A chain
    that fails is walked gate by gate (:class:`_Rewalk`); an inf entry
    or candidate stays inf either way.
    """

    num_qubits: int
    q0: List[int]
    q1: List[int]  # -1: one-qubit gate; -2 - k: chain k
    latency: List[float]
    trips: Optional[List[int]]  # None: no cache
    #: Per step, the gate whose ready time it reads; None when every
    #: step is one gate.
    gate: Optional[np.ndarray] = None
    chain_ops: Optional[np.ndarray] = None  # the step of each chain
    #: Every chain's gates, chain after chain, from chain_offsets[k] to
    #: chain_offsets[k + 1]; chain_tail holds each gate's C_j.
    chain_gates: Optional[np.ndarray] = None
    chain_offsets: Optional[np.ndarray] = None
    chain_tail: Optional[np.ndarray] = None


def _gate_ops(cc: CompiledCircuit, trips: Optional[List[int]]) -> _Ops:
    """One step per gate."""
    return _Ops(cc.num_qubits, cc.q0, cc.q1, cc.latency_us, trips)


def _ops(
    cc: CompiledCircuit, cache_size: Optional[int], move_1q: float, qec: float
) -> _Ops:
    """The serial walk's steps for ``cc`` under the trip schedule at
    ``cache_size``."""
    trips = cc.memoized(_cache_schedule, cache_size).trips
    addends = {move_1q, qec, *cc.latency_us}
    if not all(x >= 0 and float(x).is_integer() for x in addends):
        return _gate_ops(cc, trips)
    # Each qubit's open run of one-qubit gates; a two-qubit gate, or a
    # gate that books cache trips, ends its qubits' runs.
    runs: List[List[int]] = []
    open_runs: Dict[int, List[int]] = {}
    for i, (a, b) in enumerate(zip(cc.q0, cc.q1)):
        if b < 0 and not (trips and trips[i]):
            open_runs.setdefault(a, []).append(i)
            continue
        for q in (a, b):
            run = open_runs.pop(q, None)
            if run is not None:
                runs.append(run)
    runs.extend(open_runs.values())
    chains = sorted(
        (run for run in runs if len(run) >= _CHAIN_MIN), key=lambda run: run[0]
    )
    if not chains:
        return _gate_ops(cc, trips)
    c0: List[float] = []
    tail: List[float] = []
    for run in chains:
        total = 0.0
        run_tail = []
        for j in reversed(run):
            run_tail.append(total + cc.latency_us[j] + qec)
            total += move_1q + cc.latency_us[j] + qec
        c0.append(total)
        tail.extend(reversed(run_tail))
    # Each chain's step sits at its first gate; its other gates go.
    first = {run[0]: k for k, run in enumerate(chains)}
    inside = set().union(*chains)
    kept = [i for i in range(cc.num_gates) if i in first or i not in inside]
    q1 = [-2 - first[i] if i in first else cc.q1[i] for i in kept]
    latency = [c0[first[i]] if i in first else cc.latency_us[i] for i in kept]
    return _Ops(
        num_qubits=cc.num_qubits,
        q0=[cc.q0[i] for i in kept],
        q1=q1,
        latency=latency,
        trips=None if trips is None else [trips[i] for i in kept],
        gate=np.array(kept, dtype=np.intp),
        chain_ops=np.flatnonzero(np.array(q1) <= -2),
        chain_gates=np.array([j for run in chains for j in run], np.intp),
        chain_offsets=np.cumsum([0] + [len(run) for run in chains]),
        chain_tail=np.array(tail),
    )


def _op_ready(ops: _Ops, ready: np.ndarray, starts: np.ndarray) -> List[float]:
    """One ready time per step, as plain floats: a gate's own, or a
    chain's max over its kept candidates of ``r_j + C_j`` (-inf when none
    is kept; ``2**53`` when one rounds or is NaN, which sends the chain
    to its gate-by-gate walk). See :class:`_Ops`."""
    if ops.gate is None:
        return ready.tolist()
    out = ready[ops.gate]
    tail = ops.chain_tail
    r = ready[ops.chain_gates]
    candidate = r + tail
    candidate[candidate - tail != r] = _EXACT
    candidate[r <= starts[ops.chain_gates]] = -np.inf
    out[ops.chain_ops] = np.maximum.reduceat(candidate, ops.chain_offsets[:-1])
    return out.tolist()


class _Rewalk:
    """Walks one chain gate by gate, as the per-gate loop would: the
    fallback for a chain whose closed form might round (:class:`_Ops`).
    ``count`` tallies the chains walked so."""

    def __init__(
        self, ops: _Ops, ready: np.ndarray, latency_us: List[float],
        move_1q: float, qec: float,
    ) -> None:
        self.ops = ops
        self.ready = ready
        self.latency_us = latency_us
        self.move_1q = move_1q
        self.qec = qec
        self.count = 0

    def __call__(self, b: int, t: float, closed_form: float) -> float:
        """Chain ``-2 - b``'s exit, entered at ``t``."""
        if closed_form == float("inf"):
            return closed_form  # inf stays inf through every gate
        self.count += 1
        k = -2 - b
        offsets = self.ops.chain_offsets
        gates = self.ops.chain_gates[offsets[k]:offsets[k + 1]]
        move_1q, qec = self.move_1q, self.qec
        for ready, j in zip(self.ready[gates].tolist(), gates.tolist()):
            t += move_1q
            if ready > t:
                t = ready
            t = t + self.latency_us[j] + qec
        return t


class _StartLog(list):
    """The ready time of every gate in a supply-free walk: the loops'
    one ``ready > t`` test per gate appends ``t`` (the gate's start
    before the ready max) and never binds."""

    def __gt__(self, t: float) -> bool:
        self.append(t)
        return False


def _supply_free_walk(
    cc: CompiledCircuit, cache_size: Optional[int], ports: int,
    t_teleport: float, move_1q: float, move_2q: float, qec: float,
) -> Tuple[np.ndarray, float]:
    """Each gate's start (float64, before the ready max) and the
    makespan of ``cc``'s walk with no ancilla constraint (``cache_size``
    None: no cache; ``ports`` and ``t_teleport`` then go unread),
    memoized per configuration. A point whose ready times are all
    ``<=`` these starts never trips the walk's strict ``ready > t``, so
    by induction its walk repeats this one float for float."""
    log = _StartLog()
    gates = _gate_ops(cc, cc.memoized(_cache_schedule, cache_size).trips)
    if cache_size is None:
        makespan = _run_flat(gates, move_1q, move_2q, repeat(log), qec, None)
    else:
        makespan = _run_cache(
            gates, ports, t_teleport, move_1q, move_2q, repeat(log), qec, None
        )
    return np.array(log), makespan


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
        equality) with no per-gate objects.

        Raises:
            TypeError: The supply publishes no lowerable ready spec
                (:func:`lowerable_spec`).
            ValueError: The circuit has a gate shape
                :func:`~repro.circuits.compiled.compile_circuit` refuses
                (every kernel compiles); the supply is left untouched.
        """
        with _span("simulate.setup"):
            cc = self.compiled
            n = cc.num_gates
            if n == 0:
                return SimulationResult(0.0, 0, 0, 0, 0, 0)
            supply = self.supply
            cqla = self.cqla
            qec = self._logical.qec_interaction_latency()
            move_1q = self.move_1q
            move_2q = self.move_2q
            teleports = movement_teleports(cc, move_1q, move_2q, self.tech)
            spec, signature = lowerable_spec(cc, supply)
            ready = None
            if signature != (None, None):
                ready = lower_ready(cc, signature, [spec])[:, 0]
            cache_size = None
            ports, t_teleport = 0, 0.0
            if cqla is not None:
                cache_size = cqla.cache_size(cc.num_qubits)
                ports, t_teleport = cqla.ports, teleport_latency(self.tech)
            schedule = cc.memoized(_cache_schedule, cache_size)
            teleports += schedule.teleports
        with _span("simulate.level_walk", gates=n) as walk_span:
            starts, makespan = cc.memoized(
                _supply_free_walk,
                cache_size, ports, t_teleport, move_1q, move_2q, qec,
            )
            # ``<=`` under all(): a NaN ready time falls through.
            if ready is None or np.all(ready <= starts):
                walk_span.set(replayed=1, steps=0, rewalked=0)
            else:
                ops = cc.memoized(_ops, cache_size, move_1q, qec)
                rewalk = _Rewalk(ops, ready, cc.latency_us, move_1q, qec)
                op_ready = _op_ready(ops, ready, starts)
                if cqla is None:
                    makespan = _run_flat(
                        ops, move_1q, move_2q, op_ready, qec, rewalk
                    )
                else:
                    makespan = _run_cache(
                        ops, ports, t_teleport, move_1q, move_2q,
                        op_ready, qec, rewalk,
                    )
                walk_span.set(steps=len(ops.q0), rewalked=rewalk.count)
        commit_draws(cc, supply, spec)
        return SimulationResult(
            makespan_us=float(makespan),
            gates=n,
            zero_ancillae_consumed=ZEROS_PER_QEC * n,
            pi8_ancillae_consumed=cc.pi8_count,
            cache_misses=schedule.misses,
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


def _draws(cc: CompiledCircuit) -> _Draws:
    """The order in which ``cc``'s gates draw ancillae."""
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
    return _Draws(
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
    draws = cc.memoized(_draws)
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
    draws = cc.memoized(_draws)
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
# Compiled-engine loop bodies, over the steps (:class:`_Ops`).
#
# A gate has one or two operands and moves by its arity, so one
# ``b >= 0`` split picks its operand reads and its movement penalty;
# ``b < -1`` marks a chain. Floating-point evaluation
# order matches the reference loop
# (:func:`repro.testing.reference.run_reference`) exactly (same max
# chains and additions; adding a zero penalty is exact), and a chain
# step is exact or walked gate by gate, which makes the engine
# bit-identical to it. ``supply_ready`` holds one plain float per step
# (:func:`_op_ready`): np.float64 scalars from an ndarray roughly halve
# the loops' throughput. ``rewalk`` walks a chain whose closed form
# might round (None: the steps hold no chain).


def _run_flat(
    ops: _Ops,
    move_1q: float,
    move_2q: float,
    supply_ready: Iterable[float],
    qec: float,
    rewalk: Optional[_Rewalk],
) -> float:
    """Hot loop without a cache; returns the makespan."""
    qubit_free = [0.0] * ops.num_qubits
    exact = _EXACT
    for a, b, ready, latency in zip(ops.q0, ops.q1, supply_ready, ops.latency):
        t = qubit_free[a]
        if b >= 0:
            v = qubit_free[b]
            if v > t:
                t = v
            t += move_2q
            if ready > t:
                t = ready
            qubit_free[a] = qubit_free[b] = t + latency + qec
        elif b == -1:
            t += move_1q
            if ready > t:
                t = ready
            qubit_free[a] = t + latency + qec
        else:
            s = t + latency
            closed = s - latency == t
            if ready > s:
                s = ready
            qubit_free[a] = s if closed and s < exact else rewalk(b, t, s)
    return max(qubit_free)


def _run_cache(
    ops: _Ops,
    ports: int,
    t_teleport: float,
    move_1q: float,
    move_2q: float,
    supply_ready: Iterable[float],
    qec: float,
    rewalk: Optional[_Rewalk],
) -> float:
    """Hot loop with CQLA compute-cache modeling; returns the makespan.
    Each gate books its :func:`_cache_schedule` trips on a min-heap of
    ``(free_time, port_index)`` (ties go to the lowest index) after its
    operand reads and before its movement penalty; a chain books none."""
    qubit_free = [0.0] * ops.num_qubits
    exact = _EXACT
    # Sorted, hence already a heap.
    heap = [(0.0, i) for i in range(ports)]
    for a, b, k, ready, latency in zip(
        ops.q0, ops.q1, ops.trips, supply_ready, ops.latency
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
        elif b == -1:
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
        else:
            s = t + latency
            closed = s - latency == t
            if ready > s:
                s = ready
            qubit_free[a] = s if closed and s < exact else rewalk(b, t, s)
    return max(qubit_free)
