"""Point-batched dataflow simulation: a whole sweep in one numpy pass.

Every headline sweep (Figure 8 throughput curves, Figure 15/16 area
ladders, each ``repro.explore`` round) simulates the same compiled kernel
at many design points differing only in supply rates and movement
penalties. The serial engine in :mod:`repro.arch.simulator` re-walks the
full gate list once per point, so sweep cost is ``points x gates``
interpreted Python. This module carries a leading ``points`` axis
instead: simulator state becomes ``(points, num_qubits)`` /
``(points, num_bits)`` float64 matrices, and the engine walks the
circuit's *dependency levels* (from
:func:`repro.circuits.compiled.dataflow_metadata`) exactly once total —
each level's ready/finish update is a handful of vectorized numpy ops
across all points and all gates of the level at once.

What batches, and why it stays bit-identical:

* **Any supply with a declarative ready spec**
  (:func:`~repro.arch.supply.declared_ready_spec`): each kind's closed
  form lowers to one broadcast division. Steady-rate kinds
  (:class:`~repro.arch.supply.SteadyRateSupply` and its
  :class:`~repro.arch.supply.PooledSupply` alias, or any custom spec
  publisher) stack a ``(points,)`` rate vector into a
  ``(points, gates)`` ready matrix (:func:`steady_ready_matrix`) — the
  same division :func:`~repro.arch.simulator._steady_ready_entry`
  performs per point. Dedicated per-qubit kinds (the QLA model):
  consumption order per home qubit is fixed by the gate sequence alone,
  so per-gate counter values are precomputed home-qubit ranks and
  availability is again one broadcast division
  (:func:`dedicated_ready_matrix`). Supplies whose specs constrain
  nothing (:class:`~repro.arch.supply.InfiniteSupply`, untracked kinds)
  share one column of work.
* **CQLA cache mode**: the LRU miss/eviction pattern depends only on the
  operand sequence and cache size — never on time — so the per-gate
  teleport-trip schedule is precomputed once per (circuit, cache size).
  Port booking couples gates *within* a point (never across points), so
  a program-order walk over a ``(points, ports)`` earliest-free matrix
  replays every point's min-heap ``_PortBank`` exactly, vectorized
  across the sweep (:func:`_run_cqla_lockstep`).

Within a dependency level no two gates share a qubit (a shared qubit is a
dependency edge) and no gate reads a classical bit written in its own
level, so gathering all start times before scattering all finish times
reproduces the serial engine's program-order walk exactly. Every
floating-point operation keeps the serial evaluation order (max chains,
port-booking max/add, then movement add, then supply max, then
``+ latency`` then ``+ qec``), which makes the batched results
**bit-identical** to :meth:`DataflowSimulator.run` and to the reference
loop (:func:`repro.testing.reference.run_reference`) — the equivalence
suite asserts exact float equality, not approximation.

What falls back: only supplies with no honored ready spec — custom
:class:`AncillaSupply` implementations without ``ready_spec()``,
subclasses that override availability/state methods without re-declaring
their spec, and instance-level monkeypatches (see
:func:`~repro.arch.supply.declared_ready_spec`).
:func:`simulate_batch` routes fallback points through a per-point
:class:`DataflowSimulator` transparently — callers never need to
pre-sort their supplies — and reports the per-path point counts
(``unconstrained`` / ``steady`` / ``dedicated`` / ``fallback``) on its
``batched.simulate_batch`` span.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.architectures import CqlaConfig, teleport_latency
from repro.arch.simulator import (
    ZEROS_PER_QEC,
    DataflowSimulator,
    SimulationResult,
    _LruCache,
    movement_teleports,
    spec_kind_mode,
)
from repro.arch.supply import (
    PI8,
    ZERO,
    AncillaSupply,
    DedicatedKindSpec,
    ReadySpec,
    SteadyKindSpec,
    declared_ready_spec,
)
from repro.circuits import Circuit
from repro.circuits.compiled import (
    CompiledCircuit,
    MOVE_NONE,
    MOVE_ONE_QUBIT,
    MOVE_TWO_QUBIT,
    dataflow_metadata,
)
from repro.circuits.latency import LogicalLatencyModel
from repro.obs.trace import span as _span
from repro.tech import ION_TRAP, TechnologyParams

__all__ = [
    "simulate_batch",
    "steady_ready_matrix",
    "dedicated_ready_matrix",
]


# ----------------------------------------------------------------------
# Per-circuit batch arrays (memoized)


@dataclass(frozen=True, eq=False)
class _Level:
    """One dependency level's operand arrays, pre-gathered.

    State matrices are *gate-major* — ``(num_qubits + 1, points)`` — so
    each per-level gather/scatter touches contiguous rows. ``q1``/``q2``
    map absent operands to the dummy qubit row ``num_qubits`` and
    ``cond``/``result`` map absent bits to the dummy bit row
    ``num_bits``; the dummy rows are re-pinned to 0.0 after a level's
    scatters, so a max against them is a no-op and a scatter into them
    is discarded — no per-level boolean masking needed. The ``has_*``
    flags let the kernel skip whole operand classes (second/third
    operands, condition reads, result writes) when a level has none.
    """

    gates: np.ndarray  # gate indices, program order within the level
    q0: np.ndarray
    q1: np.ndarray
    q2: np.ndarray
    cond: np.ndarray
    result: np.ndarray
    latency: np.ndarray  # (k, 1): broadcasts over the points axis
    has_q1: bool
    has_q2: bool
    has_cond: bool
    has_result: bool


@dataclass(frozen=True, eq=False)
class _BatchArrays:
    """Everything the batched kernel needs, built once per compiled form."""

    levels: Tuple[_Level, ...]
    move_kind: np.ndarray  # (gates,) int8: MOVE_* class per gate
    #: Steady-supply cumulative draws: the i-th gate's zeros are the
    #: ``zero_seq[i]``-th ... drawn from the global pool (program order).
    zero_seq: np.ndarray  # (gates,) float64: ZEROS_PER_QEC * (1..n)
    pi8_seq: np.ndarray  # (pi8_count,) float64: 1..pi8_count
    #: Dedicated-supply cumulative draws per home qubit: gate i's zeros
    #: bring its home generator's counter to ``home_zero_rank[i]``.
    home: np.ndarray  # (gates,) intp: q0 — where ancillae are acquired
    pi8_home: np.ndarray  # (pi8_count,) intp: home of each pi/8 consumer
    home_zero_rank: np.ndarray  # (gates,) float64
    home_pi8_rank: np.ndarray  # (pi8_count,) float64
    #: Total per-qubit consumption, for advancing dedicated counters
    #: (plain int lists: consumed by DedicatedSupply.advance_per_qubit).
    zero_home_totals: List[int]
    pi8_home_totals: List[int]


def _build_batch_arrays(cc: CompiledCircuit) -> _BatchArrays:
    n = cc.num_gates
    nq, nb = cc.num_qubits, cc.num_bits
    q0 = np.array(cc.q0, dtype=np.intp)
    q1 = np.array(cc.q1, dtype=np.intp)
    q2 = np.array(cc.q2, dtype=np.intp)
    cond = np.array(cc.cond_id, dtype=np.intp)
    result = np.array(cc.result_id, dtype=np.intp)
    latency = np.array(cc.latency_us, dtype=np.float64)
    # -1 sentinels -> dummy columns.
    q1 = np.where(q1 < 0, nq, q1)
    q2 = np.where(q2 < 0, nq, q2)
    cond = np.where(cond < 0, nb, cond)
    result = np.where(result < 0, nb, result)
    df = dataflow_metadata(cc)
    levels = []
    for lv in range(df.num_levels):
        g = df.level_order[df.level_offsets[lv] : df.level_offsets[lv + 1]]
        levels.append(
            _Level(
                gates=g,
                q0=q0[g],
                q1=q1[g],
                q2=q2[g],
                cond=cond[g],
                result=result[g],
                latency=latency[g][:, None],
                has_q1=bool((q1[g] != nq).any()),
                has_q2=bool((q2[g] != nq).any()),
                has_cond=bool((cond[g] != nb).any()),
                has_result=bool((result[g] != nb).any()),
            )
        )
    zero_count = [0] * nq
    pi8_count = [0] * nq
    home_zero_rank = np.empty(n, dtype=np.float64)
    home_pi8_rank = []
    pi8_home = []
    for i, a in enumerate(cc.q0):
        zero_count[a] += ZEROS_PER_QEC
        home_zero_rank[i] = zero_count[a]
        if cc.pi8_flag[i]:
            pi8_count[a] += 1
            pi8_home.append(a)
            home_pi8_rank.append(pi8_count[a])
    return _BatchArrays(
        levels=tuple(levels),
        move_kind=np.array(cc.move_kind, dtype=np.int8),
        zero_seq=ZEROS_PER_QEC * np.arange(1, n + 1, dtype=np.float64),
        pi8_seq=np.arange(1, cc.pi8_count + 1, dtype=np.float64),
        home=q0,
        pi8_home=np.array(pi8_home, dtype=np.intp),
        home_zero_rank=home_zero_rank,
        home_pi8_rank=np.array(home_pi8_rank, dtype=np.float64),
        zero_home_totals=zero_count,
        pi8_home_totals=pi8_count,
    )


_BATCH_CACHE: "weakref.WeakKeyDictionary[CompiledCircuit, _BatchArrays]" = (
    weakref.WeakKeyDictionary()
)


def _batch_arrays(cc: CompiledCircuit) -> _BatchArrays:
    arrays = _BATCH_CACHE.get(cc)
    if arrays is None:
        arrays = _build_batch_arrays(cc)
        _BATCH_CACHE[cc] = arrays
    return arrays


# ----------------------------------------------------------------------
# Ready matrices: supply availability as (points, gates) lower bounds.


def _steady_kind_rows(rates, consumed, seq):
    """``(len(seq), points)`` ready rows for one pooled steady kind.

    consumed == 0 for fresh supplies (every sweep point): the add
    contributes nothing bit-exactly (0 + x == x), so skip it.
    """
    if consumed.any():
        needed = seq[:, None] + consumed[None, :]
    else:
        needed = seq[:, None]
    with np.errstate(divide="ignore"):
        return needed / rates[None, :]


def _dedicated_kind_rows(rates, consumed, home, rank):
    """``(len(rank), points)`` ready rows for one per-qubit kind.

    ``rates``/``consumed`` are ``(points, num_qubits)``; transposed to
    (qubits, points) contiguous so home-row gathers are cheap. A
    consumed matrix of zeros (fresh supplies) skips the add, which is
    bit-exactly a no-op.
    """
    rates_t = np.ascontiguousarray(rates.T)
    if consumed.any():
        needed = np.ascontiguousarray(consumed.T)[home]
        needed += rank[:, None]
    else:
        needed = rank[:, None]
    with np.errstate(divide="ignore"):
        return needed / rates_t[home]


def steady_ready_matrix(
    cc: CompiledCircuit,
    zero_rates: Optional[np.ndarray],
    zero_consumed: Optional[np.ndarray],
    pi8_rates: Optional[np.ndarray],
    pi8_consumed: Optional[np.ndarray],
    *,
    gate_major: bool = False,
) -> Optional[np.ndarray]:
    """``(points, gates)`` ancilla-ready lower bounds for steady supplies.

    The point-axis generalization of
    :func:`repro.arch.simulator._steady_ready_entry`: the k-th ancilla of
    a kind exists at ``k / rate``, evaluated here as one broadcast
    division per kind. A kind whose rate vector is None is untracked for
    the whole batch (it never constrains); a zero rate divides to
    infinity, matching ``_RateCounter.acquire``'s starvation behavior.

    ``gate_major=True`` returns the transposed ``(gates, points)``
    layout the level kernel gathers from (contiguous per-level rows);
    the default is a transposed view of the same storage — element
    values are identical either way.
    """
    ba = _batch_arrays(cc)
    points = len(zero_rates if zero_rates is not None else pi8_rates)
    with _span("batched.ready_matrix", kind="steady", points=points,
               gates=cc.num_gates):
        ready = None
        if zero_rates is not None:
            ready = _steady_kind_rows(zero_rates, zero_consumed, ba.zero_seq)
        if pi8_rates is not None and cc.pi8_count:
            pi8_ready = _steady_kind_rows(pi8_rates, pi8_consumed, ba.pi8_seq)
            if ready is None:
                ready = np.zeros((cc.num_gates, points))
            index = cc.pi8_indices
            ready[index] = np.maximum(ready[index], pi8_ready)
    if ready is None:
        return None
    return ready if gate_major else ready.T


def dedicated_ready_matrix(
    cc: CompiledCircuit,
    zero_rates: Optional[np.ndarray],
    zero_consumed: Optional[np.ndarray],
    pi8_rates: Optional[np.ndarray],
    pi8_consumed: Optional[np.ndarray],
    *,
    gate_major: bool = False,
) -> Optional[np.ndarray]:
    """``(points, gates)`` ready lower bounds for per-qubit generators.

    Rate/consumed inputs are ``(points, num_qubits)`` matrices (from
    :meth:`DedicatedSupply.dedicated_state`). Consumption per generator
    is fixed by the gate sequence alone — gate ``i`` brings its home
    qubit's counter to a precomputed rank — so availability is again one
    broadcast division per kind, with zero-rate generators dividing to
    infinity exactly like the inlined counters in ``_run_dedicated``.
    ``gate_major=True`` returns the ``(gates, points)`` layout; the
    default is a transposed view of the same storage.
    """
    ba = _batch_arrays(cc)
    points = len(zero_rates if zero_rates is not None else pi8_rates)
    with _span("batched.ready_matrix", kind="dedicated", points=points,
               gates=cc.num_gates):
        ready = None
        if zero_rates is not None:
            ready = _dedicated_kind_rows(
                zero_rates, zero_consumed, ba.home, ba.home_zero_rank
            )
        if pi8_rates is not None and cc.pi8_count:
            pi8_ready = _dedicated_kind_rows(
                pi8_rates, pi8_consumed, ba.pi8_home, ba.home_pi8_rank
            )
            if ready is None:
                ready = np.zeros((cc.num_gates, points))
            index = cc.pi8_indices
            ready[index] = np.maximum(ready[index], pi8_ready)
    if ready is None:
        return None
    return ready if gate_major else ready.T


def _spec_ready_matrix(
    cc: CompiledCircuit,
    signature: Tuple[Optional[str], Optional[str]],
    specs: Sequence[ReadySpec],
) -> Optional[np.ndarray]:
    """Gate-major ready matrix for one lowering-signature group.

    ``signature`` is the group's ``(zero_mode, pi8_mode)`` pair from
    :func:`repro.arch.simulator.spec_kind_mode` — every spec in the
    group lowers each kind the same way, so each kind is one stacked
    broadcast division; kinds may mix modes freely (e.g. a steady zero
    pool over dedicated pi/8 generators) because the per-gate constraint
    is just the elementwise max of the kinds' rows, exactly the order
    the serial loops apply them in.
    """
    ba = _batch_arrays(cc)
    zero_mode, pi8_mode = signature
    points = len(specs)

    def stack(kind, mode, seq, home, rank):
        kind_specs = [spec.kinds[kind] for spec in specs]
        if mode == "steady":
            return _steady_kind_rows(
                np.array([k.rate_per_us for k in kind_specs]),
                np.array([float(k.consumed) for k in kind_specs]),
                seq,
            )
        return _dedicated_kind_rows(
            np.array([k.rates_per_us for k in kind_specs], dtype=np.float64),
            np.array([k.consumed for k in kind_specs], dtype=np.float64),
            home,
            rank,
        )

    with _span("batched.ready_matrix", kind=f"{zero_mode}/{pi8_mode}",
               points=points, gates=cc.num_gates):
        ready = None
        if zero_mode is not None:
            ready = stack(ZERO, zero_mode, ba.zero_seq, ba.home,
                          ba.home_zero_rank)
        if pi8_mode is not None and cc.pi8_count:
            pi8_ready = stack(PI8, pi8_mode, ba.pi8_seq, ba.pi8_home,
                              ba.home_pi8_rank)
            if ready is None:
                ready = np.zeros((cc.num_gates, points))
            index = cc.pi8_indices
            ready[index] = np.maximum(ready[index], pi8_ready)
    return ready


# ----------------------------------------------------------------------
# The batched kernel


def _run_levels(
    cc: CompiledCircuit,
    points: int,
    movement: Optional[np.ndarray],
    ready: Optional[np.ndarray],
    qec: float,
) -> np.ndarray:
    """Execute all ``points`` columns in one sweep over dependency levels.

    State is gate-major — ``(num_qubits + 1, points)`` — so per-level
    gathers and scatters touch contiguous rows; ``ready`` (when given)
    is likewise ``(gates, points)``. Per-point arithmetic replays the
    serial hot loops' exact operation order — operand/bit max chain,
    movement add, supply max, then ``+ latency`` followed by ``+ qec``
    as two separate additions (fusing them would change rounding) — so
    every column is bit-identical to a serial run of that point.
    """
    nq, nb = cc.num_qubits, cc.num_bits
    ba = _batch_arrays(cc)
    with _span("batched.level_sweep", points=points, levels=len(ba.levels),
               gates=cc.num_gates):
        return _run_levels_body(ba, nq, nb, points, movement, ready, qec)


def _run_levels_body(ba, nq, nb, points, movement, ready, qec):
    qubit_free = np.zeros((nq + 1, points))
    bits = np.zeros((nb + 1, points))
    for level in ba.levels:
        t = qubit_free[level.q0]  # fancy gather: a fresh copy
        if level.has_q1:
            np.maximum(t, qubit_free[level.q1], out=t)
            if level.has_q2:
                np.maximum(t, qubit_free[level.q2], out=t)
        if level.has_cond:
            np.maximum(t, bits[level.cond], out=t)
        if movement is not None:
            t += movement[level.gates][:, None]
        if ready is not None:
            np.maximum(t, ready[level.gates], out=t)
        t += level.latency
        t += qec
        # Scatters cannot collide: same-level gates touch disjoint qubits
        # (a shared qubit is a dependency edge), and duplicate result-bit
        # writers resolve last-in-program-order, like the serial loop.
        qubit_free[level.q0] = t
        if level.has_q1:
            qubit_free[level.q1] = t
            if level.has_q2:
                qubit_free[level.q2] = t
            # Re-pin the dummy row the sentinel scatters just dirtied.
            qubit_free[nq] = 0.0
        if level.has_result:
            bits[level.result] = t
            bits[nb] = 0.0
    if nq == 0:
        return np.zeros(points)
    return qubit_free[:nq].max(axis=0)


# ----------------------------------------------------------------------
# CQLA: precomputed cache schedule + program-order lockstep kernel


@dataclass(frozen=True, eq=False)
class _CacheSchedule:
    """Per-gate teleport-trip counts implied by LRU residency.

    Which operands miss (and whether each miss evicts a resident qubit)
    depends only on the operand sequence and the cache capacity — never
    on gate timing — so the whole port-booking workload is a pure
    function of (circuit, cache size), computed once and shared by every
    point of every sweep.
    """

    trips: List[int]  # bookings gate i performs (0 for full hits)
    misses: int
    teleports: int  # total bookings == sum(trips)


_SCHEDULE_CACHE: "weakref.WeakKeyDictionary[CompiledCircuit, Dict[int, _CacheSchedule]]" = (
    weakref.WeakKeyDictionary()
)


def _cache_schedule(cc: CompiledCircuit, cache_size: int) -> _CacheSchedule:
    """Replay the LRU walk ``_run_cache`` performs, timing-free."""
    per_cc = _SCHEDULE_CACHE.get(cc)
    if per_cc is None:
        per_cc = {}
        _SCHEDULE_CACHE[cc] = per_cc
    schedule = per_cc.get(cache_size)
    if schedule is not None:
        return schedule
    cache = _LruCache(cache_size)
    trips = [0] * cc.num_gates
    misses = 0
    total = 0
    for i, (a, b, c) in enumerate(zip(cc.q0, cc.q1, cc.q2)):
        q = a
        while q >= 0:
            if q in cache:
                cache.touch(q)
            else:
                misses += 1
                k = 1 + (1 if cache.touch(q) is not None else 0)
                trips[i] += k
                total += k
            q = b if q == a else (c if q == b else -1)
    schedule = _CacheSchedule(trips=trips, misses=misses, teleports=total)
    per_cc[cache_size] = schedule
    return schedule


def _run_cqla_lockstep(
    cc: CompiledCircuit,
    points: int,
    movement: Optional[np.ndarray],
    ready: Optional[np.ndarray],
    qec: float,
    schedule: _CacheSchedule,
    ports: int,
    t_teleport: float,
) -> np.ndarray:
    """Execute ``points`` CQLA columns in one program-order walk.

    Port booking makes start times order-sensitive *within* a point (a
    booked gate delays later bookers), but points never interact — so
    the serial min-heap ``_PortBank`` vectorizes into a
    ``(points, ports)`` earliest-free matrix walked in program order:
    per trip, each point books its earliest-free port (``argmin`` takes
    the first minimum, matching the heap's ``(free, index)`` tie-break).
    Level-order walking would be wrong here: bookings are not
    commutative, and program order is the order the serial engine and
    the reference loop book in. All other per-gate arithmetic replays the serial
    ``_run_cache`` loop's exact operation order, so every column is
    bit-identical to a serial run of that point.
    """
    nq, nb = cc.num_qubits, cc.num_bits
    qubit_free = np.zeros((nq, points))
    bits = np.zeros((nb, points))
    port_free = np.zeros((points, ports))
    rows = np.arange(points)
    q0, q1, q2 = cc.q0, cc.q1, cc.q2
    cond_id, result_id = cc.cond_id, cc.result_id
    latency = cc.latency_us
    trips = schedule.trips
    move = movement.tolist() if movement is not None else None
    maximum = np.maximum
    with _span("batched.cqla_lockstep", points=points, gates=cc.num_gates,
               ports=ports):
        for i in range(cc.num_gates):
            a = q0[i]
            b = q1[i]
            c = q2[i]
            t = qubit_free[a].copy()
            if b >= 0:
                maximum(t, qubit_free[b], out=t)
                if c >= 0:
                    maximum(t, qubit_free[c], out=t)
            cond = cond_id[i]
            if cond >= 0:
                maximum(t, bits[cond], out=t)
            k = trips[i]
            while k:
                k -= 1
                idx = port_free.argmin(axis=1)
                maximum(t, port_free[rows, idx], out=t)
                t += t_teleport
                port_free[rows, idx] = t
            if move is not None:
                m = move[i]
                if m:
                    t += m
            if ready is not None:
                maximum(t, ready[i], out=t)
            t += latency[i]
            t += qec
            qubit_free[a] = t
            if b >= 0:
                qubit_free[b] = t
                if c >= 0:
                    qubit_free[c] = t
            r = result_id[i]
            if r >= 0:
                bits[r] = t
    if nq == 0:
        return np.zeros(points)
    return qubit_free.max(axis=0)


# ----------------------------------------------------------------------
# Supply classification and the public batch entry point


def _lowering_signature(cc: CompiledCircuit, spec: ReadySpec):
    """``(zero_mode, pi8_mode)`` grouping key for one point's spec.

    Modes are :func:`spec_kind_mode` strings; a kind irrelevant to this
    circuit (untracked, or pi/8 with no pi/8 gates) is None. Points with
    equal signatures lower each kind the same way and share one ready
    matrix; ``(None, None)`` points are unconstrained.
    """
    zero_mode = spec_kind_mode(spec.kind(ZERO))
    pi8_mode = spec_kind_mode(spec.kind(PI8)) if cc.pi8_count else None
    return zero_mode, pi8_mode


def simulate_batch(
    circuit: Circuit,
    supplies: Sequence[AncillaSupply],
    tech: TechnologyParams = ION_TRAP,
    *,
    movement_penalty_us: float = 0.0,
    two_qubit_movement_penalty_us: Optional[float] = None,
    cqla: Optional[CqlaConfig] = None,
    compiled: Optional[CompiledCircuit] = None,
) -> List[SimulationResult]:
    """Simulate one design point per entry of ``supplies``, batched.

    Every point shares the circuit, technology, movement penalties and
    (optional) CQLA configuration; points differ only in their ancilla
    supply — exactly the shape of a Figure 8 / Figure 15 / Figure 16
    sweep axis. Results are **bit-identical** to running
    ``DataflowSimulator(...).run()`` per point, including the observable
    supply state afterwards (steady and dedicated counters advance by
    the same amounts).

    Any supply with an honored declarative ready spec
    (:func:`~repro.arch.supply.declared_ready_spec` — the built-in
    models and any custom publisher) executes through the vectorized
    kernels, including under ``cqla``; only spec-less or
    override-disqualified supplies fall back to a per-point serial
    simulator, transparently.
    """
    with _span("batched.simulate_batch", points=len(supplies)) as sp:
        return _simulate_batch(
            circuit, supplies, tech, movement_penalty_us,
            two_qubit_movement_penalty_us, cqla, compiled, sp,
        )


def _simulate_batch(
    circuit: Circuit,
    supplies: Sequence[AncillaSupply],
    tech: TechnologyParams,
    movement_penalty_us: float,
    two_qubit_movement_penalty_us: Optional[float],
    cqla: Optional[CqlaConfig],
    compiled: Optional[CompiledCircuit],
    sp,
) -> List[SimulationResult]:

    def fallback(supply: AncillaSupply) -> SimulationResult:
        return DataflowSimulator(
            circuit,
            tech,
            supply=supply,
            movement_penalty_us=movement_penalty_us,
            two_qubit_movement_penalty_us=two_qubit_movement_penalty_us,
            cqla=cqla,
            compiled=compiled,
        ).run()

    if not supplies:
        return []
    probe = DataflowSimulator(
        circuit,
        tech,
        movement_penalty_us=movement_penalty_us,
        two_qubit_movement_penalty_us=two_qubit_movement_penalty_us,
        compiled=compiled,
    )
    cc = probe.compiled
    n = cc.num_gates
    if n == 0:
        return [SimulationResult(0.0, 0, 0, 0, 0, 0) for _ in supplies]
    qec = LogicalLatencyModel(tech).qec_interaction_latency()
    move_1q = movement_penalty_us
    move_2q = (
        two_qubit_movement_penalty_us
        if two_qubit_movement_penalty_us is not None
        else movement_penalty_us
    )
    teleports = movement_teleports(cc, move_1q, move_2q, tech)
    movement = None
    if move_1q or move_2q:
        table = np.zeros(3)
        table[MOVE_NONE] = 0.0
        table[MOVE_ONE_QUBIT] = move_1q
        table[MOVE_TWO_QUBIT] = move_2q
        movement = table[_batch_arrays(cc).move_kind]

    schedule: Optional[_CacheSchedule] = None
    t_teleport = 0.0
    if cqla is not None:
        schedule = _cache_schedule(cc, cqla.cache_size(cc.num_qubits))
        t_teleport = teleport_latency(tech)

    def result(makespan: float) -> SimulationResult:
        if schedule is None:
            misses = 0
            total_teleports = teleports
        else:
            misses = schedule.misses
            total_teleports = teleports + schedule.teleports
        return SimulationResult(
            makespan_us=float(makespan),
            gates=n,
            zero_ancillae_consumed=ZEROS_PER_QEC * n,
            pi8_ancillae_consumed=cc.pi8_count,
            cache_misses=misses,
            teleports=total_teleports,
        )

    out: List[Optional[SimulationResult]] = [None] * len(supplies)
    # Group lowerable points by lowering signature so each group shares
    # one ready matrix (mixed tracked/untracked kinds cannot).
    unconstrained: List[int] = []
    groups: Dict[tuple, List[int]] = {}
    specs: List[Optional[ReadySpec]] = [None] * len(supplies)
    for i, supply in enumerate(supplies):
        spec = declared_ready_spec(supply)
        if spec is None:
            out[i] = fallback(supply)
            continue
        signature = _lowering_signature(cc, spec)
        if "unknown" in signature:
            # A spec type this engine cannot lower — treat like any
            # custom supply.
            out[i] = fallback(supply)
            continue
        specs[i] = spec
        if signature == (None, None):
            unconstrained.append(i)
        else:
            groups.setdefault(signature, []).append(i)
    # Per-group point counts on the batch span: how much of the sweep
    # took the vectorized path vs the per-point fallback. The paper
    # sweeps (Figures 8/15/16) assert fallback == 0 on this attribute.
    sp.set(
        unconstrained=len(unconstrained),
        steady=sum(
            len(v) for sig, v in groups.items() if "dedicated" not in sig
        ),
        dedicated=sum(
            len(v) for sig, v in groups.items() if "dedicated" in sig
        ),
        fallback=sum(1 for r in out if r is not None),
    )

    # An aliased supply object at several constrained points cannot be
    # batched faithfully: serial per-point runs would thread its consumed
    # state from one point into the next, while a batch snapshots the
    # state once. Fail loud rather than silently diverge. (Stateless /
    # unconstrained duplicates are harmless; per-point fallbacks replay
    # state sequentially in index order, like a serial loop.)
    seen_ids: Dict[int, int] = {}
    for indices in groups.values():
        for i in indices:
            j = seen_ids.setdefault(id(supplies[i]), i)
            if j != i:
                raise ValueError(
                    f"supplies[{j}] and supplies[{i}] are the same "
                    "object; rate-limited supplies must be distinct "
                    "per point (consumption state cannot be shared "
                    "within one batch)"
                )

    ba = _batch_arrays(cc)

    def advance(index: int) -> None:
        # Commit exactly what a per-gate acquire walk would have
        # recorded, per the point's declared spec: aggregate counts for
        # steady kinds, per-home totals for dedicated kinds. (advance /
        # advance_per_qubit skip zero-rate counters internally, matching
        # acquire's return-inf-without-recording behavior.)
        supply = supplies[index]
        spec = specs[index]
        zero_spec = spec.kind(ZERO)
        if isinstance(zero_spec, SteadyKindSpec):
            supply.advance(ZERO, ZEROS_PER_QEC * n)
        elif isinstance(zero_spec, DedicatedKindSpec):
            supply.advance_per_qubit(ZERO, ba.zero_home_totals)
        pi8_spec = spec.kind(PI8)
        if isinstance(pi8_spec, SteadyKindSpec):
            supply.advance(PI8, cc.pi8_count)
        elif isinstance(pi8_spec, DedicatedKindSpec):
            supply.advance_per_qubit(PI8, ba.pi8_home_totals)

    def run_group(count: int, ready: Optional[np.ndarray]) -> np.ndarray:
        if schedule is None:
            return _run_levels(cc, count, movement, ready, qec)
        return _run_cqla_lockstep(
            cc, count, movement, ready, qec, schedule, cqla.ports,
            t_teleport,
        )

    if unconstrained:
        # All such points produce identical results: one column suffices.
        makespan = run_group(1, None)[0]
        for i in unconstrained:
            out[i] = result(makespan)
            advance(i)

    for signature, indices in groups.items():
        ready = _spec_ready_matrix(
            cc, signature, [specs[i] for i in indices]
        )
        makespans = run_group(len(indices), ready)
        for i, makespan in zip(indices, makespans):
            out[i] = result(makespan)
            advance(i)

    return out
