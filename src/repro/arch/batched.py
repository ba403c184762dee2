"""Point-batched dataflow simulation: a whole sweep in one numpy pass.

Every headline sweep (Figure 8 throughput curves, Figure 15/16 area
ladders, each ``repro.explore`` round) simulates the same compiled kernel
at many design points differing only in supply rates and movement
penalties. The serial engine in :mod:`repro.arch.simulator` re-walks the
full gate list once per point, so sweep cost is ``points x gates``
interpreted Python. This module carries a leading ``points`` axis
instead: simulator state becomes gate-major ``(num_qubits + 1, points)``
/ ``(num_bits + 1, points)`` float64 matrices (one row per qubit or bit,
plus a dummy row for absent operands), and the engine walks the
circuit's *dependency levels* (from
:func:`repro.circuits.compiled.dataflow_metadata`) exactly once total —
each level's ready/finish update is a handful of vectorized numpy ops
across all points and all gates of the level at once.

What batches, and why it stays bit-identical:

* **Every supply, through its declarative ready spec**
  (``ready_spec()``, see :class:`~repro.arch.supply.AncillaSupply`):
  points group by lowering signature
  (:func:`~repro.arch.simulator.lowerable_spec`), and
  each group's ready times come from the same lowering
  :meth:`DataflowSimulator.run` uses
  (:func:`~repro.arch.simulator.lower_ready`), one column per point:
  one broadcast division per kind, steady-rate kinds over the global
  draw sequence and dedicated per-qubit kinds (the QLA model) over each
  home qubit's draw rank. Consumption is committed afterwards through
  :func:`~repro.arch.simulator.commit_draws`, as ``run()`` commits it.
  Supplies whose specs constrain nothing
  (:class:`~repro.arch.supply.InfiniteSupply`, untracked kinds) share
  one column of work.

Within a dependency level no two gates share a qubit (a shared qubit is a
dependency edge) and no gate reads a classical bit written in its own
level, so gathering all start times before scattering all finish times
reproduces the serial engine's program-order walk exactly. Every
floating-point operation keeps the serial evaluation order (max chains,
then movement add, then supply max, then ``+ latency`` then ``+ qec``),
which makes the batched results **bit-identical** to
:meth:`DataflowSimulator.run` and to the reference loop
(:func:`repro.testing.reference.run_reference`) — the equivalence suite
asserts exact float equality, not approximation.

What runs per point instead, through :meth:`DataflowSimulator.run`:

* **Small groups, chosen by shape.** A kernel pass costs a fixed
  ~12-20 us per dependency level almost regardless of point count, so
  a few points on a deep circuit run faster serially: 2 points on
  qrca-32 (986 levels) take ~15 ms batched against ~0.9 ms serially.
  Each lowering-signature group (and the shared unconstrained column)
  takes whichever route :func:`_vectorize` predicts is cheaper from its
  point count and the circuit's gate and level counts — never from the
  caller or the supply model. Both routes are bit-identical and advance
  supply state identically.
* **Every CQLA point.** Port booking is ordered within a point, so it
  does not vectorize over levels (a program-order pass over the points
  axis lost to ``run()`` below ~23-26 points). ``run()`` replays the
  trip schedule memoized per (circuit, cache size)
  (:func:`~repro.arch.simulator._cache_schedule`) and, when the point's
  supply never binds, the supply-free walk memoized per cache
  configuration (:func:`~repro.arch.simulator._supply_free_walk`); only
  a point whose supply binds books ports, ~0.2-0.37 us per gate.

:meth:`DataflowSimulator.run` itself runs a circuit that is not lean
(a gate shape its loops skip) as a one-column :func:`_kernel_pass`.

Callers never need to pre-sort their supplies. The
``batched.simulate_batch`` span reports per-path point counts, which sum
to the batch size: ``unconstrained`` / ``steady`` / ``dedicated``
(vectorized) and ``serial`` (sent to ``run()``).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.architectures import CqlaConfig
from repro.arch.simulator import (
    ZEROS_PER_QEC,
    DataflowSimulator,
    SimulationResult,
    commit_draws,
    lower_ready,
    lowerable_spec,
    movement_teleports,
)
from repro.arch.supply import AncillaSupply, ReadySpec
from repro.circuits import Circuit
from repro.circuits.compiled import CompiledCircuit, dataflow_metadata
from repro.circuits.latency import LogicalLatencyModel
from repro.obs.trace import span as _span
from repro.tech import ION_TRAP, TechnologyParams

__all__ = ["simulate_batch"]


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


def _build_batch_arrays(cc: CompiledCircuit) -> _BatchArrays:
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
    return _BatchArrays(
        levels=tuple(levels),
        move_kind=np.array(cc.move_kind, dtype=np.int8),
    )


_BATCH_CACHE: "weakref.WeakKeyDictionary[CompiledCircuit, _BatchArrays]" = (
    weakref.WeakKeyDictionary()
)


def _batch_arrays(cc: CompiledCircuit) -> _BatchArrays:
    arrays = _BATCH_CACHE.get(cc)
    if arrays is None:
        arrays = _BATCH_CACHE[cc] = _build_batch_arrays(cc)
    return arrays


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


def _kernel_pass(
    cc: CompiledCircuit,
    points: int,
    move_1q: float,
    move_2q: float,
    ready: Optional[np.ndarray],
    qec: float,
) -> np.ndarray:
    """Makespans of ``points`` columns from one pass of the level kernel."""
    movement = None
    if move_1q or move_2q:
        movement = np.array((0.0, move_1q, move_2q))[_batch_arrays(cc).move_kind]
    return _run_levels(cc, points, movement, ready, qec)


# ----------------------------------------------------------------------
# Supply classification and the public batch entry point


#: Shape rule constant (see :func:`_vectorize`).
_GATE_POINTS_PER_LEVEL = 80


def _vectorize(points: int, gates: int, levels: int) -> bool:
    """Whether one ``points``-column level-kernel pass beats ``points``
    runs (never asked under CQLA: every CQLA point runs serially).

    A level-kernel pass pays ~12-20 us per dependency level (numpy
    dispatch and fixed costs) almost regardless of point count, plus
    ~0.01-0.06 us per gate-point; a serial :meth:`DataflowSimulator.run`
    pays ~0.15-0.22 us per gate per point. So the kernel wins once
    ``points * gates`` outgrows ``levels`` by a constant factor.
    Crossovers fitted from each route's interleaved medians (kernel
    passes at 4 and 32 points, runs at 8; three sets of 5-7 rounds, the
    median taken; Python 3.11, numpy, one 2-core x86 host), in units of
    ``points * gates / levels``:

    ========================  =====  ======  ========  ===========
    kernel (gates, levels)    QLA    steady  multipl.  crossover pts
    ========================  =====  ======  ========  ===========
    qcla-32 (2,211, 123)      103    94      109       5.2-6.1
    qrca-32 (2,018, 986)      77     63      78        30.6-38.4
    qft-32 (7,552, 3,074)     94     68      92        27.8-40.0
    ========================  =====  ======  ========  ===========

    80 sits inside every model's range, within ~30% of the faster route
    at any shape.

    The kernel earns its code (one 2-core host, three runs): forced
    False, one pass of every artifact but fig4 takes 1.27-1.30x as long;
    on a 14-point qcla-32 QLA group per-point ``run()`` takes 5.4-7.2 ms
    against the kernel's 2.6-4.2 ms, and lowering the group's ready
    matrix once (5.1-6.9 ms) closes only ~10% of the gap (README).

    Both routes are bit-identical, so the rule only moves time. It
    reads the batch's shape and nothing else.
    """
    return points * gates >= _GATE_POINTS_PER_LEVEL * levels


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

    Points execute through the level kernel when their
    lowering-signature group is large enough for a kernel pass to beat
    per-point runs (:func:`_vectorize`); smaller groups, and every point
    under ``cqla``, run per point through :meth:`DataflowSimulator.run`,
    transparently.

    Raises:
        TypeError: A supply publishes no lowerable ready spec
            (:func:`~repro.arch.simulator.lowerable_spec`). Every supply
            is classified before any point runs, so no supply's state
            has advanced when this is raised.
        ValueError: Two constrained points share one supply object, or
            ``cqla`` is given for a circuit that is not lean
            (:attr:`~repro.circuits.compiled.CompiledCircuit.lean`).
            Neither advances any supply's state.
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

    def serial(supply: Optional[AncillaSupply]) -> SimulationResult:
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

    out: List[Optional[SimulationResult]] = [None] * len(supplies)
    # Group points by lowering signature so each group shares one ready
    # matrix (mixed tracked/untracked kinds cannot).
    unconstrained: List[int] = []
    groups: Dict[tuple, List[int]] = {}
    specs: List[ReadySpec] = []
    for i, supply in enumerate(supplies):
        spec, signature = lowerable_spec(cc, supply)
        specs.append(spec)
        if signature == (None, None):
            unconstrained.append(i)
        else:
            groups.setdefault(signature, []).append(i)

    # An aliased supply object at several constrained points cannot be
    # batched faithfully: serial per-point runs would thread its consumed
    # state from one point into the next, while a batch snapshots the
    # state once. Fail loud rather than silently diverge — on either
    # route, so the outcome never depends on the batch's shape.
    # (Stateless / unconstrained duplicates are harmless.)
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

    # Route each group by its shape (see _vectorize). The unconstrained
    # points share one column, so they route as a 1-point group; a
    # serial run() commits each supply exactly as the vectorized route
    # does (unconstrained kinds consume nothing). Every CQLA point runs
    # serially: run() replays the memoized cache-trip schedule and
    # refuses a circuit that is not lean before it commits anything, so
    # no supply has advanced when the first point raises.
    levels = None if cqla is not None else dataflow_metadata(cc).num_levels

    def vectorize(points: int) -> bool:
        return levels is not None and _vectorize(points, n, levels)

    serial_points = 0
    if unconstrained and not vectorize(1):
        shared = serial(None)
        for i in unconstrained:
            out[i] = replace(shared)
        serial_points += len(unconstrained)
        unconstrained = []
    for signature, indices in list(groups.items()):
        if not vectorize(len(indices)):
            for i in indices:
                out[i] = serial(supplies[i])
            serial_points += len(indices)
            del groups[signature]
    # Per-path point counts on the batch span; ``serial`` counts points
    # the shape rule sent to run().
    sp.set(
        unconstrained=len(unconstrained),
        steady=sum(
            len(v) for sig, v in groups.items() if "dedicated" not in sig
        ),
        dedicated=sum(
            len(v) for sig, v in groups.items() if "dedicated" in sig
        ),
        serial=serial_points,
    )
    if not unconstrained and not groups:
        return out

    qec = LogicalLatencyModel(tech).qec_interaction_latency()
    move_1q = movement_penalty_us
    move_2q = (
        two_qubit_movement_penalty_us
        if two_qubit_movement_penalty_us is not None
        else movement_penalty_us
    )
    teleports = movement_teleports(cc, move_1q, move_2q, tech)

    def result(makespan: float) -> SimulationResult:
        return SimulationResult(
            makespan_us=float(makespan),
            gates=n,
            zero_ancillae_consumed=ZEROS_PER_QEC * n,
            pi8_ancillae_consumed=cc.pi8_count,
            teleports=teleports,
        )

    if unconstrained:
        # All such points produce identical results: one column suffices.
        makespan = _kernel_pass(cc, 1, move_1q, move_2q, None, qec)[0]
        for i in unconstrained:
            out[i] = result(makespan)
            commit_draws(cc, supplies[i], specs[i])

    for signature, indices in groups.items():
        ready = lower_ready(cc, signature, [specs[i] for i in indices])
        makespans = _kernel_pass(
            cc, len(indices), move_1q, move_2q, ready, qec
        )
        for i, makespan in zip(indices, makespans):
            out[i] = result(makespan)
            commit_draws(cc, supplies[i], specs[i])

    return out
