"""Point-batched dataflow simulation: a whole sweep in one numpy pass.

Every headline sweep (Figure 8 throughput curves, Figure 15/16 area
ladders, each ``repro.explore`` round) simulates the same compiled kernel
at many design points differing only in supply rates and movement
penalties. The serial engine in :mod:`repro.arch.simulator` re-walks the
full gate list once per point, so sweep cost is ``points x gates``
interpreted Python. This module carries a leading ``points`` axis
instead: simulator state becomes one gate-major ``(num_qubits + 1,
points)`` float64 matrix (one row per qubit, plus a dummy row for a
one-qubit gate's absent second operand), and the engine walks the
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

Within a dependency level no two gates share a qubit (a shared qubit is a
dependency edge), so gathering all start times before scattering all
finish times reproduces the serial engine's program-order walk exactly.
Every floating-point operation keeps the serial evaluation order (operand
max, then movement add, then supply max, then ``+ latency`` then ``+ qec``),
which makes the batched results **bit-identical** to
:meth:`DataflowSimulator.run` and to the reference loop
(:func:`repro.testing.reference.run_reference`) — the equivalence suite
asserts exact float equality, not approximation.

What runs per point instead, through :meth:`DataflowSimulator.run`:

* **Unconstrained points.** Supplies whose specs constrain nothing
  (:class:`~repro.arch.supply.InfiniteSupply`, untracked kinds) share
  one ``run()``, which replays the supply-free walk memoized per
  configuration (:func:`~repro.arch.simulator._supply_free_walk`),
  the walk kernel analysis reads its speed-of-data schedule from.
* **Small groups, chosen by shape.** A kernel pass costs a fixed
  ~12-20 us per dependency level almost regardless of point count, so
  a few points on a deep circuit run faster serially: 2 points on
  qrca-32 (986 levels) take ~15 ms batched against ~0.9 ms serially.
  Each lowering-signature group takes whichever route
  :func:`_vectorize` predicts is cheaper from its point count, the
  circuit's gate and level counts and the steps a serial walk takes —
  never from the caller or the supply model. Both routes are
  bit-identical and advance supply state identically.
* **Every CQLA point.** Port booking is ordered within a point, so it
  does not vectorize over levels (a program-order pass over the points
  axis lost to ``run()`` below ~23-26 points). ``run()`` replays the
  trip schedule memoized per (circuit, cache size)
  (:func:`~repro.arch.simulator._cache_schedule`) and, when the point's
  supply never binds, the supply-free walk memoized per cache
  configuration (:func:`~repro.arch.simulator._supply_free_walk`); only
  a point whose supply binds books ports, ~0.2-0.37 us per gate.

The level arrays (:func:`_batch_arrays`), like everything else derived
from one compiled circuit, live in that circuit's memo
(:meth:`~repro.circuits.compiled.CompiledCircuit.memoized`).

Callers never need to pre-sort their supplies. The
``batched.simulate_batch`` span reports per-path point counts, which sum
to the batch size: ``steady`` / ``dedicated`` (vectorized) and
``serial`` (sent to ``run()``, unconstrained points included).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.architectures import CqlaConfig
from repro.arch.simulator import (
    ZEROS_PER_QEC,
    DataflowSimulator,
    SimulationResult,
    _ops,
    commit_draws,
    lower_ready,
    lowerable_spec,
    movement_teleports,
)
from repro.arch.supply import AncillaSupply, ReadySpec
from repro.circuits import Circuit
from repro.circuits.compiled import CompiledCircuit, compile_circuit, dataflow_metadata
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
    each per-level gather/scatter touches contiguous rows. ``q1`` maps a
    one-qubit gate's absent second operand to the dummy qubit row
    ``num_qubits``, which is re-pinned to 0.0 after a level's scatters,
    so a max against it is a no-op and a scatter into it is discarded —
    no per-level boolean masking needed. ``has_q1`` lets the kernel skip
    the second operand when a level has only one-qubit gates.
    """

    gates: np.ndarray  # gate indices, program order within the level
    q0: np.ndarray
    q1: np.ndarray
    latency: np.ndarray  # (k, 1): broadcasts over the points axis
    has_q1: bool


@dataclass(frozen=True, eq=False)
class _BatchArrays:
    """Everything the batched kernel needs, built once per compiled form."""

    levels: Tuple[_Level, ...]
    two_qubit: np.ndarray  # (gates,) bool: takes the two-qubit penalty


def _batch_arrays(cc: CompiledCircuit) -> _BatchArrays:
    """The level kernel's arrays for ``cc``; read through
    ``cc.memoized``."""
    nq = cc.num_qubits
    q0 = np.array(cc.q0, dtype=np.intp)
    q1 = np.array(cc.q1, dtype=np.intp)
    latency = np.array(cc.latency_us, dtype=np.float64)
    two_qubit = q1 >= 0
    q1 = np.where(two_qubit, q1, nq)  # -1 sentinels -> the dummy row
    df = dataflow_metadata(cc)
    levels = []
    for lv in range(df.num_levels):
        g = df.level_order[df.level_offsets[lv] : df.level_offsets[lv + 1]]
        levels.append(
            _Level(
                gates=g,
                q0=q0[g],
                q1=q1[g],
                latency=latency[g][:, None],
                has_q1=bool(two_qubit[g].any()),
            )
        )
    return _BatchArrays(levels=tuple(levels), two_qubit=two_qubit)


# ----------------------------------------------------------------------
# The batched kernel


def _run_levels(
    cc: CompiledCircuit,
    points: int,
    move_1q: float,
    move_2q: float,
    ready: np.ndarray,
    qec: float,
) -> np.ndarray:
    """Makespans of ``points`` columns from one sweep over dependency
    levels.

    State is gate-major — ``(num_qubits + 1, points)`` — so per-level
    gathers and scatters touch contiguous rows; ``ready`` is likewise
    ``(gates, points)``. Per-point arithmetic replays the serial hot
    loops' exact operation order — operand max, movement
    add, supply max, then ``+ latency`` followed by ``+ qec`` as two
    separate additions (fusing them would change rounding) — so every
    column is bit-identical to a serial run of that point.
    """
    nq = cc.num_qubits
    ba = cc.memoized(_batch_arrays)
    movement = None
    if move_1q or move_2q:
        movement = np.where(ba.two_qubit, move_2q, move_1q)
    with _span("batched.level_sweep", points=points, levels=len(ba.levels),
               gates=cc.num_gates):
        qubit_free = np.zeros((nq + 1, points))
        for level in ba.levels:
            t = qubit_free[level.q0]  # fancy gather: a fresh copy
            if level.has_q1:
                np.maximum(t, qubit_free[level.q1], out=t)
            if movement is not None:
                t += movement[level.gates][:, None]
            np.maximum(t, ready[level.gates], out=t)
            t += level.latency
            t += qec
            # Scatters cannot collide: same-level gates touch disjoint
            # qubits (a shared qubit is a dependency edge).
            qubit_free[level.q0] = t
            if level.has_q1:
                qubit_free[level.q1] = t
                # Re-pin the dummy row the sentinel scatters just dirtied.
                qubit_free[nq] = 0.0
        return qubit_free[:nq].max(axis=0)


# ----------------------------------------------------------------------
# Supply classification and the public batch entry point


#: Shape rule constants (see :func:`_vectorize`).
_STEP_POINTS_PER_LEVEL = 90
_GATES_PER_STEP = 4


def _vectorize(points: int, steps: int, gates: int, levels: int) -> bool:
    """Whether one ``points``-column level-kernel pass beats ``points``
    runs (never asked under CQLA: every CQLA point runs serially).

    A level-kernel pass pays ~12-20 us per dependency level (numpy
    dispatch and fixed costs) almost regardless of point count, plus
    ~0.01-0.06 us per gate-point. A serial :meth:`DataflowSimulator.run`
    pays per point ~0.25 us per walked step (a gate, or a chain of
    one-qubit gates taken as one step; see
    :class:`~repro.arch.simulator._Ops`) plus ~0.05-0.07 us per gate
    (ready lowering and chain candidates): about one step per
    ``_GATES_PER_STEP`` gates, fitted on qrca-32 against qft-32 (3.8-4.7
    across the three supply models). So the kernel wins once
    ``points * (steps + gates / _GATES_PER_STEP)`` outgrows ``levels``
    by a constant factor. Crossovers fitted from each route's
    interleaved medians (kernel passes at 4 and 32 points, runs at 8;
    three sets of 6 rounds, in each of two processes; Python 3.11,
    numpy, one 2-core x86 host), in units of
    ``points * (steps + gates / 4) / levels``:

    ===============================  ======  ======  ========  =============
    kernel (gates, steps, levels)    QLA     steady  multipl.  crossover pts
    ===============================  ======  ======  ========  =============
    qcla-32 (2,211, 2,211, 123)      103-126 88-121  110-128   3.9-5.7
    qrca-32 (2,018, 2,018, 986)      54-98   62-78   71-92     21-38
    qft-32 (7,552, 1,378, 3,074)     70-117  53-81   64-122    50-115
    ===============================  ======  ======  ========  =============

    90 sits inside every kernel's range. Steps alone do not fit: in
    units of ``points * steps / levels`` qft-32 crosses at 22-51 and
    qcla-32 at 70-102. (Before chains were taken as one step, qft-32
    crossed at 27.8-40.0 points.)

    The kernel earns its code (one 2-core host, three runs): forced
    False, one pass of every artifact but fig4 takes 1.27-1.30x as long;
    on a 14-point qcla-32 QLA group per-point ``run()`` takes 5.4-7.2 ms
    against the kernel's 2.6-4.2 ms, and lowering the group's ready
    matrix once (5.1-6.9 ms) closes only ~10% of the gap (README).

    Both routes are bit-identical, so the rule only moves time. It
    reads the batch's shape and nothing else.
    """
    work = steps + gates / _GATES_PER_STEP
    return points * work >= _STEP_POINTS_PER_LEVEL * levels


def simulate_batch(
    circuit: Circuit,
    supplies: Sequence[AncillaSupply],
    tech: TechnologyParams = ION_TRAP,
    *,
    movement_penalty_us: float = 0.0,
    two_qubit_movement_penalty_us: Optional[float] = None,
    cqla: Optional[CqlaConfig] = None,
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
    transparently. Points whose supply constrains nothing share one
    ``run()``. Both routes read the one compilation kept in the
    circuit's memo (:func:`~repro.circuits.compiled.compile_circuit`).

    Raises:
        TypeError: A supply publishes no lowerable ready spec
            (:func:`~repro.arch.simulator.lowerable_spec`). Every supply
            is classified before any point runs, so no supply's state
            has advanced when this is raised.
        ValueError: Two constrained points share one supply object, or
            the circuit has a gate shape
            :func:`~repro.circuits.compiled.compile_circuit` refuses.
            Neither advances any supply's state.
    """
    with _span("batched.simulate_batch", points=len(supplies)) as sp:
        return _simulate_batch(
            circuit, supplies, tech, movement_penalty_us,
            two_qubit_movement_penalty_us, cqla, sp,
        )


def _simulate_batch(
    circuit: Circuit,
    supplies: Sequence[AncillaSupply],
    tech: TechnologyParams,
    movement_penalty_us: float,
    two_qubit_movement_penalty_us: Optional[float],
    cqla: Optional[CqlaConfig],
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
        ).run()

    if not supplies:
        return []
    cc = compile_circuit(circuit, tech)
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

    # Unconstrained points share one run(), which replays the memoized
    # supply-free walk; they consume nothing, so there is nothing to
    # commit. Route each group by its shape (see _vectorize); every CQLA
    # point runs serially: run() replays the memoized cache-trip schedule.
    serial_points = len(unconstrained)
    if unconstrained:
        shared = serial(None)
        for i in unconstrained:
            out[i] = replace(shared)
    qec = LogicalLatencyModel(tech).qec_interaction_latency()
    move_1q = movement_penalty_us
    move_2q = (
        two_qubit_movement_penalty_us
        if two_qubit_movement_penalty_us is not None
        else movement_penalty_us
    )
    levels = steps = None
    if cqla is None:
        levels = dataflow_metadata(cc).num_levels
        steps = len(cc.memoized(_ops, None, move_1q, qec).q0)

    for signature, indices in list(groups.items()):
        if levels is None or not _vectorize(len(indices), steps, n, levels):
            for i in indices:
                out[i] = serial(supplies[i])
            serial_points += len(indices)
            del groups[signature]
    # Per-path point counts on the batch span; ``serial`` counts points
    # sent to run().
    sp.set(
        steady=sum(
            len(v) for sig, v in groups.items() if "dedicated" not in sig
        ),
        dedicated=sum(
            len(v) for sig, v in groups.items() if "dedicated" in sig
        ),
        serial=serial_points,
    )
    if not groups:
        return out

    teleports = movement_teleports(cc, move_1q, move_2q, tech)

    def result(makespan: float) -> SimulationResult:
        return SimulationResult(
            makespan_us=float(makespan),
            gates=n,
            zero_ancillae_consumed=ZEROS_PER_QEC * n,
            pi8_ancillae_consumed=cc.pi8_count,
            teleports=teleports,
        )

    for signature, indices in groups.items():
        ready = lower_ready(cc, signature, [specs[i] for i in indices])
        makespans = _run_levels(cc, len(indices), move_1q, move_2q, ready, qec)
        for i, makespan in zip(indices, makespans):
            out[i] = result(makespan)
            commit_draws(cc, supplies[i], specs[i])

    return out
