"""Compiled circuits: a struct-of-arrays lowering of :class:`Circuit`.

The dataflow simulator's hot loop visits every gate of a decomposed
kernel once per sweep point. Walking :class:`~repro.circuits.gate.Gate`
objects costs a dict lookup, several property evaluations and a latency
method call per gate; across a Figure 15 sweep (dozens of points, three
architectures) that object traffic dominates wall-clock. Compilation
pays those costs exactly once per ``(circuit, tech)`` pair:

* operand qubits are flattened into two parallel index lists, with
  ``-1`` for a one-qubit gate's absent second operand;
* per-gate logical latencies are precomputed from
  :class:`~repro.circuits.latency.LogicalLatencyModel`;
* pi/8-consumption flags are precomputed, along with the aggregate
  counts the simulator needs for closed-form ancilla and teleport
  accounting.

Compilation is the one place that knows the gate shape the dataflow
engines walk: every gate has one or two operands, no classical
condition or result bit, and is no preparation or measurement. Every
decomposed kernel has that shape; :func:`compile_circuit` refuses any
other circuit with a ``ValueError``, so a gate's movement class is just
its arity (``q1 >= 0``).

The compiled form is immutable and safe to share between simulators
and sweep points. :func:`compile_circuit` memoizes per
circuit object (keyed by gate count and technology, since circuits are
append-only by convention), so repeated sweeps over the same kernel
compile exactly once. Everything the engines derive from one compiled
form (its dependency levels, trip schedules, serial steps, ancilla draw
order) lives in that form's own memo (:meth:`CompiledCircuit.memoized`),
built by the module that owns it and freed with the form.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple, TypeVar

import numpy as np

from repro.circuits.circuit import Circuit
from repro.circuits.gate import GATE_ARITY, PI8_CONSUMING_GATES, Gate, GateType
from repro.circuits.latency import LogicalLatencyModel
from repro.obs.trace import span as _span
from repro.tech import TechnologyParams

_T = TypeVar("_T")


@dataclass(frozen=True, eq=False)
class CompiledCircuit:
    """Struct-of-arrays form of one circuit under one technology.

    All per-gate sequences are parallel (index ``i`` describes gate ``i``
    of the source circuit, in program order). Plain Python lists are used
    for the fields the sequential simulator loop indexes — scalar list
    access is several times faster than scalar numpy access — while the
    fields consumed by vectorized supply math are numpy arrays.

    Attributes:
        num_qubits: Qubit count of the source circuit.
        num_gates: Gate count of the source circuit.
        tech: Technology the latencies were priced under.
        q0: First operand qubit of each gate.
        q1: Second operand qubit, or ``-1`` for a one-qubit gate.
        latency_us: Logical gate latency of each gate.
        pi8_flag: 1 for gates consuming an encoded pi/8 ancilla.
        pi8_indices: Gate indices of the pi/8 consumers, program order.
        pi8_count: Number of pi/8-consuming gates.
        one_qubit_moves: One-qubit gates (each takes the one-qubit
            movement penalty).
        two_qubit_moves: Two-qubit gates.
        source_ref: Weak reference to the source circuit, so consumers
            can reject a compiled form handed to the wrong circuit (two
            different circuits can share a gate count). Weak because the
            compilation cache must not keep its own keys alive.
    """

    num_qubits: int
    num_gates: int
    tech: TechnologyParams
    q0: List[int]
    q1: List[int]
    latency_us: List[float]
    pi8_flag: List[int]
    pi8_indices: np.ndarray
    pi8_count: int
    one_qubit_moves: int
    two_qubit_moves: int
    source_ref: "weakref.ref[Circuit]"
    _memo: Dict[tuple, Any] = field(
        default_factory=dict, init=False, repr=False
    )

    def compiled_from(self, circuit: Circuit) -> bool:
        """Whether this form was compiled from ``circuit``.

        False when the source weak reference has died: simulating needs
        the source circuit in hand, which keeps the reference alive, so
        a dead reference means ``circuit`` is necessarily some other
        object — shape checks alone could not tell it apart.
        """
        return self.source_ref() is circuit

    def memoized(self, build: Callable[..., _T], *args: Any) -> _T:
        """``build(self, *args)``, built on first use and kept under
        ``(build, *args)`` for as long as this form lives.

        The one memo for everything derived from this compiled form: a
        builder stays in the module that owns what it builds. A derived
        value holds no reference back to the form, so the memo is freed
        with the form as soon as nothing else holds it.
        """
        key = (build, *args)
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = build(self, *args)
            return value


def _compile(circuit: Circuit, tech: TechnologyParams) -> CompiledCircuit:
    with _span("compile.lower", gates=len(circuit), tech=tech.name):
        return _compile_body(circuit, tech)


def _gate_type_rows(tech: TechnologyParams) -> Dict[GateType, Tuple[float, int]]:
    """``(latency, pi/8 flag)`` per gate type the engines walk.

    Every per-gate column but the operands depends on the gate type
    alone, so each type's row is read once from a representative gate's
    properties (valid for every type: measurements need a result bit,
    rotations an angle) rather than once per gate. Types with three
    operands, preparations and measurements get no row:
    :func:`compile_circuit` refuses them.
    """
    logical = LogicalLatencyModel(tech)
    rows = {}
    for gate_type in GateType:
        gate = Gate(
            gate_type, tuple(range(GATE_ARITY[gate_type])), angle_k=1, result="r"
        )
        if gate.is_prep or gate.is_measurement or len(gate.qubits) > 2:
            continue
        pi8 = 1 if gate_type in PI8_CONSUMING_GATES else 0
        rows[gate_type] = (logical.gate_latency(gate), pi8)
    return rows


def _compile_body(circuit: Circuit, tech: TechnologyParams) -> CompiledCircuit:
    rows = _gate_type_rows(tech)
    q0: List[int] = []
    q1: List[int] = []
    latency: List[float] = []
    pi8_flag: List[int] = []
    for i, gate in enumerate(circuit):
        row = rows.get(gate.gate_type)
        if row is None or gate.condition is not None or gate.result is not None:
            raise ValueError(
                f"gate {i} ({gate.describe()}) is outside the shape the "
                "dataflow engines walk: one or two operands, no classical "
                "condition or result bit, no preparation or measurement"
            )
        gate_latency, pi8 = row
        latency.append(gate_latency)
        pi8_flag.append(pi8)
        qubits = gate.qubits
        q0.append(qubits[0])
        q1.append(qubits[1] if len(qubits) > 1 else -1)
    pi8_indices = [i for i, flag in enumerate(pi8_flag) if flag]
    two_qubit_moves = sum(1 for b in q1 if b >= 0)
    return CompiledCircuit(
        num_qubits=circuit.num_qubits,
        num_gates=len(circuit),
        tech=tech,
        q0=q0,
        q1=q1,
        latency_us=latency,
        pi8_flag=pi8_flag,
        pi8_indices=np.array(pi8_indices, dtype=np.intp),
        pi8_count=len(pi8_indices),
        one_qubit_moves=len(q1) - two_qubit_moves,
        two_qubit_moves=two_qubit_moves,
        source_ref=weakref.ref(circuit),
    )


@dataclass(frozen=True, eq=False)
class CompiledDataflow:
    """Dependency structure of a compiled circuit, in flat array form.

    The dependency rule matches :class:`repro.testing.dag.CircuitDag`
    exactly: two gates touching the same qubit are ordered. Per-gate
    predecessor lists are stored as a CSR pair
    (``pred_offsets``/``pred_indices``, ascending within each gate), plus
    a level grouping that lets ASAP-style longest-path sweeps run as one
    vectorized segment-reduction per dependency level instead of a
    per-gate Python walk over ``ScheduleEntry`` objects.

    Attributes:
        pred_offsets: ``pred_offsets[i]:pred_offsets[i+1]`` slices
            ``pred_indices`` to gate ``i``'s predecessors (ascending).
        pred_indices: Concatenated predecessor gate indices.
        num_levels: Number of dependency levels (circuit unit-depth).
        level_order: Gate indices grouped by level, program order within
            a level. All predecessors of a gate sit in earlier levels.
        level_offsets: ``level_order[level_offsets[L]:level_offsets[L+1]]``
            are the gates of level ``L``.
        level_pred_seg: Segment starts into ``level_pred_flat`` aligned
            with ``level_order`` positions (length ``num_gates + 1``).
        level_pred_flat: ``pred_indices`` reordered to follow
            ``level_order``, so one ``np.maximum.reduceat`` per level
            computes every gate-of-that-level's start time.
    """

    pred_offsets: np.ndarray
    pred_indices: np.ndarray
    num_levels: int
    level_order: np.ndarray
    level_offsets: np.ndarray
    level_pred_seg: np.ndarray
    level_pred_flat: np.ndarray


def _build_dataflow(compiled: CompiledCircuit) -> CompiledDataflow:
    with _span("compile.dataflow_metadata", gates=compiled.num_gates):
        n = compiled.num_gates
        last_on_qubit = [-1] * compiled.num_qubits
        # Candidate predecessors of each gate, one list per operand: the
        # last gate on that qubit, or -1. ``level[-1]`` is a -1 sentinel,
        # so a missing candidate never raises a gate's level and a gate
        # without predecessors gets 0.
        cand0, cand1 = [-1] * n, [-1] * n
        level = [0] * n + [-1]
        for i, (a, b) in enumerate(zip(compiled.q0, compiled.q1)):
            p0 = cand0[i] = last_on_qubit[a]
            last_on_qubit[a] = i
            p1 = -1
            if b >= 0:
                p1 = cand1[i] = last_on_qubit[b]
                last_on_qubit[b] = i
            level[i] = max(level[p0], level[p1]) + 1
        # Sorting each gate's candidates puts a -1 first and a duplicate
        # side by side; what survives is the ascending predecessor list.
        cand = np.array([cand0, cand1], dtype=np.intp).T.copy()
        cand.sort(axis=1)
        keep = cand >= 0
        keep[:, 1] &= cand[:, 1] != cand[:, 0]
        counts = np.count_nonzero(keep, axis=1).astype(np.intp)
        pred_offsets = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(counts, out=pred_offsets[1:])
        level_arr = np.array(level[:n], dtype=np.intp)
        num_levels = int(level_arr.max()) + 1 if n else 0
        order = np.argsort(level_arr, kind="stable").astype(np.intp)
        level_offsets = np.zeros(num_levels + 1, dtype=np.intp)
        np.cumsum(
            np.bincount(level_arr, minlength=num_levels), out=level_offsets[1:]
        )
        seg = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(counts[order], out=seg[1:])
        return CompiledDataflow(
            pred_offsets=pred_offsets,
            pred_indices=cand[keep],
            num_levels=num_levels,
            level_order=order,
            level_offsets=level_offsets,
            level_pred_seg=seg,
            level_pred_flat=cand[order][keep[order]],
        )


def dataflow_metadata(compiled: CompiledCircuit) -> CompiledDataflow:
    """Dependency arrays for ``compiled``, memoized per compiled form.

    Built lazily because only level-walking consumers (kernel analysis,
    the batched kernel and its shape rule) need it; the dataflow
    simulator's sequential replay does not. The build is one pass over
    the already-flattened operand arrays — no ``Gate`` objects are
    touched.
    """
    return compiled.memoized(_build_dataflow)


_CACHE: "weakref.WeakKeyDictionary[Circuit, Dict[tuple, CompiledCircuit]]" = (
    weakref.WeakKeyDictionary()
)


def compile_circuit(circuit: Circuit, tech: TechnologyParams) -> CompiledCircuit:
    """Lower ``circuit`` to array form, memoized per ``(circuit, tech)``.

    The cache is keyed on the circuit object plus its current gate count:
    circuits are append-only by convention, so a changed length is the
    only mutation that can invalidate a previous compilation. Entries die
    with their circuit (weak keys), so sweeping many kernels does not
    accumulate garbage.

    Raises:
        ValueError: A gate has three operands, a classical condition or
            result bit, or is a preparation or measurement (the message
            names the first such gate).
    """
    per_circuit = _CACHE.get(circuit)
    key = (len(circuit), tech)
    if per_circuit is not None:
        cached = per_circuit.get(key)
        if cached is not None:
            return cached
    compiled = _compile(circuit, tech)
    if per_circuit is None:
        per_circuit = {}
        _CACHE[circuit] = per_circuit
    per_circuit[key] = compiled
    return compiled
