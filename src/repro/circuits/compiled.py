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
and sweep points. :func:`compile_circuit` keeps it in the circuit's
own memo (:meth:`~repro.circuits.circuit.Circuit.memoized`, keyed by
gate count and technology), so every engine, sweep and evaluator that
simulates one kernel reads the same compilation and no caller hands a
compiled form around. Everything the engines derive from one compiled
form (its dependency levels, trip schedules, serial steps, ancilla draw
order) lives in that form's own memo (:meth:`CompiledCircuit.memoized`),
built by the module that owns it and freed with the form.
"""

from __future__ import annotations

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
    _memo: Dict[tuple, Any] = field(
        default_factory=dict, init=False, repr=False
    )

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
    )


@dataclass(frozen=True, eq=False)
class CompiledDataflow:
    """Dependency levels of a compiled circuit, in flat array form.

    The dependency rule matches :class:`repro.testing.dag.CircuitDag`
    exactly: two gates touching the same qubit are ordered, and a gate's
    level is one more than its latest predecessor's. The batched kernel
    walks these levels (:mod:`repro.arch.batched`), and its shape rule
    reads their count.

    Attributes:
        num_levels: Number of dependency levels (circuit unit-depth).
        level_order: Gate indices grouped by level, program order within
            a level. All predecessors of a gate sit in earlier levels.
        level_offsets: ``level_order[level_offsets[L]:level_offsets[L+1]]``
            are the gates of level ``L``.
    """

    num_levels: int
    level_order: np.ndarray
    level_offsets: np.ndarray


def _build_dataflow(compiled: CompiledCircuit) -> CompiledDataflow:
    with _span("compile.dataflow_metadata", gates=compiled.num_gates):
        n = compiled.num_gates
        # ``qubit_level[q]``: the level of the last gate on qubit ``q``
        # so far (-1 before any); the last slot is the -1 sentinel a
        # one-qubit gate's absent second operand reads.
        qubit_level = [-1] * (compiled.num_qubits + 1)
        level = []
        for a, b in zip(compiled.q0, compiled.q1):
            lv = max(qubit_level[a], qubit_level[b]) + 1
            qubit_level[a] = lv
            if b >= 0:
                qubit_level[b] = lv
            level.append(lv)
        level_arr = np.array(level, dtype=np.intp)
        num_levels = int(level_arr.max()) + 1 if n else 0
        level_offsets = np.zeros(num_levels + 1, dtype=np.intp)
        np.cumsum(
            np.bincount(level_arr, minlength=num_levels), out=level_offsets[1:]
        )
        return CompiledDataflow(
            num_levels=num_levels,
            level_order=np.argsort(level_arr, kind="stable").astype(np.intp),
            level_offsets=level_offsets,
        )


def dataflow_metadata(compiled: CompiledCircuit) -> CompiledDataflow:
    """Dependency levels for ``compiled``, memoized per compiled form.

    Built lazily because only the batched kernel and its shape rule read
    them; the serial engine and kernel analysis walk program order. The
    build is one pass over the already-flattened operand arrays — no
    ``Gate`` objects are touched.
    """
    return compiled.memoized(_build_dataflow)


def compile_circuit(circuit: Circuit, tech: TechnologyParams) -> CompiledCircuit:
    """Lower ``circuit`` to array form, memoized per ``(circuit, tech)``
    in the circuit's own memo, so it is freed with the circuit and an
    appended gate yields a fresh compilation.

    Raises:
        ValueError: A gate has three operands, a classical condition or
            result bit, or is a preparation or measurement (the message
            names the first such gate).
    """
    return circuit.memoized(_compile, tech)
