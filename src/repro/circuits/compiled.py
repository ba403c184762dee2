"""Compiled circuits: a struct-of-arrays lowering of :class:`Circuit`.

The dataflow simulator's hot loop visits every gate of a decomposed
kernel once per sweep point. Walking :class:`~repro.circuits.gate.Gate`
objects costs a dict lookup, several property evaluations and a latency
method call per gate; across a Figure 15 sweep (dozens of points, three
architectures) that object traffic dominates wall-clock. Compilation
pays those costs exactly once per ``(circuit, tech)`` pair:

* gate types are interned to small integers (enum-definition order);
* operand qubits are flattened into parallel index lists with ``-1``
  sentinels for absent operands (arity is at most 3);
* per-gate logical latencies are precomputed from
  :class:`~repro.circuits.latency.LogicalLatencyModel`;
* classical condition/result bit names are interned to integer ids;
* movement class (none / one-qubit / two-qubit) and pi/8-consumption
  flags are precomputed, along with the aggregate counts the simulator
  needs for closed-form ancilla and teleport accounting.

The compiled form is immutable and safe to share between simulators
and sweep points. :func:`compile_circuit` memoizes per
circuit object (keyed by gate count and technology, since circuits are
append-only by convention), so repeated sweeps over the same kernel
compile exactly once.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.circuits.circuit import Circuit
from repro.circuits.gate import GATE_ARITY, PI8_CONSUMING_GATES, Gate, GateType
from repro.circuits.latency import LogicalLatencyModel
from repro.obs.trace import span as _span
from repro.tech import TechnologyParams

#: Gate-type interning table: enum-definition order. Consumed by the
#: schedule/critical-path lowering (:func:`dataflow_metadata`), which
#: needs the gate identity without the Gate object.
GATE_CODES: Dict[GateType, int] = {t: i for i, t in enumerate(GateType)}

#: Movement classes (see ``move_kind``).
MOVE_NONE = 0  # preparation / measurement: runs in place
MOVE_ONE_QUBIT = 1
MOVE_TWO_QUBIT = 2


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
        gate_codes: Int-coded gate types (:data:`GATE_CODES`).
        q0: First operand qubit of each gate.
        q1: Second operand qubit, or ``-1``.
        q2: Third operand qubit (Toffoli macro), or ``-1``.
        latency_us: Logical gate latency of each gate.
        move_kind: Movement class of each gate (``MOVE_*``).
        cond_id: Interned condition-bit id, or ``-1``.
        result_id: Interned result-bit id, or ``-1``.
        bit_names: Interned classical bit names, id order.
        pi8_flag: 1 for gates consuming an encoded pi/8 ancilla.
        pi8_indices: Gate indices of the pi/8 consumers, program order.
        pi8_count: Number of pi/8-consuming gates.
        one_qubit_moves: Gates in movement class ``MOVE_ONE_QUBIT``.
        two_qubit_moves: Gates in movement class ``MOVE_TWO_QUBIT``.
        lean: Whether every gate has one or two operands, no classical
            bit and a movement class set by its arity (no prep/measure):
            the shape the serial loops walk. Every kernel is lean.
        source_ref: Weak reference to the source circuit, so consumers
            can reject a compiled form handed to the wrong circuit (two
            different circuits can share a gate count). Weak because the
            compilation cache must not keep its own keys alive.
    """

    num_qubits: int
    num_gates: int
    tech: TechnologyParams
    gate_codes: Tuple[int, ...]
    q0: List[int]
    q1: List[int]
    q2: List[int]
    latency_us: List[float]
    move_kind: List[int]
    cond_id: List[int]
    result_id: List[int]
    bit_names: Tuple[str, ...]
    pi8_flag: List[int]
    pi8_indices: np.ndarray
    pi8_count: int
    one_qubit_moves: int
    two_qubit_moves: int
    lean: bool
    source_ref: "weakref.ref[Circuit]"

    @property
    def num_bits(self) -> int:
        return len(self.bit_names)

    def compiled_from(self, circuit: Circuit) -> bool:
        """Whether this form was compiled from ``circuit``.

        False when the source weak reference has died: simulating needs
        the source circuit in hand, which keeps the reference alive, so
        a dead reference means ``circuit`` is necessarily some other
        object — shape checks alone could not tell it apart.
        """
        return self.source_ref() is circuit


def _compile(circuit: Circuit, tech: TechnologyParams) -> CompiledCircuit:
    with _span("compile.lower", gates=len(circuit), tech=tech.name):
        return _compile_body(circuit, tech)


def _gate_type_rows(
    tech: TechnologyParams,
) -> Dict[GateType, Tuple[int, float, int, int]]:
    """``(code, latency, movement class, pi/8 flag)`` per gate type.

    Every per-gate column but the operands and bit names depends on the
    gate type alone, so each type's row is read once from a
    representative gate's properties (valid for every type: measurements
    need a result bit, rotations an angle) rather than once per gate.
    """
    logical = LogicalLatencyModel(tech)
    rows = {}
    for gate_type, code in GATE_CODES.items():
        gate = Gate(
            gate_type, tuple(range(GATE_ARITY[gate_type])), angle_k=1, result="r"
        )
        if gate.is_prep or gate.is_measurement:
            move = MOVE_NONE
        elif gate.is_two_qubit:
            move = MOVE_TWO_QUBIT
        else:
            move = MOVE_ONE_QUBIT
        pi8 = 1 if gate_type in PI8_CONSUMING_GATES else 0
        rows[gate_type] = (code, logical.gate_latency(gate), move, pi8)
    return rows


def _compile_body(circuit: Circuit, tech: TechnologyParams) -> CompiledCircuit:
    rows = _gate_type_rows(tech)
    q0: List[int] = []
    q1: List[int] = []
    q2: List[int] = []
    codes: List[int] = []
    latency: List[float] = []
    move_kind: List[int] = []
    cond_id: List[int] = []
    result_id: List[int] = []
    pi8_flag: List[int] = []
    bit_ids: Dict[str, int] = {}
    for gate in circuit:
        code, gate_latency, move, pi8 = rows[gate.gate_type]
        codes.append(code)
        latency.append(gate_latency)
        move_kind.append(move)
        pi8_flag.append(pi8)
        qubits = gate.qubits
        q0.append(qubits[0])
        q1.append(qubits[1] if len(qubits) > 1 else -1)
        q2.append(qubits[2] if len(qubits) > 2 else -1)
        for name, ids in ((gate.condition, cond_id), (gate.result, result_id)):
            if name is None:
                ids.append(-1)
            else:
                ids.append(bit_ids.setdefault(name, len(bit_ids)))
    pi8_indices = [i for i, flag in enumerate(pi8_flag) if flag]
    return CompiledCircuit(
        num_qubits=circuit.num_qubits,
        num_gates=len(circuit),
        tech=tech,
        gate_codes=tuple(codes),
        q0=q0,
        q1=q1,
        q2=q2,
        latency_us=latency,
        move_kind=move_kind,
        cond_id=cond_id,
        result_id=result_id,
        bit_names=tuple(bit_ids),
        pi8_flag=pi8_flag,
        pi8_indices=np.array(pi8_indices, dtype=np.intp),
        pi8_count=len(pi8_indices),
        one_qubit_moves=move_kind.count(MOVE_ONE_QUBIT),
        two_qubit_moves=move_kind.count(MOVE_TWO_QUBIT),
        lean=not bit_ids and MOVE_NONE not in move_kind
        and max(q2, default=-1) < 0,
        source_ref=weakref.ref(circuit),
    )


@dataclass(frozen=True, eq=False)
class CompiledDataflow:
    """Dependency structure of a compiled circuit, in flat array form.

    The dependency rule matches :class:`repro.testing.dag.CircuitDag`
    exactly: two gates touching the same qubit are ordered, and a
    conditioned gate depends on the measurement writing its condition
    bit. Per-gate predecessor lists are stored as a CSR pair
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
    n = compiled.num_gates
    last_on_qubit = [-1] * compiled.num_qubits
    bit_writer = [-1] * compiled.num_bits
    # Candidate predecessors of each gate, one list per source: the last
    # gate on each operand qubit and the writer of the condition bit, or
    # -1. ``level[-1]`` is a -1 sentinel, so a missing candidate never
    # raises a gate's level and a gate without predecessors gets 0.
    cand0, cand1, cand2, cand3 = ([-1] * n for _ in range(4))
    level = [0] * n + [-1]
    operands = zip(
        compiled.q0, compiled.q1, compiled.q2, compiled.cond_id, compiled.result_id
    )
    for i, (a, b, c, cond, res) in enumerate(operands):
        p0 = cand0[i] = last_on_qubit[a]
        last_on_qubit[a] = i
        p1 = p2 = p3 = -1
        if b >= 0:
            p1 = cand1[i] = last_on_qubit[b]
            last_on_qubit[b] = i
            if c >= 0:
                p2 = cand2[i] = last_on_qubit[c]
                last_on_qubit[c] = i
        if cond >= 0:
            p3 = cand3[i] = bit_writer[cond]
        if res >= 0:
            bit_writer[res] = i
        level[i] = max(level[p0], level[p1], level[p2], level[p3]) + 1
    # Sorting each gate's candidates puts the -1s first and duplicates
    # side by side; what survives is the ascending predecessor list.
    cand = np.array([cand0, cand1, cand2, cand3], dtype=np.intp).T.copy()
    cand.sort(axis=1)
    keep = cand >= 0
    keep[:, 1:] &= cand[:, 1:] != cand[:, :-1]
    counts = np.count_nonzero(keep, axis=1).astype(np.intp)
    pred_offsets = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(counts, out=pred_offsets[1:])
    level_arr = np.array(level[:n], dtype=np.intp)
    num_levels = int(level_arr.max()) + 1 if n else 0
    order = np.argsort(level_arr, kind="stable").astype(np.intp)
    level_offsets = np.zeros(num_levels + 1, dtype=np.intp)
    np.cumsum(np.bincount(level_arr, minlength=num_levels), out=level_offsets[1:])
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


_DATAFLOW_CACHE: "weakref.WeakKeyDictionary[CompiledCircuit, CompiledDataflow]" = (
    weakref.WeakKeyDictionary()
)


def dataflow_metadata(compiled: CompiledCircuit) -> CompiledDataflow:
    """Dependency arrays for ``compiled``, memoized per compiled form.

    Built lazily because only schedule-style consumers (kernel analysis)
    need it; the dataflow simulator's sequential replay does not. The
    build is one pass over the already-flattened operand arrays — no
    ``Gate`` objects are touched.
    """
    df = _DATAFLOW_CACHE.get(compiled)
    if df is None:
        with _span("compile.dataflow_metadata", gates=compiled.num_gates):
            df = _build_dataflow(compiled)
        _DATAFLOW_CACHE[compiled] = df
    return df


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
