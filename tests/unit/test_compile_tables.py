"""Table-driven compilation against a per-gate oracle.

``compile_circuit`` reads each gate's latency and pi/8 flag from one row
per gate type. The oracle here derives the same columns gate by gate
from ``Gate`` properties and ``LogicalLatencyModel.gate_latency``, the
way compilation did before the tables, and every ``CompiledCircuit``
field must match it exactly. The dependency levels of
``dataflow_metadata`` must match ``CircuitDag``, and so must kernel
analysis's speed-of-data schedule and critical chain, which walk the
operand lists rather than dependency arrays. Compilation accepts one
gate shape (one or two operands, no classical bit, no prep/measure) and
refuses every other gate by name.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import Circuit, compile_circuit
from repro.testing.dag import CircuitDag, QecAwareLatency, asap_schedule
from repro.circuits import compiled as compiled_mod
from repro.circuits.compiled import dataflow_metadata
from repro.circuits.gate import GATE_ARITY, PI8_CONSUMING_GATES, Gate, GateType
from repro.circuits.latency import LogicalLatencyModel
from repro.kernels import analyze_kernel
from repro.kernels.analysis import KernelAnalysis
from repro.tech import ION_TRAP

TECHS = {
    "ion_trap": ION_TRAP,
    "scaled": ION_TRAP.scaled(0.37),
    "level2": ION_TRAP.at_level(2),
}


def _gate(gate_type, qubits=None, **kwargs):
    """A valid gate of ``gate_type``: rotations carry an angle and
    measurements a result bit."""
    if gate_type in (GateType.RZ, GateType.CRZ):
        kwargs.setdefault("angle_k", 3)
    if gate_type in (GateType.MEASURE_Z, GateType.MEASURE_X):
        kwargs.setdefault("result", f"m_{gate_type.value}")
    if qubits is None:
        qubits = tuple(range(GATE_ARITY[gate_type]))
    return Gate(gate_type, qubits, **kwargs)


#: The gate types compilation accepts, from gate properties alone.
LEAN_TYPES = [
    t for t in GateType
    if len(_gate(t).qubits) <= 2 and not (_gate(t).is_prep or _gate(t).is_measurement)
]
OTHER_TYPES = [t for t in GateType if t not in LEAN_TYPES]


def _oracle(circuit, tech):
    """Every ``CompiledCircuit`` field, derived gate by gate."""
    logical = LogicalLatencyModel(tech)
    fields = {name: [] for name in ("q0", "q1", "latency_us", "pi8_flag")}
    two_qubit = 0
    for gate in circuit:
        qubits = gate.qubits + (-1,)
        fields["q0"].append(qubits[0])
        fields["q1"].append(qubits[1])
        fields["latency_us"].append(logical.gate_latency(gate))
        fields["pi8_flag"].append(int(gate.gate_type in PI8_CONSUMING_GATES))
        two_qubit += gate.is_two_qubit
    pi8 = [i for i, flag in enumerate(fields["pi8_flag"]) if flag]
    fields.update(
        num_qubits=circuit.num_qubits,
        num_gates=len(circuit),
        pi8_count=len(pi8),
        one_qubit_moves=len(circuit) - two_qubit,
        two_qubit_moves=two_qubit,
    )
    return fields, pi8


def _assert_matches_oracle(circuit, tech):
    compiled = compile_circuit(circuit, tech)
    expected, pi8 = _oracle(circuit, tech)
    for name, value in expected.items():
        assert getattr(compiled, name) == value, name
    assert compiled.pi8_indices.dtype == np.intp
    assert compiled.pi8_indices.tolist() == pi8
    assert compiled.tech is tech
    fields = set(compiled.__dataclass_fields__)
    assert fields == set(expected) | {"pi8_indices", "tech", "_memo"}


def _assert_dataflow_matches_dag(circuit, tech):
    df = dataflow_metadata(compile_circuit(circuit, tech))
    n = len(circuit)
    levels = CircuitDag(circuit).levels()
    assert df.num_levels == (max(levels) + 1 if n else 0)
    order = df.level_order.tolist()
    assert order == sorted(range(n), key=lambda g: levels[g])
    assert np.diff(df.level_offsets).tolist() == [
        levels.count(lv) for lv in range(df.num_levels)
    ]


def _dag_schedule(circuit, tech):
    """ASAP starts and finishes over ``CircuitDag``, and the seed's
    backtrack: from the first last-finishing gate, step to the
    latest-finishing predecessor (the lowest index among ties).

    A finish adds the gate latency, then the QEC interaction, in the
    dataflow walk's order; ``asap_schedule`` adds their sum, which is
    the same float wherever the latencies are integers."""
    logical = LogicalLatencyModel(tech)
    qec = logical.qec_interaction_latency()
    dag = CircuitDag(circuit)
    starts, finish = [], []
    for i, gate in enumerate(circuit):
        start = max((finish[p] for p in dag.predecessors(i)), default=0.0)
        starts.append(start)
        finish.append(start + logical.gate_latency(gate) + qec)
    chain = []
    if finish:
        current = max(range(len(finish)), key=finish.__getitem__)
        chain.append(current)
        while dag.predecessors(current):
            current = max(dag.predecessors(current), key=finish.__getitem__)
            chain.append(current)
    chain.reverse()
    return starts, finish, chain


def _assert_schedule_matches_dag(circuit, tech):
    analysis = KernelAnalysis("random", circuit, tech, circuit.num_qubits)
    starts, finish, chain = _dag_schedule(circuit, tech)
    got_starts, got_finish = analysis._times()
    assert got_starts.tolist() == starts
    assert got_finish.tolist() == finish
    assert analysis._critical_chain() == chain
    assert analysis.execution_time_us == max(finish, default=0.0)
    if all(float(x).is_integer() for x in compile_circuit(circuit, tech).latency_us):
        entries = asap_schedule(circuit, QecAwareLatency(LogicalLatencyModel(tech)))
        assert [e.start for e in entries] == starts
        assert [e.finish for e in entries] == finish


def _one_of_every_lean_type():
    circ = Circuit(4)
    for gate_type in LEAN_TYPES:
        circ.append(_gate(gate_type))
    return circ


@pytest.mark.parametrize("tech", list(TECHS.values()), ids=list(TECHS))
def test_every_lean_gate_type_matches_oracle(tech):
    circ = _one_of_every_lean_type()
    _assert_matches_oracle(circ, tech)
    _assert_dataflow_matches_dag(circ, tech)
    _assert_schedule_matches_dag(circ, tech)


@pytest.mark.parametrize(
    "gate",
    [_gate(t, tuple(range(1, 1 + GATE_ARITY[t]))) for t in OTHER_TYPES]
    + [_gate(GateType.H, (1,), result="r")],
    ids=[t.value for t in OTHER_TYPES] + ["result"],
)
def test_other_gate_shapes_are_refused_by_name(gate):
    circ = Circuit(4).h(0).cx(0, 1)
    circ.append(gate)
    circ.t(2)
    with pytest.raises(ValueError, match=rf"^gate 2 \({gate.describe()}\)"):
        compile_circuit(circ, ION_TRAP)


def test_every_lean_gate_type_has_a_row():
    assert list(compiled_mod._gate_type_rows(ION_TRAP)) == LEAN_TYPES


def test_gate_type_without_a_row_fails_loudly(monkeypatch):
    full = compiled_mod._gate_type_rows

    def missing_cx(tech):
        rows = full(tech)
        del rows[GateType.CX]
        return rows

    monkeypatch.setattr(compiled_mod, "_gate_type_rows", missing_cx)
    with pytest.raises(ValueError, match=r"^gate 0 \(CX q0,q1\)"):
        compiled_mod._compile_body(Circuit(2).cx(0, 1), ION_TRAP)


def test_gate_type_without_an_arity_fails_loudly(monkeypatch):
    arity = dict(GATE_ARITY)
    del arity[GateType.SWAP]
    monkeypatch.setattr(compiled_mod, "GATE_ARITY", arity)
    with pytest.raises(KeyError):
        compiled_mod._gate_type_rows(ION_TRAP)


N = 5
_ONE_QUBIT = [t for t in LEAN_TYPES if GATE_ARITY[t] == 1]
_TWO_QUBIT = [t for t in LEAN_TYPES if GATE_ARITY[t] == 2]


@st.composite
def random_circuits(draw, max_gates=25):
    """Circuits over every gate type compilation accepts, pi/8
    consumers included; rotations carry an angle."""
    circ = Circuit(N)
    for _ in range(draw(st.integers(0, max_gates))):
        arity = draw(st.sampled_from([1, 1, 2]))
        qubits = tuple(draw(st.permutations(range(N)))[:arity])
        gate_type = draw(st.sampled_from(_ONE_QUBIT if arity == 1 else _TWO_QUBIT))
        angle = draw(st.integers(1, 6)) if gate_type in (GateType.RZ, GateType.CRZ) else None
        circ.append(Gate(gate_type, qubits, angle_k=angle))
    return circ


@pytest.mark.parametrize("tech", list(TECHS.values()), ids=list(TECHS))
@given(circ=random_circuits())
@settings(max_examples=40, deadline=None)
def test_random_circuits_match_oracle(tech, circ):
    _assert_matches_oracle(circ, tech)
    _assert_dataflow_matches_dag(circ, tech)
    _assert_schedule_matches_dag(circ, tech)


@pytest.mark.parametrize("kernel", ["qrca", "qcla", "qft"])
@pytest.mark.parametrize("code_level", [1, 2])
def test_kernels_match_oracle(kernel, code_level):
    analysis = analyze_kernel(kernel, 8, code_level=code_level)
    _assert_matches_oracle(analysis.circuit, analysis.tech)
    _assert_dataflow_matches_dag(analysis.circuit, analysis.tech)
    _assert_schedule_matches_dag(analysis.circuit, analysis.tech)
