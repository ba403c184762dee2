"""Table-driven compilation against a per-gate oracle.

``compile_circuit`` reads each gate's latency and pi/8 flag from one row
per gate type. The oracle here derives the same columns gate by gate
from ``Gate`` properties and ``LogicalLatencyModel.gate_latency``, the
way compilation did before the tables, and every ``CompiledCircuit``
field must match it exactly. The dependency arrays of
``dataflow_metadata`` must match ``CircuitDag``. Compilation accepts one
gate shape (one or two operands, no classical bit, no prep/measure) and
refuses every other gate by name.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import Circuit, compile_circuit
from repro.testing.dag import CircuitDag
from repro.circuits import compiled as compiled_mod
from repro.circuits.compiled import dataflow_metadata
from repro.circuits.gate import GATE_ARITY, PI8_CONSUMING_GATES, Gate, GateType
from repro.circuits.latency import LogicalLatencyModel
from repro.kernels import analyze_kernel
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
    assert compiled.compiled_from(circuit)
    fields = set(compiled.__dataclass_fields__)
    assert fields == set(expected) | {"pi8_indices", "tech", "source_ref", "_memo"}


def _assert_dataflow_matches_dag(circuit, tech):
    df = dataflow_metadata(compile_circuit(circuit, tech))
    dag = CircuitDag(circuit)
    n = len(circuit)
    assert df.pred_offsets.tolist()[0] == 0
    for i in range(n):
        preds = df.pred_indices[df.pred_offsets[i]:df.pred_offsets[i + 1]]
        assert tuple(preds.tolist()) == dag.predecessors(i)
    levels = dag.levels()
    assert df.num_levels == (max(levels) + 1 if n else 0)
    order = df.level_order.tolist()
    assert order == sorted(range(n), key=lambda g: levels[g])
    flat = [p for g in order for p in dag.predecessors(g)]
    assert df.level_pred_flat.tolist() == flat
    assert np.diff(df.level_pred_seg).tolist() == [
        len(dag.predecessors(g)) for g in order
    ]


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


@pytest.mark.parametrize("kernel", ["qrca", "qcla", "qft"])
@pytest.mark.parametrize("code_level", [1, 2])
def test_kernels_match_oracle(kernel, code_level):
    analysis = analyze_kernel(kernel, 8, code_level=code_level)
    _assert_matches_oracle(analysis.circuit, analysis.tech)
    _assert_dataflow_matches_dag(analysis.circuit, analysis.tech)
