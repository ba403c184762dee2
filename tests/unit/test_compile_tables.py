"""Table-driven compilation against a per-gate oracle.

``compile_circuit`` reads each gate's code, latency, movement class and
pi/8 flag from one row per gate type. The oracle here derives the same
columns gate by gate from ``Gate`` properties and
``LogicalLatencyModel.gate_latency``, the way compilation did before the
tables, and every ``CompiledCircuit`` field must match it exactly. The
dependency arrays of ``dataflow_metadata`` must match ``CircuitDag``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import Circuit, compile_circuit
from repro.testing.dag import CircuitDag
from repro.circuits import compiled as compiled_mod
from repro.circuits.compiled import (
    GATE_CODES,
    MOVE_NONE,
    MOVE_ONE_QUBIT,
    MOVE_TWO_QUBIT,
    dataflow_metadata,
)
from repro.circuits.gate import GATE_ARITY, PI8_CONSUMING_GATES, Gate, GateType
from repro.circuits.latency import LogicalLatencyModel
from repro.kernels import analyze_kernel
from repro.tech import ION_TRAP

TECHS = {
    "ion_trap": ION_TRAP,
    "scaled": ION_TRAP.scaled(0.37),
    "level2": ION_TRAP.at_level(2),
}


def _oracle(circuit, tech):
    """Every ``CompiledCircuit`` field, derived gate by gate."""
    logical = LogicalLatencyModel(tech)
    fields = {
        name: []
        for name in ("gate_codes", "q0", "q1", "q2", "latency_us", "move_kind",
                     "cond_id", "result_id", "pi8_flag")
    }
    bit_ids = {}
    for gate in circuit:
        qubits = gate.qubits + (-1, -1)
        fields["q0"].append(qubits[0])
        fields["q1"].append(qubits[1])
        fields["q2"].append(qubits[2])
        fields["gate_codes"].append(list(GateType).index(gate.gate_type))
        fields["latency_us"].append(logical.gate_latency(gate))
        if gate.is_prep or gate.is_measurement:
            fields["move_kind"].append(MOVE_NONE)
        elif gate.is_two_qubit:
            fields["move_kind"].append(MOVE_TWO_QUBIT)
        else:
            fields["move_kind"].append(MOVE_ONE_QUBIT)
        for name, key in ((gate.condition, "cond_id"), (gate.result, "result_id")):
            if name is None:
                fields[key].append(-1)
            else:
                fields[key].append(bit_ids.setdefault(name, len(bit_ids)))
        fields["pi8_flag"].append(int(gate.gate_type in PI8_CONSUMING_GATES))
    fields["gate_codes"] = tuple(fields["gate_codes"])
    pi8 = [i for i, flag in enumerate(fields["pi8_flag"]) if flag]
    fields.update(
        num_qubits=circuit.num_qubits,
        num_gates=len(circuit),
        bit_names=tuple(bit_ids),
        pi8_count=len(pi8),
        one_qubit_moves=fields["move_kind"].count(MOVE_ONE_QUBIT),
        two_qubit_moves=fields["move_kind"].count(MOVE_TWO_QUBIT),
        lean=all(
            len(gate.qubits) <= 2
            and gate.condition is None
            and gate.result is None
            and not (gate.is_prep or gate.is_measurement)
            for gate in circuit
        ),
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
    assert fields == set(expected) | {"pi8_indices", "tech", "source_ref"}


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


def _one_of_every_type():
    """One gate per ``GateType`` member, plus a conditioned gate."""
    circ = Circuit(4)
    for gate_type in GateType:
        circ.append(
            Gate(
                gate_type,
                tuple(range(GATE_ARITY[gate_type])),
                angle_k=3 if gate_type in (GateType.RZ, GateType.CRZ) else None,
                result=f"m_{gate_type.value}"
                if gate_type in (GateType.MEASURE_Z, GateType.MEASURE_X)
                else None,
            )
        )
    circ.x(3, condition="m_measure_z")
    return circ


@pytest.mark.parametrize("tech", list(TECHS.values()), ids=list(TECHS))
def test_every_gate_type_matches_oracle(tech):
    circ = _one_of_every_type()
    assert {g.gate_type for g in circ} == set(GateType)
    _assert_matches_oracle(circ, tech)
    _assert_dataflow_matches_dag(circ, tech)


def test_ccx_takes_the_one_qubit_movement_class():
    circ = Circuit(3).ccx(0, 1, 2)
    compiled = compile_circuit(circ, ION_TRAP)
    assert compiled.move_kind == [MOVE_ONE_QUBIT]
    assert compiled.q2 == [2]


def test_every_gate_type_has_a_row():
    rows = compiled_mod._gate_type_rows(ION_TRAP)
    assert set(rows) == set(GateType)
    assert [rows[t][0] for t in GateType] == [GATE_CODES[t] for t in GateType]


def test_gate_type_without_a_row_fails_loudly(monkeypatch):
    full = compiled_mod._gate_type_rows

    def missing_ccx(tech):
        rows = full(tech)
        del rows[GateType.CCX]
        return rows

    monkeypatch.setattr(compiled_mod, "_gate_type_rows", missing_ccx)
    with pytest.raises(KeyError):
        compiled_mod._compile_body(Circuit(3).ccx(0, 1, 2), ION_TRAP)


def test_gate_type_without_an_arity_fails_loudly(monkeypatch):
    arity = dict(GATE_ARITY)
    del arity[GateType.SWAP]
    monkeypatch.setattr(compiled_mod, "GATE_ARITY", arity)
    with pytest.raises(KeyError):
        compiled_mod._gate_type_rows(ION_TRAP)


N = 5
_ONE_QUBIT = [t for t in GateType if GATE_ARITY[t] == 1]
_TWO_QUBIT = [t for t in GateType if GATE_ARITY[t] == 2]


@st.composite
def random_circuits(draw, max_gates=25):
    """Circuits over every gate type: rotations carry an angle,
    measurements a fresh result bit, and some gates a condition on an
    earlier result."""
    circ = Circuit(N)
    written = []
    for _ in range(draw(st.integers(0, max_gates))):
        arity = draw(st.sampled_from([1, 1, 2, 3]))
        qubits = tuple(draw(st.permutations(range(N)))[:arity])
        gate_type = {
            1: lambda: draw(st.sampled_from(_ONE_QUBIT)),
            2: lambda: draw(st.sampled_from(_TWO_QUBIT)),
            3: lambda: GateType.CCX,
        }[arity]()
        angle = draw(st.integers(1, 6)) if gate_type in (GateType.RZ, GateType.CRZ) else None
        result = None
        if gate_type in (GateType.MEASURE_Z, GateType.MEASURE_X):
            result = f"m{len(circ)}"
        condition = None
        if written and draw(st.booleans()):
            condition = draw(st.sampled_from(written))
        circ.append(Gate(gate_type, qubits, angle_k=angle,
                         condition=condition, result=result))
        if result is not None:
            written.append(result)
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
