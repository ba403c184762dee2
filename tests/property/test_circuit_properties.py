"""Property-based tests: circuit DAG and scheduling invariants."""

from hypothesis import given, settings, strategies as st

from repro.circuits import Circuit
from repro.testing.dag import (
    CircuitDag,
    PhysicalLatencyModel,
    asap_schedule,
    critical_path,
)
from repro.circuits.gate import Gate, GateType
from repro.tech import ION_TRAP

LAT = PhysicalLatencyModel(ION_TRAP)
N = 5


@st.composite
def random_circuits(draw, n=N, max_gates=15):
    num = draw(st.integers(0, max_gates))
    circ = Circuit(n)
    for _ in range(num):
        arity = draw(st.sampled_from([1, 1, 2]))
        if arity == 1:
            gt = draw(st.sampled_from([GateType.H, GateType.T, GateType.S,
                                       GateType.X, GateType.PREP_0]))
            circ.append(Gate(gt, (draw(st.integers(0, n - 1)),)))
        else:
            q1 = draw(st.integers(0, n - 1))
            q2 = draw(st.integers(0, n - 1).filter(lambda q: q != q1))
            gt = draw(st.sampled_from([GateType.CX, GateType.CZ]))
            circ.append(Gate(gt, (q1, q2)))
    return circ


class TestDagInvariants:
    @given(random_circuits())
    @settings(max_examples=80)
    def test_edges_point_forward(self, circ):
        dag = CircuitDag(circ)
        for i in range(len(circ)):
            assert all(p < i for p in dag.predecessors(i))
            assert all(s > i for s in dag.successors(i))

    @given(random_circuits())
    @settings(max_examples=80)
    def test_pred_succ_symmetric(self, circ):
        dag = CircuitDag(circ)
        for i in range(len(circ)):
            for p in dag.predecessors(i):
                assert i in dag.successors(p)

    @given(random_circuits())
    @settings(max_examples=80)
    def test_same_qubit_gates_ordered(self, circ):
        """Consecutive gates on a shared qubit must be DAG-connected."""
        dag = CircuitDag(circ)
        last_on = {}
        for i, gate in enumerate(circ):
            for q in gate.qubits:
                if q in last_on:
                    assert last_on[q] in dag.predecessors(i)
                last_on[q] = i


class TestScheduleInvariants:
    @given(random_circuits())
    @settings(max_examples=80)
    def test_no_dependency_violated(self, circ):
        entries = asap_schedule(circ, LAT)
        dag = CircuitDag(circ)
        for entry in entries:
            for p in dag.predecessors(entry.index):
                assert entries[p].finish <= entry.start + 1e-9

    @given(random_circuits())
    @settings(max_examples=80)
    def test_durations_positive(self, circ):
        for entry in asap_schedule(circ, LAT):
            assert entry.duration > 0

    @given(random_circuits())
    @settings(max_examples=80)
    def test_critical_path_bounds(self, circ):
        """Makespan is bounded below by the longest single gate and above
        by the serial sum of all gate latencies."""
        cp = critical_path(circ, LAT)
        latencies = [LAT.gate_latency(g) for g in circ]
        assert cp <= sum(latencies) + 1e-9
        if latencies:
            assert cp >= max(latencies) - 1e-9

    @given(random_circuits())
    @settings(max_examples=60)
    def test_appending_gate_never_shrinks_critical_path(self, circ):
        before = critical_path(circ, LAT)
        extended = circ.copy()
        extended.h(0)
        assert critical_path(extended, LAT) >= before - 1e-9

    @given(random_circuits())
    @settings(max_examples=60)
    def test_depth_le_gate_count(self, circ):
        assert circ.depth() <= len(circ)
