"""Unit tests for repro.testing.dag: dependency analysis and scheduling."""

import pytest

from repro.circuits import Circuit
from repro.testing.dag import (
    CircuitDag,
    PhysicalLatencyModel,
    asap_schedule,
    critical_path,
    critical_path_gates,
    schedule_makespan,
)
from repro.tech import ION_TRAP

LAT = PhysicalLatencyModel(ION_TRAP)


class TestCircuitDag:
    def test_serial_chain_dependencies(self):
        circ = Circuit(1).h(0).t(0).h(0)
        dag = CircuitDag(circ)
        assert dag.predecessors(1) == (0,)
        assert dag.successors(1) == (2,)

    def test_parallel_gates_independent(self):
        circ = Circuit(2).h(0).h(1)
        dag = CircuitDag(circ)
        assert dag.predecessors(1) == ()

    def test_two_qubit_gate_joins_lines(self):
        circ = Circuit(2).h(0).h(1).cx(0, 1)
        dag = CircuitDag(circ)
        assert set(dag.predecessors(2)) == {0, 1}

    def test_classical_dependency(self):
        circ = Circuit(2).measure_z(0, "m").x(1, condition="m")
        dag = CircuitDag(circ)
        assert dag.predecessors(1) == (0,)

    def test_sources_and_sinks(self):
        circ = Circuit(2).h(0).h(1).cx(0, 1)
        dag = CircuitDag(circ)
        assert set(dag.sources()) == {0, 1}
        assert dag.sinks() == (2,)

    def test_levels_monotone(self):
        circ = Circuit(2).h(0).cx(0, 1).h(1)
        levels = CircuitDag(circ).levels()
        assert levels == [0, 1, 2]


class TestAsapSchedule:
    def test_empty_circuit(self):
        assert asap_schedule(Circuit(3), LAT) == []

    def test_serial_latencies_accumulate(self):
        circ = Circuit(1).h(0).h(0)
        entries = asap_schedule(circ, LAT)
        assert entries[0].start == 0.0
        assert entries[1].start == ION_TRAP.t_1q

    def test_parallel_gates_start_together(self):
        circ = Circuit(2).h(0).cx(0, 1)
        entries = asap_schedule(circ, LAT)
        assert entries[1].start == entries[0].finish

    def test_durations_match_model(self):
        circ = Circuit(2).cx(0, 1)
        entry = asap_schedule(circ, LAT)[0]
        assert entry.duration == ION_TRAP.t_2q

    def test_makespan(self):
        circ = Circuit(1).h(0).measure_z(0, "m")
        entries = asap_schedule(circ, LAT)
        assert schedule_makespan(entries) == ION_TRAP.t_1q + ION_TRAP.t_meas


class TestCriticalPath:
    def test_single_gate(self):
        assert critical_path(Circuit(1).h(0), LAT) == ION_TRAP.t_1q

    def test_parallel_branches_take_max(self):
        circ = Circuit(2).measure_z(0, "m").h(1)
        assert critical_path(circ, LAT) == ION_TRAP.t_meas

    def test_chain_gates_returned_in_order(self):
        circ = Circuit(2).h(0).cx(0, 1).h(1)
        chain = critical_path_gates(circ, LAT)
        assert chain == [0, 1, 2]

    def test_empty_chain(self):
        assert critical_path_gates(Circuit(1), LAT) == []

    def test_critical_path_at_least_depth_times_min_latency(self):
        circ = Circuit(1)
        for _ in range(10):
            circ.h(0)
        assert critical_path(circ, LAT) == 10 * ION_TRAP.t_1q
