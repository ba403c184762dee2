"""Unit tests for repro.arch.simulator."""

import pytest

from repro.arch.architectures import CqlaConfig
from repro.arch.simulator import DataflowSimulator, ZEROS_PER_QEC
from repro.arch.supply import PI8, ZERO, SteadyRateSupply
from repro.circuits import Circuit
from repro.circuits.latency import LogicalLatencyModel
from repro.tech import ION_TRAP
from repro.testing.reference import run_reference

QEC = LogicalLatencyModel(ION_TRAP).qec_interaction_latency()


class TestSpeedOfDataLimit:
    def test_single_gate(self):
        circ = Circuit(2).cx(0, 1)
        result = DataflowSimulator(circ).run()
        assert result.makespan_us == ION_TRAP.t_2q + QEC

    def test_serial_chain(self):
        circ = Circuit(1).h(0).h(0)
        result = DataflowSimulator(circ).run()
        assert result.makespan_us == 2 * (ION_TRAP.t_1q + QEC)

    def test_parallel_gates_overlap(self):
        circ = Circuit(2).h(0).h(1)
        result = DataflowSimulator(circ).run()
        assert result.makespan_us == ION_TRAP.t_1q + QEC

    def test_t_gate_priced_as_interaction(self):
        circ = Circuit(1).t(0)
        result = DataflowSimulator(circ).run()
        assert result.makespan_us == 61.0 + QEC

    def test_empty_circuit(self):
        result = DataflowSimulator(Circuit(3)).run()
        assert result.makespan_us == 0.0
        assert result.gates == 0


class TestAncillaAccounting:
    def test_zero_consumption(self):
        circ = Circuit(2).h(0).cx(0, 1).t(1)
        result = DataflowSimulator(circ).run()
        assert result.zero_ancillae_consumed == 3 * ZEROS_PER_QEC

    def test_pi8_consumption_counts_t_types(self):
        circ = Circuit(1).t(0).tdg(0).h(0)
        result = DataflowSimulator(circ).run()
        assert result.pi8_ancillae_consumed == 2

    def test_starved_supply_stretches_makespan(self):
        circ = Circuit(1).h(0).h(0)
        slow = SteadyRateSupply({ZERO: 1.0})  # 1 ancilla/ms
        result = DataflowSimulator(circ, supply=slow).run()
        # 4 ancillae at 1/ms: the last pair is ready at 4000us.
        assert result.makespan_us >= 4000.0

    def test_fast_supply_matches_infinite(self):
        circ = Circuit(2).h(0).cx(0, 1)
        fast = SteadyRateSupply({ZERO: 1e9, PI8: 1e9})
        assert DataflowSimulator(circ, supply=fast).run().makespan_us == pytest.approx(
            DataflowSimulator(circ).run().makespan_us
        )


class TestMovementPenalty:
    def test_penalty_adds_per_gate(self):
        circ = Circuit(1).h(0)
        base = DataflowSimulator(circ).run().makespan_us
        moved = DataflowSimulator(circ, movement_penalty_us=10.0).run().makespan_us
        assert moved == base + 10.0

    def test_two_qubit_penalty_separate(self):
        circ = Circuit(2).cx(0, 1)
        result = DataflowSimulator(
            circ, movement_penalty_us=1.0, two_qubit_movement_penalty_us=100.0
        ).run()
        assert result.makespan_us == 100.0 + ION_TRAP.t_2q + QEC

    def test_preps_and_measurements_skip_movement(self):
        """The simulator refuses a prep; the reference loop, which still
        runs every gate shape, prepares and measures in place."""
        for circ in (Circuit(1).prep_0(0), Circuit(1).measure_z(0, "m")):
            with pytest.raises(ValueError, match="^gate 0 "):
                DataflowSimulator(circ).run()
            base = run_reference(DataflowSimulator(circ)).makespan_us
            moved = run_reference(
                DataflowSimulator(circ, movement_penalty_us=50.0)
            ).makespan_us
            assert moved == base


class TestCqlaCache:
    def test_misses_counted(self):
        circ = Circuit(4).cx(0, 1).cx(2, 3).cx(0, 1)
        config = CqlaConfig(cache_fraction=0.5, ports=1)  # capacity 2
        result = DataflowSimulator(circ, cqla=config).run()
        # Qubits 0,1 miss; 2,3 evict them; 0,1 miss again.
        assert result.cache_misses == 6

    def test_hits_after_fill(self):
        circ = Circuit(2).cx(0, 1).cx(0, 1).cx(0, 1)
        config = CqlaConfig(cache_fraction=1.0)
        result = DataflowSimulator(Circuit(2).cx(0, 1), cqla=config).run()
        assert result.cache_misses == 2  # only the compulsory fills

    def test_teleports_through_limited_ports_serialize(self):
        circ = Circuit(4).cx(0, 1).cx(2, 3)
        narrow = DataflowSimulator(
            circ, cqla=CqlaConfig(cache_fraction=1.0, ports=1)
        ).run()
        wide = DataflowSimulator(
            circ, cqla=CqlaConfig(cache_fraction=1.0, ports=8)
        ).run()
        assert narrow.makespan_us > wide.makespan_us

    def test_conditional_gate_waits_for_result(self):
        """The simulator refuses a condition bit; in the reference loop,
        which still runs one, the conditioned gate waits for it."""
        circ = Circuit(2).measure_z(0, "m").x(1, condition="m")
        with pytest.raises(ValueError, match="^gate 0 "):
            DataflowSimulator(circ).run()
        result = run_reference(DataflowSimulator(circ))
        # The conditional X cannot start before the measurement finishes.
        assert result.makespan_us >= ION_TRAP.t_meas + QEC + ION_TRAP.t_1q
