"""Property-based tests: dataflow simulator conservation and monotonicity."""

from hypothesis import given, settings, strategies as st

from repro.arch.simulator import DataflowSimulator, ZEROS_PER_QEC
from repro.arch.supply import PI8, ZERO, SteadyRateSupply
from repro.circuits import Circuit
from repro.circuits.gate import Gate, GateType


@st.composite
def kernel_like_circuits(draw, n=4, max_gates=12):
    num = draw(st.integers(1, max_gates))
    circ = Circuit(n)
    for _ in range(num):
        choice = draw(st.sampled_from(["h", "t", "cx"]))
        q1 = draw(st.integers(0, n - 1))
        if choice == "cx":
            q2 = draw(st.integers(0, n - 1).filter(lambda q: q != q1))
            circ.cx(q1, q2)
        elif choice == "t":
            circ.t(q1)
        else:
            circ.h(q1)
    return circ


class TestConservation:
    @given(kernel_like_circuits())
    @settings(max_examples=60)
    def test_zero_consumption_is_two_per_gate(self, circ):
        result = DataflowSimulator(circ).run()
        assert result.zero_ancillae_consumed == ZEROS_PER_QEC * len(circ)

    @given(kernel_like_circuits())
    @settings(max_examples=60)
    def test_pi8_consumption_counts_t(self, circ):
        result = DataflowSimulator(circ).run()
        t_count = circ.count(GateType.T) + circ.count(GateType.T_DAG)
        assert result.pi8_ancillae_consumed == t_count

    @given(kernel_like_circuits())
    @settings(max_examples=60)
    def test_makespan_nonnegative_and_finite(self, circ):
        result = DataflowSimulator(circ).run()
        assert 0 <= result.makespan_us < float("inf")


class TestMonotonicity:
    @given(kernel_like_circuits(), st.floats(0.5, 50.0))
    @settings(max_examples=60)
    def test_more_supply_never_slower(self, circ, rate):
        slow = DataflowSimulator(
            circ, supply=SteadyRateSupply({ZERO: rate, PI8: rate})
        ).run()
        fast = DataflowSimulator(
            circ, supply=SteadyRateSupply({ZERO: 4 * rate, PI8: 4 * rate})
        ).run()
        assert fast.makespan_us <= slow.makespan_us + 1e-6

    @given(kernel_like_circuits(), st.floats(0.0, 100.0))
    @settings(max_examples=60)
    def test_movement_penalty_never_speeds_up(self, circ, penalty):
        base = DataflowSimulator(circ).run().makespan_us
        moved = DataflowSimulator(circ, movement_penalty_us=penalty).run().makespan_us
        assert moved >= base - 1e-9

    @given(kernel_like_circuits())
    @settings(max_examples=40)
    def test_infinite_supply_is_lower_bound(self, circ):
        floor = DataflowSimulator(circ).run().makespan_us
        constrained = DataflowSimulator(
            circ, supply=SteadyRateSupply({ZERO: 2.0, PI8: 1.0})
        ).run().makespan_us
        assert constrained >= floor - 1e-9

    @given(kernel_like_circuits())
    @settings(max_examples=40)
    def test_makespan_at_least_dependency_floor(self, circ):
        """Supply constraints can only add to the pure dataflow bound."""
        from repro.testing.dag import QecAwareLatency, asap_schedule
        from repro.circuits.latency import LogicalLatencyModel
        from repro.tech import ION_TRAP

        floor = max(
            (e.finish for e in asap_schedule(circ, QecAwareLatency(LogicalLatencyModel(ION_TRAP)))),
            default=0.0,
        )
        result = DataflowSimulator(circ).run()
        assert result.makespan_us >= floor - 1e-6
