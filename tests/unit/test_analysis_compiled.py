"""Bit-identical equivalence of the compiled kernel-analysis hot paths.

The seed implementation walked per-gate ``ScheduleEntry`` objects (ASAP
schedule, critical-path extraction, and an O(gates x buckets) bucket
loop). The compiled implementation reduces the memoized compiled-circuit
arrays with numpy. These tests re-run the seed logic verbatim and demand
exact (==) equality — same floats, same chain, same profile — on the
8-bit kernels and on all three 32-bit kernels the paper reports.
"""

import pytest

from repro.testing.dag import CircuitDag, QecAwareLatency, asap_schedule
from repro.kernels.analysis import ZEROS_PER_QEC, _PI8_TYPES


def _seed_schedule(ka):
    return asap_schedule(ka.circuit, QecAwareLatency(ka._logical))


def _seed_table2(ka):
    """The seed table2_row: ScheduleEntry walk + CircuitDag backtrack."""
    schedule = _seed_schedule(ka)
    dag = CircuitDag(ka.circuit)
    current = max(schedule, key=lambda e: e.finish)
    chain = [current]
    while True:
        preds = dag.predecessors(current.index)
        if not preds:
            break
        blocker = max((schedule[p] for p in preds), key=lambda e: e.finish)
        chain.append(blocker)
        current = blocker
    chain.reverse()
    qec_each = ka._logical.qec_interaction_latency()
    data_op = sum(ka._logical.gate_latency(e.gate) for e in chain)
    qec_interact = qec_each * len(chain)
    ancilla_prep = sum(
        ka._zero_serial_us
        + (ka._pi8_serial_us if e.gate.gate_type in _PI8_TYPES else 0.0)
        for e in chain
    )
    total = data_op + qec_interact + ancilla_prep
    return {
        "data_op_us": data_op,
        "qec_interact_us": qec_interact,
        "ancilla_prep_us": ancilla_prep,
        "data_op_frac": data_op / total if total else 0.0,
        "qec_interact_frac": qec_interact / total if total else 0.0,
        "ancilla_prep_frac": ancilla_prep / total if total else 0.0,
        "critical_path_gates": float(len(chain)),
    }


def _seed_profile(ka, buckets):
    """The seed ancilla_demand_profile: per-gate Python bucket loop."""
    schedule = _seed_schedule(ka)
    horizon = max((e.finish for e in schedule), default=0.0)
    if horizon <= 0:
        return []
    width = horizon / buckets
    prep = ka._zero_serial_us
    counts = [0.0] * buckets
    for entry in schedule:
        birth = max(0.0, entry.start - prep)
        death = entry.start
        first = min(buckets - 1, int(birth / width))
        last = min(buckets - 1, int(death / width))
        for idx in range(first, last + 1):
            counts[idx] += ZEROS_PER_QEC
    return [(idx * width, counts[idx]) for idx in range(buckets)]


@pytest.fixture(
    params=["qrca8", "qcla8", "qft8", "qrca32", "qcla32", "qft32"]
)
def kernel(request):
    return request.getfixturevalue(request.param)


class TestBitIdentical:
    def test_execution_time(self, kernel):
        seed = max((e.finish for e in _seed_schedule(kernel)), default=0.0)
        assert kernel.execution_time_us == seed

    def test_asap_times(self, kernel):
        starts, finish = kernel._times()
        for entry in _seed_schedule(kernel):
            assert starts[entry.index] == entry.start
            assert finish[entry.index] == entry.finish

    def test_table2_row(self, kernel):
        assert kernel.table2_row() == _seed_table2(kernel)

    def test_demand_profile(self, kernel):
        for buckets in (100, 37, 1):
            assert kernel.ancilla_demand_profile(buckets) == _seed_profile(
                kernel, buckets
            )


class TestMemoization:
    def test_chain_computed_once(self, qrca8):
        first = qrca8._critical_chain()
        assert qrca8._critical_chain() is first

    def test_times_computed_once(self, qrca8):
        assert qrca8._times() is qrca8._times()


@pytest.mark.parametrize("name", ["qrca", "qcla", "qft"])
@pytest.mark.parametrize("width", [8, 16, 32])
def test_pi8_gate_count_equals_a_gate_walk(name, width):
    """The count read from the compiled form is the count of pi/8
    consumers in the decomposed circuit."""
    from repro.kernels import analyze_kernel

    ka = analyze_kernel(name, width)
    walked = sum(1 for g in ka.circuit if g.gate_type in _PI8_TYPES)
    assert ka.pi8_gate_count == walked
