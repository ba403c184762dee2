"""Unit tests for repro.arch.supply."""

import pytest

from repro.arch.supply import (
    PI8,
    ZERO,
    DedicatedSupply,
    InfiniteSupply,
    PooledSupply,
    SteadyRateSupply,
)


class TestInfiniteSupply:
    def test_always_ready(self):
        supply = InfiniteSupply()
        assert supply.acquire(ZERO, 0, 100, 42.0) == 42.0


class TestSteadyRateSupply:
    def test_first_tokens_take_time(self):
        # 1 ancilla per ms = 0.001 per us: two tokens ready at t=2000.
        supply = SteadyRateSupply({ZERO: 1.0})
        assert supply.acquire(ZERO, 0, 2, 0.0) == pytest.approx(2000.0)

    def test_consumption_is_cumulative(self):
        supply = SteadyRateSupply({ZERO: 1.0})
        supply.acquire(ZERO, 0, 2, 0.0)
        assert supply.acquire(ZERO, 0, 1, 0.0) == pytest.approx(3000.0)

    def test_earliest_dominates_when_buffered(self):
        supply = SteadyRateSupply({ZERO: 1000.0})
        assert supply.acquire(ZERO, 0, 1, 500.0) == 500.0

    def test_zero_rate_never_ready(self):
        supply = SteadyRateSupply({ZERO: 0.0})
        assert supply.acquire(ZERO, 0, 1, 0.0) == float("inf")

    def test_unknown_kind_always_ready(self):
        supply = SteadyRateSupply({ZERO: 1.0})
        assert supply.acquire(PI8, 0, 5, 7.0) == 7.0

    def test_zero_count_noop(self):
        supply = SteadyRateSupply({ZERO: 1.0})
        assert supply.acquire(ZERO, 0, 0, 3.0) == 3.0
        assert supply.acquire(ZERO, 0, 1, 0.0) == pytest.approx(1000.0)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            SteadyRateSupply({ZERO: -1.0})

    def test_kinds_independent(self):
        supply = SteadyRateSupply({ZERO: 1.0, PI8: 2.0})
        supply.acquire(ZERO, 0, 10, 0.0)
        assert supply.acquire(PI8, 0, 1, 0.0) == pytest.approx(500.0)


class TestPooledSupply:
    def test_shared_across_qubits(self):
        supply = PooledSupply({ZERO: 1.0})
        supply.acquire(ZERO, 0, 1, 0.0)
        # A different qubit draws from the same pool.
        assert supply.acquire(ZERO, 99, 1, 0.0) == pytest.approx(2000.0)


class TestDedicatedSupply:
    def test_per_qubit_counters(self):
        supply = DedicatedSupply({ZERO: 1.0}, num_qubits=2)
        supply.acquire(ZERO, 0, 5, 0.0)
        # Qubit 1's generator is untouched by qubit 0's consumption.
        assert supply.acquire(ZERO, 1, 1, 0.0) == pytest.approx(1000.0)

    def test_idle_generators_cannot_help(self):
        """The QLA pathology: one busy qubit waits on its own generator
        while the others idle."""
        pooled = PooledSupply({ZERO: 4.0})
        dedicated = DedicatedSupply({ZERO: 1.0}, num_qubits=4)
        # Same aggregate capacity; serial consumer on qubit 0.
        t_pool = max(pooled.acquire(ZERO, 0, 2, 0.0) for _ in range(2))
        t_dedicated = max(dedicated.acquire(ZERO, 0, 2, 0.0) for _ in range(2))
        assert t_dedicated > t_pool

    def test_invalid_qubit_count(self):
        with pytest.raises(ValueError):
            DedicatedSupply({ZERO: 1.0}, num_qubits=0)

    def test_unknown_kind_ready(self):
        supply = DedicatedSupply({ZERO: 1.0}, num_qubits=1)
        assert supply.acquire(PI8, 0, 3, 1.0) == 1.0

    @pytest.mark.parametrize("rate", [0.0, 2.0])
    @pytest.mark.parametrize("primed", [False, True])
    def test_advance_per_qubit_matches_acquire_walk(self, rate, primed):
        """The bulk commit leaves the state a per-gate walk would, on
        fresh and already-drawn generators, zero rates included."""
        counts = [3, 0, 2, 5]
        walked = DedicatedSupply({ZERO: rate}, num_qubits=4)
        bulk = DedicatedSupply({ZERO: rate}, num_qubits=4)
        if primed:
            for supply in (walked, bulk):
                supply.acquire(ZERO, 1, 4, 0.0)
                supply.acquire(ZERO, 2, 1, 0.0)
        for qubit, count in enumerate(counts):
            for _ in range(count):
                walked.acquire(ZERO, qubit, 1, 0.0)
        bulk.advance_per_qubit(ZERO, counts)
        bulk_spec = bulk.ready_spec().kind(ZERO)
        walked_spec = walked.ready_spec().kind(ZERO)
        assert bulk_spec.rates_per_us == walked_spec.rates_per_us
        assert bulk_spec.consumed == walked_spec.consumed
        assert all(type(c) is int for c in bulk_spec.consumed)
