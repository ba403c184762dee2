"""The declarative ready-spec protocol and its opt-in dispatch rules.

``declared_ready_spec`` is the single gate deciding whether a supply may
take the lowered (closed-form / array) engine paths. These tests pin the
opt-in rules — a subclass overriding any spec-coupled method without
re-declaring ``ready_spec`` must never be half-batched — and pin exact
post-run supply-state equality between the serial and batched engines for
the zero-rate edge cases.
"""

import math

import pytest

from repro.arch import simulate_batch
from repro.arch.simulator import DataflowSimulator
from repro.arch.supply import (
    PI8,
    ZERO,
    DedicatedKindSpec,
    DedicatedSupply,
    InfiniteSupply,
    PooledSupply,
    ReadySpec,
    SteadyKindSpec,
    SteadyRateSupply,
    declared_ready_spec,
)
from repro.testing.reference import run_reference


class TestBuiltinSpecs:
    def test_infinite_supply_declares_empty_spec(self):
        spec = declared_ready_spec(InfiniteSupply())
        assert isinstance(spec, ReadySpec)
        assert spec.kinds == {}
        assert spec.kind(ZERO) is None

    def test_steady_supply_declares_snapshot_per_kind(self):
        supply = SteadyRateSupply({ZERO: 4.0, PI8: 1.0})
        supply.acquire(ZERO, 0, 3, 0.0)
        spec = declared_ready_spec(supply)
        assert spec.kind(ZERO) == SteadyKindSpec(4.0 / 1000.0, 3)
        assert spec.kind(PI8) == SteadyKindSpec(1.0 / 1000.0, 0)
        # Snapshot semantics: later consumption does not leak in.
        supply.acquire(ZERO, 0, 2, 0.0)
        assert spec.kind(ZERO).consumed == 3

    def test_pooled_supply_inherits_steady_spec(self):
        spec = declared_ready_spec(PooledSupply({ZERO: 2.0}))
        assert isinstance(spec.kind(ZERO), SteadyKindSpec)

    def test_dedicated_supply_declares_live_lists(self):
        supply = DedicatedSupply({ZERO: 10.0}, 4)
        spec = declared_ready_spec(supply)
        kind_spec = spec.kind(ZERO)
        assert isinstance(kind_spec, DedicatedKindSpec)
        rates, consumed = supply.dedicated_state(ZERO)
        assert kind_spec.rates_per_us is rates
        assert kind_spec.consumed is consumed

    def test_custom_supply_without_spec_is_undeclared(self):
        class Ceiling:
            def acquire(self, kind, qubit, count, earliest):
                return math.ceil(earliest / 1000.0) * 1000.0

        assert declared_ready_spec(Ceiling()) is None


class TestOptInDispatch:
    """A spec only speaks for a supply when nothing below its owner in the
    MRO redefines the availability/state math it describes."""

    @pytest.mark.parametrize(
        "method",
        ["acquire", "advance", "rate_per_us", "consumed_so_far"],
    )
    def test_subclass_overriding_coupled_method_is_undeclared(self, method):
        override = {method: lambda self, *args, **kwargs: None}
        mutated = type("Mutated", (SteadyRateSupply,), override)
        assert declared_ready_spec(mutated({ZERO: 2.0})) is None

    def test_dedicated_subclass_overriding_advance_per_qubit(self):
        class Mutated(DedicatedSupply):
            def advance_per_qubit(self, kind, counts):
                pass

        assert declared_ready_spec(Mutated({ZERO: 1.0}, 2)) is None

    def test_subclass_redeclaring_spec_opts_back_in(self):
        class OptedBackIn(SteadyRateSupply):
            def advance(self, kind, count):
                SteadyRateSupply.advance(self, kind, count)

            def ready_spec(self):
                return SteadyRateSupply.ready_spec(self)

        spec = declared_ready_spec(OptedBackIn({ZERO: 2.0}))
        assert isinstance(spec, ReadySpec)

    def test_instance_monkeypatched_acquire_is_undeclared(self):
        supply = SteadyRateSupply({ZERO: 2.0})
        supply.acquire = lambda kind, qubit, count, earliest: earliest
        assert declared_ready_spec(supply) is None

    def test_instance_monkeypatched_advance_is_undeclared(self):
        supply = SteadyRateSupply({ZERO: 2.0})
        supply.advance = lambda kind, count: None
        assert declared_ready_spec(supply) is None

    def test_instance_level_ready_spec_is_undeclared(self):
        supply = InfiniteSupply()
        supply.ready_spec = lambda: ReadySpec({})
        assert declared_ready_spec(supply) is None

    def test_non_readyspec_return_is_undeclared(self):
        class BadSpec(SteadyRateSupply):
            def ready_spec(self):
                return {ZERO: SteadyKindSpec(1.0, 0)}

        assert declared_ready_spec(BadSpec({ZERO: 2.0})) is None

    def test_mutated_subclass_never_half_batched(self, qrca8):
        """Regression: a subclass overriding only ``advance`` must take
        the per-gate path everywhere. If either engine lowered it with the
        parent's closed form and committed through the child's ``advance``,
        the doubled counter below would expose the divergence."""

        class DoubleAdvance(SteadyRateSupply):
            def advance(self, kind, count):
                SteadyRateSupply.advance(self, kind, count * 2)

        rate = qrca8.zero_bandwidth_per_ms / 2.0

        def supply():
            return DoubleAdvance({ZERO: rate, PI8: rate})

        reference = supply()
        legacy = DataflowSimulator(qrca8.circuit, qrca8.tech, supply=reference)
        legacy_result = run_reference(legacy)

        serial_supply = supply()
        run_result = DataflowSimulator(
            qrca8.circuit, qrca8.tech, supply=serial_supply
        ).run()

        batch_supply = supply()
        batch_result = simulate_batch(
            qrca8.circuit, [batch_supply], qrca8.tech
        )[0]

        assert run_result == legacy_result
        assert batch_result == legacy_result
        for kind in (ZERO, PI8):
            expected = reference.consumed_so_far(kind)
            assert serial_supply.consumed_so_far(kind) == expected
            assert batch_supply.consumed_so_far(kind) == expected


class TestZeroRateStatePinning:
    """Satellite audit: post-run supply STATE (not just makespans) must be
    identical between the serial and batched engines for zero-rate kinds,
    where acquire returns infinity *without* recording consumption."""

    def _state_triplet(self, analysis, make_supply, state):
        legacy_supply = make_supply()
        run_reference(
            DataflowSimulator(
                analysis.circuit, analysis.tech, supply=legacy_supply
            )
        )
        run_supply = make_supply()
        DataflowSimulator(
            analysis.circuit, analysis.tech, supply=run_supply
        ).run()
        batch_supply = make_supply()
        simulate_batch(analysis.circuit, [batch_supply], analysis.tech)
        return state(legacy_supply), state(run_supply), state(batch_supply)

    def test_zero_rate_steady_counters_stay_untouched(self, qrca8):
        def make_supply():
            return SteadyRateSupply({ZERO: 0.0, PI8: 1.0})

        def state(supply):
            return {kind: supply.consumed_so_far(kind) for kind in (ZERO, PI8)}

        legacy, run, batch = self._state_triplet(qrca8, make_supply, state)
        assert legacy == run == batch
        assert legacy[ZERO] == 0  # zero-rate kind never records consumption

    def test_zero_rate_pi8_counters_match(self, qrca8):
        def make_supply():
            return SteadyRateSupply({ZERO: 2.0, PI8: 0.0})

        def state(supply):
            return {kind: supply.consumed_so_far(kind) for kind in (ZERO, PI8)}

        legacy, run, batch = self._state_triplet(qrca8, make_supply, state)
        assert legacy == run == batch
        assert legacy[PI8] == 0

    def test_zero_rate_dedicated_counters_match(self, qrca8):
        nq = qrca8.circuit.num_qubits

        def make_supply():
            return DedicatedSupply({ZERO: 0.0, PI8: 0.02}, nq)

        def state(supply):
            return {
                kind: list(supply.dedicated_state(kind)[1])
                for kind in (ZERO, PI8)
            }

        legacy, run, batch = self._state_triplet(qrca8, make_supply, state)
        assert legacy == run == batch
        assert legacy[ZERO] == [0] * nq

    def test_partially_zero_dedicated_rate_vector(self, qrca8):
        """Some qubits starved, others healthy: only the zero-rate rows
        may stay frozen, and all three engines must agree per qubit."""
        nq = qrca8.circuit.num_qubits

        def make_supply():
            supply = DedicatedSupply({ZERO: 0.05, PI8: 0.02}, nq)
            rates, _ = supply.dedicated_state(ZERO)
            for qubit in range(0, nq, 2):
                rates[qubit] = 0.0
            return supply

        def state(supply):
            return {
                kind: list(supply.dedicated_state(kind)[1])
                for kind in (ZERO, PI8)
            }

        legacy, run, batch = self._state_triplet(qrca8, make_supply, state)
        assert legacy == run == batch
        for qubit in range(0, nq, 2):
            assert legacy[ZERO][qubit] == 0
