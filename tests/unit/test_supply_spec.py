"""The declarative ready-spec contract between supplies and engines.

``ready_spec()`` is the only thing the dataflow engines read from a
supply. These tests pin what each built-in supply publishes, that a
supply without a lowerable spec is rejected before anything runs, and
exact post-run supply-state equality between the reference loop and
both engines for the zero-rate edge cases.
"""

import math

import pytest

from repro.arch import simulate_batch
from repro.arch.simulator import DataflowSimulator, lowerable_spec
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
)
from repro.circuits import Circuit
from repro.testing.reference import run_reference


class _Ceiling:
    """Custom supply without a ready spec: ancillae on 1 ms boundaries."""

    def acquire(self, kind, qubit, count, earliest):
        return math.ceil(earliest / 1000.0) * 1000.0


def _consumed(supply, kind):
    """Observable consumption of ``kind``: a count or per-qubit list."""
    kind_spec = supply.ready_spec().kind(kind)
    if isinstance(kind_spec, DedicatedKindSpec):
        return list(kind_spec.consumed)
    return kind_spec.consumed if kind_spec is not None else 0


class TestBuiltinSpecs:
    def test_infinite_supply_declares_empty_spec(self):
        spec = InfiniteSupply().ready_spec()
        assert isinstance(spec, ReadySpec)
        assert spec.kinds == {}
        assert spec.kind(ZERO) is None

    def test_steady_supply_declares_snapshot_per_kind(self):
        supply = SteadyRateSupply({ZERO: 4.0, PI8: 1.0})
        supply.acquire(ZERO, 0, 3, 0.0)
        spec = supply.ready_spec()
        assert spec.kind(ZERO) == SteadyKindSpec(4.0 / 1000.0, 3)
        assert spec.kind(PI8) == SteadyKindSpec(1.0 / 1000.0, 0)
        # Snapshot semantics: later consumption does not leak in.
        supply.acquire(ZERO, 0, 2, 0.0)
        assert spec.kind(ZERO).consumed == 3

    def test_pooled_supply_inherits_steady_spec(self):
        spec = PooledSupply({ZERO: 2.0}).ready_spec()
        assert isinstance(spec.kind(ZERO), SteadyKindSpec)

    def test_dedicated_supply_declares_live_lists(self):
        supply = DedicatedSupply({ZERO: 10.0}, 4)
        kind_spec = supply.ready_spec().kind(ZERO)
        assert isinstance(kind_spec, DedicatedKindSpec)
        assert kind_spec.rates_per_us == [10.0 / 1000.0] * 4
        # Live lists: consumption after the call shows through.
        supply.acquire(ZERO, 2, 3, 0.0)
        assert kind_spec.consumed == [0, 0, 3, 0]
        assert supply.ready_spec().kind(ZERO).consumed is kind_spec.consumed

    def test_custom_supply_without_spec_is_undeclared(self, qrca8):
        with pytest.raises(TypeError, match="_Ceiling has no ready_spec"):
            lowerable_spec(qrca8.compiled_circuit(), _Ceiling())


class TestSpecContract:
    """Both engines reject a supply they cannot lower, before any run."""

    def test_spec_less_supply_rejected_by_both_engines(self, qrca8):
        with pytest.raises(TypeError, match="_Ceiling has no ready_spec"):
            DataflowSimulator(
                qrca8.circuit, qrca8.tech, supply=_Ceiling()
            ).run()
        with pytest.raises(TypeError, match="_Ceiling has no ready_spec"):
            simulate_batch(qrca8.circuit, [_Ceiling()], qrca8.tech)

    def test_spec_less_last_supply_advances_no_state(self, qrca8, batch_routes):
        """Every supply is classified before any point runs, so a batch
        rejected for its last supply leaves the earlier ones untouched."""
        nq = qrca8.circuit.num_qubits
        for _ in batch_routes():
            supplies = [
                SteadyRateSupply({ZERO: 2.0, PI8: 0.5}),
                DedicatedSupply({ZERO: 0.05, PI8: 0.01}, nq),
                PooledSupply({ZERO: 30.0, PI8: 5.0}),
                InfiniteSupply(),
                _Ceiling(),
            ]
            fresh = [[_consumed(s, k) for k in (ZERO, PI8)] for s in supplies[:3]]
            with pytest.raises(TypeError, match="_Ceiling"):
                simulate_batch(qrca8.circuit, supplies, qrca8.tech)
            after = [[_consumed(s, k) for k in (ZERO, PI8)] for s in supplies[:3]]
            assert after == fresh

    def test_foreign_kind_spec_rejected(self, qrca8):
        class Foreign:
            def ready_spec(self):
                return ReadySpec({ZERO: SteadyKindSpec(1.0, 0), PI8: "?"})

        circuit = Circuit(1).t(0)
        with pytest.raises(TypeError, match="Foreign.ready_spec.. holds a str"):
            DataflowSimulator(circuit, supply=Foreign()).run()
        with pytest.raises(TypeError, match="holds a str"):
            simulate_batch(circuit, [Foreign()])


class TestZeroRateStatePinning:
    """Post-run supply STATE (not just makespans) must be
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
            return {kind: _consumed(supply, kind) for kind in (ZERO, PI8)}

        legacy, run, batch = self._state_triplet(qrca8, make_supply, state)
        assert legacy == run == batch
        assert legacy[ZERO] == 0  # zero-rate kind never records consumption

    def test_zero_rate_pi8_counters_match(self, qrca8):
        def make_supply():
            return SteadyRateSupply({ZERO: 2.0, PI8: 0.0})

        def state(supply):
            return {kind: _consumed(supply, kind) for kind in (ZERO, PI8)}

        legacy, run, batch = self._state_triplet(qrca8, make_supply, state)
        assert legacy == run == batch
        assert legacy[PI8] == 0

    def test_zero_rate_dedicated_counters_match(self, qrca8):
        nq = qrca8.circuit.num_qubits

        def make_supply():
            return DedicatedSupply({ZERO: 0.0, PI8: 0.02}, nq)

        def state(supply):
            return {kind: _consumed(supply, kind) for kind in (ZERO, PI8)}

        legacy, run, batch = self._state_triplet(qrca8, make_supply, state)
        assert legacy == run == batch
        assert legacy[ZERO] == [0] * nq

    def test_partially_zero_dedicated_rate_vector(self, qrca8):
        """Some qubits starved, others healthy: only the zero-rate rows
        may stay frozen, and all three engines must agree per qubit."""
        nq = qrca8.circuit.num_qubits

        def make_supply():
            supply = DedicatedSupply({ZERO: 0.05, PI8: 0.02}, nq)
            rates = supply.ready_spec().kind(ZERO).rates_per_us
            for qubit in range(0, nq, 2):
                rates[qubit] = 0.0
            return supply

        def state(supply):
            return {kind: _consumed(supply, kind) for kind in (ZERO, PI8)}

        legacy, run, batch = self._state_triplet(qrca8, make_supply, state)
        assert legacy == run == batch
        for qubit in range(0, nq, 2):
            assert legacy[ZERO][qubit] == 0
