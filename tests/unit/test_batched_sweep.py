"""Equivalence tests: point-batched engine vs the serial dataflow paths.

The point-batched engine (:mod:`repro.arch.batched`) must be
*bit-identical* to both the serial engine (``DataflowSimulator.run``)
and the reference loop (:func:`repro.testing.reference.run_reference`)
— every ``SimulationResult`` field compared with exact equality, never
approx — across all supply models (infinite, steady, pooled, dedicated,
zero-rate and untracked edge cases), with identical observable supply
state afterwards. The equivalence classes run every case on both routes
the shape rule chooses between (the ``batch_routes`` fixture): the
vectorized level kernel and per-point ``run()``. CQLA cache mode runs
every point through ``run()`` on either route.
"""

import numpy as np
import pytest

from repro.arch import simulate_batch
from repro.arch.architectures import (
    ArchitectureKind,
    CqlaConfig,
    MultiplexedConfig,
    QlaConfig,
)
from repro.arch.batched import _run_levels
from repro.arch.simulator import (
    ZEROS_PER_QEC,
    DataflowSimulator,
    commit_draws,
    lower_ready,
    lowerable_spec,
)
from repro.arch.supply import (
    PI8,
    ZERO,
    DedicatedSupply,
    InfiniteSupply,
    PooledSupply,
    SteadyKindSpec,
    SteadyRateSupply,
)
from repro.circuits import Circuit
from repro.explore.evaluator import Evaluator
from repro.testing.reference import evaluate_reference, run_reference
from repro.testing.supplies import SteadyZerosDedicatedPi8

KERNELS = ("qrca", "qcla", "qft")

_FACTORY_AREAS = (100.0, 400.0, 1600.0, 25000.0)


def _serial(analysis, supplies, config=None, reference=False, cqla=None):
    """Per-point serial results for ``supplies`` (fresh simulator each),
    from ``run()`` or, with ``reference=True``, from the reference loop."""
    out = []
    move_1q = config.movement_penalty(False, analysis.tech) if config else 0.0
    move_2q = config.movement_penalty(True, analysis.tech) if config else 0.0
    for supply in supplies:
        sim = DataflowSimulator(
            analysis.circuit,
            analysis.tech,
            supply=supply,
            movement_penalty_us=move_1q,
            two_qubit_movement_penalty_us=move_2q,
            cqla=cqla,
        )
        out.append(run_reference(sim) if reference else sim.run())
    return out


def _batched(analysis, supplies, config=None, cqla=None):
    move_1q = config.movement_penalty(False, analysis.tech) if config else 0.0
    move_2q = config.movement_penalty(True, analysis.tech) if config else 0.0
    return simulate_batch(
        analysis.circuit,
        supplies,
        analysis.tech,
        movement_penalty_us=move_1q,
        two_qubit_movement_penalty_us=move_2q,
        cqla=cqla,
    )


def _spec_state(supply):
    """Observable consumption state of a spec publisher, per kind."""
    return {
        kind: (
            (spec.rate_per_us, spec.consumed)
            if isinstance(spec, SteadyKindSpec)
            else (list(spec.rates_per_us), list(spec.consumed))
        )
        for kind, spec in supply.ready_spec().kinds.items()
    }


def _steady_rates(analysis):
    """A bracketing rate ladder plus the zero-rate starvation edge."""
    bw = analysis.zero_bandwidth_per_ms
    return list(np.geomspace(bw / 16.0, bw * 16.0, 7)) + [0.0]


class TestSteadyBatches:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_rate_sweep_identical_to_both_engines(
        self, kernel, request, batch_routes
    ):
        analysis = request.getfixturevalue(f"{kernel}8")
        ratio = analysis.pi8_bandwidth_per_ms / analysis.zero_bandwidth_per_ms

        def supplies():
            return [
                SteadyRateSupply({ZERO: rate, PI8: rate * ratio})
                for rate in _steady_rates(analysis)
            ]

        serial = _serial(analysis, supplies())
        assert serial == _serial(analysis, supplies(), reference=True)
        for _ in batch_routes():
            assert _batched(analysis, supplies()) == serial

    def test_supply_state_advanced_identically(self, qrca8, batch_routes):
        rate = qrca8.zero_bandwidth_per_ms / 2.0
        serial_supply = SteadyRateSupply({ZERO: rate, PI8: rate})
        _serial(qrca8, [serial_supply])
        for _ in batch_routes():
            batch_supply = SteadyRateSupply({ZERO: rate, PI8: rate})
            _batched(qrca8, [batch_supply])
            assert _spec_state(batch_supply) == _spec_state(serial_supply)

    def test_zero_rate_starves_every_point(self, qrca8, batch_routes):
        def supplies():
            return [SteadyRateSupply({ZERO: 0.0}) for _ in range(3)]

        serial = _serial(qrca8, supplies())
        for _ in batch_routes():
            results = _batched(qrca8, supplies())
            assert all(r.makespan_us == float("inf") for r in results)
            assert results == serial

    def test_zero_rate_pi8_only(self, qrca8, batch_routes):
        """Starved pi/8, healthy zeros — the mixed-infinity edge."""
        rate = qrca8.zero_bandwidth_per_ms

        def supplies():
            return [SteadyRateSupply({ZERO: rate, PI8: 0.0})]

        for _ in batch_routes():
            assert _batched(qrca8, supplies()) == _serial(qrca8, supplies())

    def test_untracked_kinds_mix_in_one_call(self, qrca8, batch_routes):
        """Points with different tracked-kind signatures sub-batch safely."""
        rate = qrca8.zero_bandwidth_per_ms / 2.0

        def supplies():
            return [
                SteadyRateSupply({ZERO: rate, PI8: rate}),
                SteadyRateSupply({ZERO: rate}),  # pi/8 untracked
                SteadyRateSupply({PI8: rate}),  # zero untracked
                SteadyRateSupply({}),  # nothing tracked: unconstrained
                InfiniteSupply(),
            ]

        for _ in batch_routes():
            assert _batched(qrca8, supplies()) == _serial(qrca8, supplies())

    def test_consumed_supply_resumes_exactly(self, qrca8, batch_routes):
        """A supply with prior consumption batches from its real state."""

        def supplies():
            supply = SteadyRateSupply({ZERO: 5.0, PI8: 1.0})
            supply.acquire(ZERO, 0, 7, 0.0)
            supply.acquire(PI8, 0, 3, 0.0)
            return [supply]

        for _ in batch_routes():
            assert _batched(qrca8, supplies()) == _serial(qrca8, supplies())


class TestArchitectureBatches:
    @pytest.mark.parametrize("config", [QlaConfig(), MultiplexedConfig()])
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_area_ladder_identical(
        self, kernel, config, request, batch_routes
    ):
        analysis = request.getfixturevalue(f"{kernel}8")

        def supplies():
            return [
                config.build_supply(
                    area,
                    analysis.circuit.num_qubits,
                    analysis.zero_bandwidth_per_ms,
                    analysis.pi8_bandwidth_per_ms,
                    analysis.tech,
                )
                for area in _FACTORY_AREAS
            ]

        serial = _serial(analysis, supplies(), config)
        assert serial == _serial(analysis, supplies(), config, reference=True)
        for _ in batch_routes():
            assert _batched(analysis, supplies(), config) == serial

    def test_dedicated_counters_advanced_identically(
        self, qrca8, batch_routes
    ):
        nq = qrca8.circuit.num_qubits

        def supply():
            return DedicatedSupply({ZERO: 0.05, PI8: 0.01}, nq)

        serial_supply = supply()
        _serial(qrca8, [serial_supply])
        for _ in batch_routes():
            batch_supply = supply()
            _batched(qrca8, [batch_supply])
            assert _spec_state(batch_supply) == _spec_state(serial_supply)

    def test_dedicated_zero_rate_starves(self, qrca8, batch_routes):
        nq = qrca8.circuit.num_qubits

        def supplies():
            return [DedicatedSupply({ZERO: 0.0, PI8: 1.0}, nq)]

        for _ in batch_routes():
            batched = _batched(qrca8, supplies())
            assert batched[0].makespan_us == float("inf")
            assert batched == _serial(qrca8, supplies())

    def test_pooled_supply_takes_steady_path(self, qrca8, batch_routes):
        def supplies():
            return [PooledSupply({ZERO: 2.0, PI8: 0.5}) for _ in range(3)]

        for _ in batch_routes():
            assert _batched(qrca8, supplies()) == _serial(qrca8, supplies())


class TestCqlaBatches:
    """CQLA cache mode runs every point through ``run()``, which replays
    the memoized cache-trip schedule, whatever the route."""

    @staticmethod
    def _cqla_supplies(analysis, config, areas=_FACTORY_AREAS):
        return [
            config.build_supply(
                area,
                analysis.circuit.num_qubits,
                analysis.zero_bandwidth_per_ms,
                analysis.pi8_bandwidth_per_ms,
                analysis.tech,
            )
            for area in areas
        ]

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_area_ladder_identical_to_both_engines(
        self, kernel, request, batch_routes
    ):
        analysis = request.getfixturevalue(f"{kernel}8")
        config = CqlaConfig()
        serial = _serial(
            analysis, self._cqla_supplies(analysis, config), config, cqla=config
        )
        assert serial == _serial(
            analysis,
            self._cqla_supplies(analysis, config),
            config,
            reference=True,
            cqla=config,
        )
        assert any(r.cache_misses > 0 for r in serial)
        for _ in batch_routes():
            batched = _batched(
                analysis,
                self._cqla_supplies(analysis, config),
                config,
                cqla=config,
            )
            assert batched == serial

    def test_every_cqla_point_takes_serial_route(
        self, qrca8, monkeypatch, batch_routes
    ):
        """Even with the shape rule forced to vectorize, every point of
        the ladder runs through run(), never the level kernel, with its
        results unchanged. (test_batch_routing pins the rule itself.)"""
        import repro.arch.batched as batched_module

        real = DataflowSimulator.run
        calls = []

        def spy(self):
            calls.append(self.supply)
            return real(self)

        def boom(*args, **kwargs):
            raise AssertionError("level kernel must not run for CQLA")

        config = CqlaConfig()
        serial = _serial(
            qrca8, self._cqla_supplies(qrca8, config), config, cqla=config
        )
        monkeypatch.setattr(DataflowSimulator, "run", spy)
        monkeypatch.setattr(batched_module, "_run_levels", boom)
        supplies = self._cqla_supplies(qrca8, config)
        for _ in batch_routes("vectorized"):
            assert _batched(qrca8, supplies, config, cqla=config) == serial
        assert list(map(id, calls)) == list(map(id, supplies))

    @pytest.mark.parametrize(
        "config",
        [CqlaConfig(cache_fraction=0.5, ports=1), CqlaConfig(ports=4)],
    )
    def test_cache_and_port_variants_identical(
        self, qrca8, config, batch_routes
    ):
        serial = _serial(
            qrca8, self._cqla_supplies(qrca8, config), config, cqla=config
        )
        for _ in batch_routes():
            batched = _batched(
                qrca8, self._cqla_supplies(qrca8, config), config, cqla=config
            )
            assert batched == serial

    def test_cqla_supply_state_advanced_identically(self, qrca8, batch_routes):
        config = CqlaConfig()
        serial_supplies = self._cqla_supplies(qrca8, config)
        _serial(qrca8, serial_supplies, config, cqla=config)
        for _ in batch_routes():
            batch_supplies = self._cqla_supplies(qrca8, config)
            _batched(qrca8, batch_supplies, config, cqla=config)
            for batch_supply, serial_supply in zip(
                batch_supplies, serial_supplies
            ):
                assert _spec_state(batch_supply) == (
                    _spec_state(serial_supply)
                )

    def test_unconstrained_supply_with_cqla_broadcasts(
        self, qrca8, batch_routes
    ):
        config = CqlaConfig()

        def supplies():
            return [InfiniteSupply(), InfiniteSupply(), InfiniteSupply()]

        serial = _serial(qrca8, supplies(), config, cqla=config)
        for _ in batch_routes():
            batched = _batched(qrca8, supplies(), config, cqla=config)
            assert batched == serial
            assert batched[0] == batched[1] == batched[2]
            assert batched[0] is not batched[1]

    def test_mixed_batch_with_custom_supply_under_cqla(
        self, qrca8, batch_routes
    ):
        """A custom spec publisher groups by its own signature beside the
        built-in CQLA supplies."""
        config = CqlaConfig()
        nq = qrca8.circuit.num_qubits

        def supplies():
            return self._cqla_supplies(qrca8, config, _FACTORY_AREAS[:2]) + [
                SteadyZerosDedicatedPi8(2.0, 0.01, nq)
            ]

        for _ in batch_routes():
            assert _batched(qrca8, supplies(), config, cqla=config) == (
                _serial(qrca8, supplies(), config, cqla=config)
            )


class TestFallbacks:
    def test_mixed_batch_of_every_model(self, qrca8, batch_routes):
        """One call: infinite + steady + dedicated + custom, order kept."""
        nq = qrca8.circuit.num_qubits

        def supplies():
            return [
                SteadyRateSupply({ZERO: 3.0, PI8: 0.5}),
                InfiniteSupply(),
                SteadyZerosDedicatedPi8(2.0, 0.01, nq),
                DedicatedSupply({ZERO: 0.05, PI8: 0.01}, nq),
                SteadyRateSupply({ZERO: 30.0, PI8: 5.0}),
            ]

        for _ in batch_routes():
            assert _batched(qrca8, supplies()) == _serial(qrca8, supplies())


class TestEdgeShapes:
    def test_empty_supply_list(self, qrca8):
        assert simulate_batch(qrca8.circuit, [], qrca8.tech) == []

    def test_aliased_rate_limited_supply_rejected(self, qrca8, batch_routes):
        """Serial runs thread one object's consumption point to point; a
        batch cannot, so sharing an instance must fail loud — whichever
        route the batch's shape picks."""
        nq = qrca8.circuit.num_qubits
        for _ in batch_routes():
            shared = SteadyRateSupply({ZERO: 5.0, PI8: 1.0})
            with pytest.raises(ValueError, match="same object"):
                simulate_batch(qrca8.circuit, [shared, shared], qrca8.tech)
            assert shared.ready_spec().kind(ZERO).consumed == 0
            dedicated = DedicatedSupply({ZERO: 0.1}, nq)
            with pytest.raises(ValueError, match="same object"):
                simulate_batch(
                    qrca8.circuit, [dedicated, dedicated], qrca8.tech
                )

    def test_aliased_stateless_supply_allowed(self, qrca8, batch_routes):
        """InfiniteSupply carries no state: duplicates are harmless."""
        shared = InfiniteSupply()
        for _ in batch_routes():
            results = simulate_batch(
                qrca8.circuit, [shared, shared], qrca8.tech
            )
            assert results[0] == results[1]

    def test_empty_circuit(self):
        circuit = Circuit(2)
        results = simulate_batch(
            circuit, [InfiniteSupply(), SteadyRateSupply({ZERO: 1.0})]
        )
        assert [r.makespan_us for r in results] == [0.0, 0.0]
        assert all(r.gates == 0 for r in results)

    def test_small_lean_circuit(self, batch_routes):
        """A small mix of one- and two-qubit gates, pi/8 consumers on
        both sides of a two-qubit gate, batched."""
        circuit = (
            Circuit(4)
            .t(0)
            .cx(0, 1)
            .tdg(1)
            .cz(1, 2)
            .t(3)
            .h(2)
            .cx(2, 3)
            .t(3)
        )
        rates = [0.5, 2.0, 0.0]

        def supplies():
            return [SteadyRateSupply({ZERO: r, PI8: r}) for r in rates]

        serial = [
            DataflowSimulator(circuit, supply=s).run() for s in supplies()
        ]
        reference = [
            run_reference(DataflowSimulator(circuit, supply=s))
            for s in supplies()
        ]
        assert serial == reference
        for _ in batch_routes():
            assert simulate_batch(circuit, supplies()) == reference


class TestSweepGrids:
    """The acceptance shape: Figure 8 / Figure 15 grids, batched vs serial."""

    def test_figure8_grid_bit_identical_across_engines(
        self, qrca8, batch_routes
    ):
        from repro.arch.sweep import throughput_sweep

        for _ in batch_routes():
            batched = throughput_sweep(qrca8)  # default Figure 8 grid
            ratio = qrca8.pi8_bandwidth_per_ms / qrca8.zero_bandwidth_per_ms
            points = [{"zero_rate": p.x, "pi8_ratio": ratio} for p in batched]
            reference = evaluate_reference(qrca8, points)
            assert [p.result for p in batched] == [e.result for e in reference]

    def test_figure15_grid_bit_identical_across_engines(
        self, qcla8, batch_routes
    ):
        from repro.arch.sweep import area_sweep

        for _ in batch_routes():
            batched = area_sweep(qcla8)  # default Figure 15 grid
            points = [
                {"arch": kind.value, "factory_area": p.x}
                for kind, curve in batched.items()
                for p in curve
            ]
            results = [p.result for curve in batched.values() for p in curve]
            reference = evaluate_reference(qcla8, points)
            assert results == [e.result for e in reference]

    @pytest.fixture
    def traced(self):
        from repro.obs import trace

        tracer = trace.enable()
        try:
            yield tracer
        finally:
            trace.disable()

    @staticmethod
    def _batch_spans(tracer):
        return [
            event["args"]
            for event in tracer.events()
            if event["name"] == "batched.simulate_batch"
        ]

    def test_paper_sweeps_never_fall_back(self, qrca8, traced, batch_routes):
        """Figures 8, 15 and the Figure-16 CQLA comparison sweep route
        through simulate_batch, whose per-path counts account for every
        point on either route."""
        from repro.arch.sweep import area_sweep, throughput_sweep

        for _ in batch_routes():
            throughput_sweep(qrca8)  # Figure 8
            area_sweep(qrca8)  # Figure 15 (QLA + CQLA + Multiplexed ladders)
            area_sweep(
                qrca8,
                kinds=[ArchitectureKind.CQLA],
                cqla=CqlaConfig(cache_fraction=0.25),
            )  # Figure-16-shaped: the Qalypso-vs-CQLA cache configuration
        spans = self._batch_spans(traced)
        assert spans, "paper sweeps must route through simulate_batch"
        paths = ("unconstrained", "steady", "dedicated", "serial")
        for span in spans:
            assert sum(span[path] for path in paths) == span["points"], span

    def test_evaluator_batch_equals_per_point_evaluation(
        self, qrca8, batch_routes
    ):
        """A mixed miss batch resolves to the same evaluations as the
        per-gate reference loop, one point at a time."""
        points = (
            [{"zero_rate": r, "pi8_ratio": 0.3} for r in (1.0, 8.0, 64.0)]
            + [{"arch": "qla", "factory_area": a} for a in (200.0, 900.0)]
            + [{"arch": "multiplexed", "factory_area": a} for a in (200.0, 900.0)]
            + [{"arch": "cqla", "factory_area": 400.0}]
        )
        singles = evaluate_reference(qrca8, points)
        for _ in batch_routes():
            assert Evaluator(analysis=qrca8).evaluate(points) == singles


def _starve_even_qubits(supply):
    rates = supply.ready_spec().kind(ZERO).rates_per_us
    rates[::2] = [0.0] * len(rates[::2])
    return supply


def _consumed(supply, nq):
    """Prior consumption on every kind (and, if dedicated, every qubit)."""
    for qubit in range(nq):
        supply.acquire(ZERO, qubit, 2 * qubit + 3, 0.0)
        supply.acquire(PI8, qubit, qubit + 1, 0.0)
    return supply


#: Three same-signature supplies per case, as ``(rate, nq) -> supply``.
_LOWERING_CASES = {
    "steady": lambda r, nq: SteadyRateSupply({ZERO: r, PI8: 0.3 * r}),
    "dedicated": lambda r, nq: DedicatedSupply(
        {ZERO: r / nq, PI8: 0.3 * r / nq}, nq
    ),
    "steady-zero-dedicated-pi8": lambda r, nq: SteadyZerosDedicatedPi8(
        r, 0.3 * r / nq, nq
    ),
    "zero-rate-kind": lambda r, nq: SteadyRateSupply({ZERO: 0.0, PI8: r}),
    "zero-rate-generator": lambda r, nq: _starve_even_qubits(
        DedicatedSupply({ZERO: r / nq, PI8: r / nq}, nq)
    ),
    "prior-steady": lambda r, nq: _consumed(
        SteadyRateSupply({ZERO: r, PI8: 0.3 * r}), nq
    ),
    "prior-dedicated": lambda r, nq: _consumed(
        DedicatedSupply({ZERO: r / nq, PI8: 0.3 * r / nq}, nq), nq
    ),
}


class TestSharedLowering:
    """The one ready-time lowering ``run()`` and ``simulate_batch`` share."""

    @pytest.mark.parametrize("case", sorted(_LOWERING_CASES))
    def test_columns_match_per_gate_acquire_walk(self, case, qrca8):
        cc = qrca8.compiled_circuit()
        nq = cc.num_qubits
        make = _LOWERING_CASES[case]
        rates = (0.5, 4.0, 64.0)
        supplies = [make(r, nq) for r in rates]
        lowered = [lowerable_spec(cc, supply) for supply in supplies]
        assert all(entry is not None for entry in lowered)
        signatures = {signature for _, signature in lowered}
        assert len(signatures) == 1
        ready = lower_ready(
            cc, signatures.pop(), [spec for spec, _ in lowered]
        )
        assert ready.shape == (cc.num_gates, len(supplies))
        for column, supply in enumerate(supplies):
            # The walk the reference loop performs, in program order.
            expected = []
            for a, pi8 in zip(cc.q0, cc.pi8_flag):
                t = supply.acquire(ZERO, a, ZEROS_PER_QEC, 0.0)
                if pi8:
                    t = max(t, supply.acquire(PI8, a, 1, 0.0))
                expected.append(t)
            assert ready[:, column].tolist() == expected
            # Committing the lowered run leaves the walk's state.
            twin = make(rates[column], nq)
            commit_draws(cc, twin, lowerable_spec(cc, twin)[0])
            assert _spec_state(twin) == _spec_state(supply)

    def test_cqla_dedicated_run_lowers_without_acquire(
        self, qrca8, monkeypatch
    ):
        """CQLA with per-qubit generators takes the shared lowering too:
        ``run()`` calls ``acquire`` zero times and still matches the
        reference loop's makespan and counters."""
        nq = qrca8.circuit.num_qubits
        config = CqlaConfig()

        def make():
            return DedicatedSupply({ZERO: 0.05, PI8: 0.02}, nq)

        reference_supply = make()
        reference = _serial(
            qrca8, [reference_supply], config, reference=True, cqla=config
        )
        calls = []
        acquire = DedicatedSupply.acquire

        def counting(self, *args):
            calls.append(args)
            return acquire(self, *args)

        monkeypatch.setattr(DedicatedSupply, "acquire", counting)
        run_supply = make()
        assert _serial(qrca8, [run_supply], config, cqla=config) == reference
        assert calls == []
        assert _spec_state(run_supply) == _spec_state(reference_supply)
