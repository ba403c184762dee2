"""Equivalence tests: point-batched engine vs the serial dataflow paths.

The point-batched engine (:mod:`repro.arch.batched`) must be
*bit-identical* to both the serial engine (``DataflowSimulator.run``)
and the reference loop (:func:`repro.testing.reference.run_reference`)
— every ``SimulationResult`` field compared with exact equality, never
approx — across all supply models (infinite, steady, pooled, dedicated,
zero-rate and untracked edge cases), with identical observable supply
state afterwards. CQLA cache mode rides a program-order lockstep kernel;
only supplies without a declared ready-spec fall back to the per-point
serial path. The equivalence classes run every case on both routes the
shape rule chooses between (the ``batch_routes`` fixture): the vectorized
kernels and per-point ``run()``.
"""

import math

import numpy as np
import pytest

from repro.arch import simulate_batch
from repro.arch.architectures import (
    ArchitectureKind,
    CqlaConfig,
    MultiplexedConfig,
    QlaConfig,
)
from repro.arch.batched import (
    _run_levels,
    dedicated_ready_matrix,
    steady_ready_matrix,
)
from repro.arch.simulator import DataflowSimulator, _steady_ready_entry
from repro.arch.supply import (
    PI8,
    ZERO,
    DedicatedSupply,
    InfiniteSupply,
    PooledSupply,
    SteadyRateSupply,
)
from repro.circuits import Circuit
from repro.explore.evaluator import (
    Evaluator,
    KernelSummary,
    evaluate_design_point,
)
from repro.testing.reference import evaluate_reference, run_reference

KERNELS = ("qrca", "qcla", "qft")

_FACTORY_AREAS = (100.0, 400.0, 1600.0, 25000.0)


class _CeilingSupply:
    """Custom supply: ancillae materialize on 1 ms boundaries."""

    def acquire(self, kind, qubit, count, earliest):
        return math.ceil(earliest / 1000.0) * 1000.0


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


class _SpecLess:
    """Delegates ``acquire`` to a built-in supply but publishes no ready
    spec, so every point takes the per-point serial path."""

    def __init__(self, supply):
        self._supply = supply

    def acquire(self, kind, qubit, count, earliest):
        return self._supply.acquire(kind, qubit, count, earliest)


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
            for kind in (ZERO, PI8):
                assert batch_supply.consumed_so_far(kind) == (
                    serial_supply.consumed_so_far(kind)
                )

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
            for kind in (ZERO, PI8):
                assert batch_supply.dedicated_state(kind) == (
                    serial_supply.dedicated_state(kind)
                )

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
    """CQLA cache mode rides the lockstep kernel at large enough point
    counts — never the per-point fallback."""

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

    def test_every_cqla_point_takes_lockstep_kernel(
        self, qrca8, monkeypatch, batch_routes
    ):
        """On the vectorized route the ladder must run the CQLA lockstep
        kernel, not the per-point fallback and not the level kernel. (Its
        4 points are below the shape rule's CQLA crossover, so the route
        is forced here; test_batch_routing pins the rule itself.)"""
        import repro.arch.batched as batched_module

        real = batched_module._run_cqla_lockstep
        calls = []

        def spy(cc, points, *args, **kwargs):
            calls.append(points)
            return real(cc, points, *args, **kwargs)

        def boom(*args, **kwargs):
            raise AssertionError("level kernel must not run for CQLA")

        monkeypatch.setattr(batched_module, "_run_cqla_lockstep", spy)
        monkeypatch.setattr(batched_module, "_run_levels", boom)
        config = CqlaConfig()
        supplies = self._cqla_supplies(qrca8, config)
        for _ in batch_routes("vectorized"):
            _batched(qrca8, supplies, config, cqla=config)
        assert sum(calls) == len(supplies)

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
                for kind in (ZERO, PI8):
                    assert batch_supply.consumed_so_far(kind) == (
                        serial_supply.consumed_so_far(kind)
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
        """Spec-less supplies still fall back, CQLA neighbors still batch."""
        config = CqlaConfig()

        def supplies():
            return self._cqla_supplies(qrca8, config, _FACTORY_AREAS[:2]) + [
                _CeilingSupply()
            ]

        for _ in batch_routes():
            assert _batched(qrca8, supplies(), config, cqla=config) == (
                _serial(qrca8, supplies(), config, cqla=config)
            )


class TestFallbacks:
    def test_custom_supply_routes_per_point(self, qrca8, monkeypatch):
        """Unrecognized supplies bypass the vectorized kernel entirely."""
        import repro.arch.batched as batched_module

        def boom(*args, **kwargs):
            raise AssertionError("vectorized kernel must not run")

        monkeypatch.setattr(batched_module, "_run_levels", boom)
        supplies = [_CeilingSupply(), _CeilingSupply()]
        results = simulate_batch(qrca8.circuit, supplies, qrca8.tech)
        assert results == _serial(qrca8, [_CeilingSupply(), _CeilingSupply()])

    def test_per_point_path_matches_batched(
        self, qrca8, monkeypatch, batch_routes
    ):
        """Spec-less wrappers send every point down the per-point serial
        path without changing a single result bit."""
        import repro.arch.batched as batched_module

        def boom(*args, **kwargs):
            raise AssertionError("vectorized kernel must not run")

        def supplies():
            rate = qrca8.zero_bandwidth_per_ms / 2.0
            return [
                SteadyRateSupply({ZERO: rate, PI8: rate}),
                InfiniteSupply(),
                DedicatedSupply({ZERO: 0.05, PI8: 0.01}, qrca8.circuit.num_qubits),
            ]

        for _ in batch_routes("vectorized"):
            vectorized = _batched(qrca8, supplies())
        monkeypatch.setattr(batched_module, "_run_levels", boom)
        monkeypatch.setattr(batched_module, "_run_cqla_lockstep", boom)
        wrapped = [_SpecLess(supply) for supply in supplies()]
        assert _batched(qrca8, wrapped) == vectorized

    def test_instance_level_acquire_override_falls_back(self, qrca8):
        def supplies():
            supply = InfiniteSupply()
            supply.acquire = lambda kind, qubit, count, earliest: earliest + 77.0
            return [supply]

        assert _batched(qrca8, supplies()) == _serial(qrca8, supplies())

    def test_mixed_batch_of_every_model(self, qrca8, batch_routes):
        """One call: infinite + steady + dedicated + custom, order kept."""
        nq = qrca8.circuit.num_qubits

        def supplies():
            return [
                SteadyRateSupply({ZERO: 3.0, PI8: 0.5}),
                InfiniteSupply(),
                _CeilingSupply(),
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
            assert shared.consumed_so_far(ZERO) == 0
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

    def test_conditional_toffoli_circuit(self, batch_routes):
        """Arity-3 gates, measurements and condition bits, batched."""
        circuit = (
            Circuit(4)
            .ccx(0, 1, 2)
            .measure_z(2, "m0")
            .x(3, condition="m0")
            .t(3)
            .measure_x(3, "m1")
            .z(0, condition="m1")
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
        """Figures 8, 15 and the Figure-16 CQLA comparison sweep must show
        a fleet-wide batched fallback count of zero on either route."""
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
        assert sum(span["fallback"] for span in spans) == 0

    def test_evaluator_batch_equals_per_point_evaluation(
        self, qrca8, batch_routes
    ):
        """A mixed miss batch resolves to the same evaluations as N
        single-point calls (the pre-batching code path)."""
        points = (
            [{"zero_rate": r, "pi8_ratio": 0.3} for r in (1.0, 8.0, 64.0)]
            + [{"arch": "qla", "factory_area": a} for a in (200.0, 900.0)]
            + [{"arch": "multiplexed", "factory_area": a} for a in (200.0, 900.0)]
            + [{"arch": "cqla", "factory_area": 400.0}]
        )
        summary = KernelSummary.from_analysis(qrca8)
        for _ in batch_routes():
            evaluator = Evaluator(analysis=qrca8)
            singles = [
                evaluate_design_point(summary, evaluator.canonicalize(p), None)
                for p in points
            ]
            assert evaluator.evaluate(points) == singles


class TestReadyMatrices:
    def test_steady_matrix_rows_match_serial_ready_vector(self, qrca8):
        cc = qrca8.compiled_circuit()
        rates = np.array([1.5, 0.25, 0.0]) / 1000.0
        matrix = steady_ready_matrix(
            cc,
            rates,
            np.zeros(3),
            rates / 2.0,
            np.zeros(3),
        )
        assert matrix.shape == (3, cc.num_gates)
        for row, rate in zip(matrix, rates):
            spec = SteadyRateSupply(
                {ZERO: rate * 1000.0, PI8: rate * 500.0}
            ).ready_spec()
            serial = _steady_ready_entry(cc, spec.kind(ZERO), spec.kind(PI8))[0]
            assert np.array_equal(row, serial)

    def test_gate_major_is_exact_transpose(self, qrca8):
        cc = qrca8.compiled_circuit()
        rates = np.array([1.5, 0.25]) / 1000.0
        consumed = np.array([4.0, 0.0])
        points_major = steady_ready_matrix(
            cc, rates, consumed, rates, consumed
        )
        gate_major = steady_ready_matrix(
            cc, rates, consumed, rates, consumed, gate_major=True
        )
        assert np.array_equal(points_major, gate_major.T)

    def test_dedicated_matrix_orientations_agree(self, qrca8):
        cc = qrca8.compiled_circuit()
        nq = cc.num_qubits
        rng = np.random.default_rng(3)
        rates = rng.uniform(0.001, 0.1, size=(2, nq))
        rates[1, 0] = 0.0
        consumed = rng.integers(0, 5, size=(2, nq)).astype(np.float64)
        points_major = dedicated_ready_matrix(cc, rates, consumed, rates, consumed)
        gate_major = dedicated_ready_matrix(
            cc, rates, consumed, rates, consumed, gate_major=True
        )
        assert np.array_equal(points_major, gate_major.T)


class TestSerialReadyMemo:
    @staticmethod
    def _ready(cc, supply):
        spec = supply.ready_spec()
        return _steady_ready_entry(cc, spec.kind(ZERO), spec.kind(PI8))[0]

    def test_ready_vector_memoized_per_rates_fingerprint(self, qrca8):
        cc = qrca8.compiled_circuit()
        first = self._ready(cc, SteadyRateSupply({ZERO: 3.0, PI8: 1.0}))
        again = self._ready(cc, SteadyRateSupply({ZERO: 3.0, PI8: 1.0}))
        assert first is again  # same object: served from the memo
        assert isinstance(first, np.ndarray)
        assert not first.flags.writeable
        other = self._ready(cc, SteadyRateSupply({ZERO: 4.0, PI8: 1.0}))
        assert other is not first

    def test_consumed_state_lands_on_different_entry(self, qrca8):
        cc = qrca8.compiled_circuit()
        supply = SteadyRateSupply({ZERO: 3.0, PI8: 1.0})
        fresh = self._ready(cc, supply)
        supply.advance(ZERO, 10)
        shifted = self._ready(cc, supply)
        assert shifted is not fresh
        assert shifted[0] > fresh[0]
