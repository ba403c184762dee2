"""Equivalence tests: compiled dataflow engine vs the reference loop.

The compiled engine must be *bit-identical* to the per-gate reference loop
(:func:`repro.testing.reference.run_reference`) — every
``SimulationResult`` field compared with exact equality (no approx), for
all three kernels under all five supply/architecture models. The fixtures
run the 8-bit kernels; engine dispatch does not depend on width.
"""

import functools
import gc
import weakref
from dataclasses import asdict

import numpy as np
import pytest

import repro.arch.batched as batched_module
import repro.arch.simulator as simulator_module
from repro.arch.architectures import (
    CqlaConfig,
    MultiplexedConfig,
    QlaConfig,
)
from repro.arch.simulator import DataflowSimulator
from repro.arch.batched import simulate_batch
from repro.arch.provisioning import area_breakdown
from repro.arch.supply import (
    PI8,
    ZERO,
    DedicatedSupply,
    InfiniteSupply,
    SteadyRateSupply,
)
from repro.circuits import Circuit, CompiledCircuit, compile_circuit
from repro.circuits.compiled import _build_dataflow, dataflow_metadata
from repro.circuits.latency import LogicalLatencyModel
from repro.kernels import analyze_kernel
from repro.tech import ION_TRAP
from repro.testing.dag import QecAwareLatency, asap_schedule
from repro.testing.reference import run_reference

KERNELS = ("qrca", "qcla", "qft")
SUPPLY_MODES = ("infinite", "steady-rate", "qla", "cqla", "multiplexed")

_FACTORY_AREA = 500.0


def _build_simulator(analysis, mode):
    """A fresh simulator (fresh supply state) for one supply mode."""
    circuit, tech = analysis.circuit, analysis.tech
    zero_bw = analysis.zero_bandwidth_per_ms
    pi8_bw = analysis.pi8_bandwidth_per_ms
    nq = circuit.num_qubits
    if mode == "infinite":
        return DataflowSimulator(circuit, tech)
    if mode == "steady-rate":
        # Half the matched demand, so gates actually wait on the supply.
        supply = SteadyRateSupply({ZERO: zero_bw / 2.0, PI8: pi8_bw / 2.0})
        return DataflowSimulator(circuit, tech, supply=supply)
    if mode == "qla":
        config = QlaConfig()
    elif mode == "cqla":
        config = CqlaConfig()
    elif mode == "multiplexed":
        config = MultiplexedConfig()
    else:
        raise ValueError(mode)
    supply = config.build_supply(_FACTORY_AREA, nq, zero_bw, pi8_bw, tech)
    return DataflowSimulator(
        circuit,
        tech,
        supply=supply,
        movement_penalty_us=config.movement_penalty(False, tech),
        two_qubit_movement_penalty_us=config.movement_penalty(True, tech),
        cqla=config if mode == "cqla" else None,
    )


class TestEngineEquivalence:
    @pytest.mark.parametrize("mode", SUPPLY_MODES)
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_identical_results_across_kernels_and_supplies(self, kernel, mode):
        analysis = analyze_kernel(kernel, 8)
        legacy = run_reference(_build_simulator(analysis, mode))
        compiled = _build_simulator(analysis, mode).run()
        # Dataclass equality covers makespan, gate count, both ancilla
        # counts, cache misses and teleports — all exactly.
        assert compiled == legacy

    def test_steady_supply_state_matches_after_run(self, qrca8):
        def fresh():
            return SteadyRateSupply(
                {ZERO: qrca8.zero_bandwidth_per_ms, PI8: qrca8.pi8_bandwidth_per_ms}
            )

        legacy_supply, compiled_supply = fresh(), fresh()
        run_reference(
            DataflowSimulator(
                qrca8.circuit, qrca8.tech, supply=legacy_supply
            )
        )
        DataflowSimulator(
            qrca8.circuit, qrca8.tech, supply=compiled_supply
        ).run()
        for kind in (ZERO, PI8):
            assert compiled_supply.ready_spec().kind(kind) == (
                legacy_supply.ready_spec().kind(kind)
            )

    def test_zero_rate_supply_starves_both_engines(self):
        circuit = Circuit(1).h(0)
        starved = SteadyRateSupply({ZERO: 0.0})
        legacy = run_reference(
            DataflowSimulator(
                circuit, supply=SteadyRateSupply({ZERO: 0.0})
            )
        )
        compiled = DataflowSimulator(circuit, supply=starved).run()
        assert legacy.makespan_us == float("inf")
        assert compiled == legacy

    @pytest.mark.parametrize("cqla", (None, CqlaConfig(cache_fraction=0.34, ports=1)))
    def test_small_lean_circuit(self, cqla):
        """A hand-built mix of one- and two-qubit gates with pi/8
        consumers, under both movement penalties and a binding supply."""

        def simulator():
            return DataflowSimulator(
                _lean_mix(),
                supply=SteadyRateSupply({ZERO: 4.0, PI8: 0.5}),
                movement_penalty_us=30.0,
                two_qubit_movement_penalty_us=7.5e3,
                cqla=cqla,
            )

        assert simulator().run() == run_reference(simulator())

    def test_empty_circuit(self):
        result = DataflowSimulator(Circuit(3)).run()
        assert result == run_reference(DataflowSimulator(Circuit(3)))
        assert result.makespan_us == 0.0


class TestCompilation:
    def test_compile_is_memoized_per_circuit_and_tech(self):
        circuit = Circuit(2).h(0).cx(0, 1)
        assert compile_circuit(circuit, ION_TRAP) is compile_circuit(
            circuit, ION_TRAP
        )

    def test_append_invalidates_cached_compilation(self):
        circuit = Circuit(2).h(0)
        first = compile_circuit(circuit, ION_TRAP)
        circuit.cx(0, 1)
        second = compile_circuit(circuit, ION_TRAP)
        assert second is not first
        assert second.num_gates == 2

    def test_compiled_form_contents(self):
        circuit = Circuit(3).t(0).cx(0, 1).h(2).cz(2, 1)
        compiled = compile_circuit(circuit, ION_TRAP)
        assert isinstance(compiled, CompiledCircuit)
        assert compiled.num_gates == 4
        assert compiled.q0 == [0, 0, 2, 2]
        assert compiled.q1 == [-1, 1, -1, 1]
        assert compiled.pi8_flag == [1, 0, 0, 0]
        assert compiled.pi8_count == 1
        # A gate's movement class is its arity.
        assert compiled.one_qubit_moves == 2  # T, H
        assert compiled.two_qubit_moves == 2  # CX, CZ

    def test_mismatched_compiled_circuit_rejected(self):
        circuit = Circuit(2).h(0).cx(0, 1)
        other = compile_circuit(Circuit(2).h(0), ION_TRAP)
        with pytest.raises(ValueError):
            DataflowSimulator(circuit, compiled=other)

    def test_same_shape_different_circuit_rejected(self):
        """Equal gate/qubit counts are not enough: identity is checked."""
        circuit = Circuit(2).h(0).cx(0, 1)
        twin = Circuit(2).h(0).cx(0, 1)
        with pytest.raises(ValueError):
            DataflowSimulator(circuit, compiled=compile_circuit(twin, ION_TRAP))

    def test_orphaned_compiled_circuit_rejected(self):
        """A compiled form whose source was collected is never accepted."""
        compiled = compile_circuit(Circuit(2).h(0).cx(0, 1), ION_TRAP)
        gc.collect()
        with pytest.raises(ValueError):
            DataflowSimulator(Circuit(2).h(0).cx(0, 1), compiled=compiled)

    def test_one_memo_per_compiled_form_dies_with_it(self, batch_routes):
        """Both engines and ``dataflow_metadata`` keep what they derive
        in the compiled form's one memo; a repeat run adds no entry, and
        the memo goes with the form."""
        circuit = _lean_mix()
        compiled = compile_circuit(circuit, ION_TRAP)
        cqla = CqlaConfig(cache_fraction=0.34, ports=1)

        def supply():
            return SteadyRateSupply({ZERO: 4.0, PI8: 0.5})  # binds

        for config in (None, cqla):
            DataflowSimulator(circuit, supply=supply(), cqla=config).run()
            filled = len(compiled._memo)
            DataflowSimulator(circuit, supply=supply(), cqla=config).run()
            assert len(compiled._memo) == filled
        for _ in batch_routes():
            simulate_batch(circuit, [supply() for _ in range(3)])
        dataflow_metadata(compiled)
        assert {key[0] for key in compiled._memo} == {
            simulator_module._cache_schedule,
            simulator_module._supply_free_walk,
            simulator_module._ops,
            simulator_module._draws,
            batched_module._batch_arrays,
            _build_dataflow,
        }
        form = weakref.ref(compiled)
        del circuit, compiled
        gc.collect()
        assert form() is None

    def test_prebuilt_compiled_circuit_reused(self, qrca8):
        compiled = qrca8.compiled_circuit()
        sim = DataflowSimulator(qrca8.circuit, qrca8.tech, compiled=compiled)
        assert sim.compiled is compiled
        reference = DataflowSimulator(qrca8.circuit, qrca8.tech)
        assert sim.run() == run_reference(reference)


class TestCacheScheduleReplay:
    """Serial CQLA runs replay the memoized per-(circuit, cache size)
    trip schedule instead of walking an LRU cache per point."""

    def test_second_run_walks_no_lru(self, monkeypatch):
        circuit = Circuit(8)
        for i in range(24):
            circuit.cx(i % 8, (3 * i + 1) % 8)
        config = CqlaConfig(cache_fraction=0.25)
        # The schedule walks its residency set inline, in an OrderedDict
        # made per walk: one made per run means one LRU walk per run.
        walks = []
        ordered_dict = simulator_module.OrderedDict
        monkeypatch.setattr(
            simulator_module, "OrderedDict",
            lambda: walks.append(1) or ordered_dict(),
        )
        compiled = compile_circuit(circuit, ION_TRAP)

        def run():
            return DataflowSimulator(
                circuit, cqla=config, compiled=compiled
            ).run()

        first = run()
        assert walks == [1]  # the schedule was built by one LRU walk
        walks.clear()
        second = run()
        assert walks == []
        assert second == first
        assert first.cache_misses > 0
        assert first == run_reference(DataflowSimulator(circuit, cqla=config))

    def test_alternating_cache_sizes_and_ports_match_reference(self, qcla8):
        compiled = qcla8.compiled_circuit()
        configs = [
            CqlaConfig(cache_fraction=fraction, ports=ports)
            for fraction in (0.125, 0.5)
            for ports in (1, 8)
        ]
        sizes = {c.cache_size(qcla8.circuit.num_qubits) for c in configs}
        assert len(sizes) == 2
        zero_bw = qcla8.zero_bandwidth_per_ms
        pi8_bw = qcla8.pi8_bandwidth_per_ms
        nq = qcla8.circuit.num_qubits

        def simulator(config, **kwargs):
            supply = config.build_supply(
                _FACTORY_AREA, nq, zero_bw, pi8_bw, qcla8.tech
            )
            return DataflowSimulator(
                qcla8.circuit,
                qcla8.tech,
                supply=supply,
                movement_penalty_us=config.movement_penalty(False, qcla8.tech),
                two_qubit_movement_penalty_us=config.movement_penalty(
                    True, qcla8.tech
                ),
                cqla=config,
                **kwargs,
            )

        results = {}
        for config in configs * 2:
            result = simulator(config, compiled=compiled).run()
            assert result == run_reference(simulator(config))
            results.setdefault(config, result)
            assert result == results[config]
        # Every configuration misses, and the configurations differ.
        assert all(r.cache_misses > 0 for r in results.values())
        assert len({r.makespan_us for r in results.values()}) > 1



def _cqla_simulator(analysis, config, supply, **kwargs):
    return DataflowSimulator(
        analysis.circuit,
        analysis.tech,
        supply=supply,
        movement_penalty_us=config.movement_penalty(False, analysis.tech),
        two_qubit_movement_penalty_us=config.movement_penalty(
            True, analysis.tech
        ),
        cqla=config,
        **kwargs,
    )


def _fig15_supplies(analysis, config):
    """Fresh CQLA supplies over Figure 15's default area ladder."""
    matched = area_breakdown(analysis).factory_area
    return [
        config.build_supply(
            float(area),
            analysis.circuit.num_qubits,
            analysis.zero_bandwidth_per_ms,
            analysis.pi8_bandwidth_per_ms,
            analysis.tech,
        )
        for area in np.geomspace(matched / 8.0, matched * 512.0, 14)
    ]


@pytest.fixture
def cache_walks(monkeypatch):
    """Counts walks by either loop (``_run_flat`` or ``_run_cache``): the
    memoized supply-free walk's one and every bound point's own."""
    calls = []
    for name in ("_run_flat", "_run_cache"):
        loop = getattr(simulator_module, name)
        monkeypatch.setattr(
            simulator_module, name,
            lambda *args, loop=loop: calls.append(1) or loop(*args),
        )
    return calls


class TestSupplyFreeReplay:
    """A CQLA point whose ancillae are ready by every gate's supply-free
    start returns the memoized supply-free walk without walking."""

    @pytest.mark.parametrize("fraction,ports", [(0.125, 1), (0.25, 2), (0.5, 8)])
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_fig15_ladder_matches_reference(
        self, kernel, fraction, ports, cache_walks
    ):
        analysis = analyze_kernel(kernel, 8)
        compiled = analysis.compiled_circuit()
        config = CqlaConfig(cache_fraction=fraction, ports=ports)
        walked = []
        for supply, reference_supply in zip(
            _fig15_supplies(analysis, config), _fig15_supplies(analysis, config)
        ):
            before = len(cache_walks)
            result = _cqla_simulator(
                analysis, config, supply, compiled=compiled
            ).run()
            walked.append(len(cache_walks) - before)
            reference = run_reference(
                _cqla_simulator(analysis, config, reference_supply)
            )
            assert result == reference
            assert asdict(supply.ready_spec()) == asdict(
                reference_supply.ready_spec()
            )
        # The first point also builds the memo; after it, every point
        # either replays (0 walks) or walks once, and the ladder holds
        # both kinds.
        assert walked[0] >= 1 and set(walked[1:]) <= {0, 1}
        assert walked.count(0) > 0 and walked.count(1) > 0

    def test_replayed_point_skips_walk_and_bound_point_walks(
        self, qcla8, cache_walks
    ):
        compiled = qcla8.compiled_circuit()
        config = CqlaConfig()
        ladder = _fig15_supplies(qcla8, config)
        _cqla_simulator(qcla8, config, InfiniteSupply(), compiled=compiled).run()
        cache_walks.clear()
        _cqla_simulator(qcla8, config, ladder[-1], compiled=compiled).run()
        assert cache_walks == []
        _cqla_simulator(qcla8, config, ladder[0], compiled=compiled).run()
        assert cache_walks == [1]

    @pytest.mark.parametrize("nudge", [False, True])
    def test_ready_equal_to_starts_replays(
        self, qcla8, monkeypatch, cache_walks, nudge
    ):
        """Ready times exactly at the supply-free starts cannot bind the
        loop's strict ``ready > t``, so they replay; one ulp later on one
        gate walks. Either way the result is the walk's."""
        compiled = qcla8.compiled_circuit()
        config = CqlaConfig()
        sim = _cqla_simulator(qcla8, config, InfiniteSupply(), compiled=compiled)
        args = (
            config.cache_size(compiled.num_qubits),
            config.ports,
            simulator_module.teleport_latency(qcla8.tech),
            sim.move_1q,
            sim.move_2q,
            sim._logical.qec_interaction_latency(),
        )
        starts, makespan = compiled.memoized(
            simulator_module._supply_free_walk, *args
        )
        ready = starts.copy()
        if nudge:
            # The last gate to finish, so the makespan must move.
            ready[-1] = np.nextafter(ready[-1], np.inf)
        monkeypatch.setattr(
            simulator_module, "lower_ready",
            lambda cc, signature, specs: ready[:, None].copy(),
        )
        cache_walks.clear()
        result = _cqla_simulator(
            qcla8, config, SteadyRateSupply({ZERO: 1.0}), compiled=compiled
        ).run()
        assert cache_walks == ([1] if nudge else [])
        ops = compiled.memoized(simulator_module._ops, args[0], args[3], args[5])
        walk = simulator_module._run_cache(
            ops, config.ports, args[2], args[3], args[4],
            simulator_module._op_ready(ops, ready, starts), args[5],
            simulator_module._Rewalk(
                ops, ready, compiled.latency_us, args[3], args[5]
            ),
        )
        assert result.makespan_us == walk
        assert (walk != makespan) == nudge

    def test_ports_and_movement_never_share_a_memo_entry(self, qcla8):
        """One cache size, run alternately with ports 1 and 8 and with
        each movement penalty changed: every variant keeps its own walk."""
        compiled = qcla8.compiled_circuit()
        tech = qcla8.tech
        variants = []
        for ports in (1, 8):
            config = CqlaConfig(cache_fraction=0.25, ports=ports)
            move_1q = config.movement_penalty(False, tech)
            move_2q = config.movement_penalty(True, tech)
            for moves in ((move_1q, move_2q), (5.0, move_2q), (move_1q, 0.0)):
                variants.append((config, moves))
        assert len({c.cache_size(compiled.num_qubits) for c, _ in variants}) == 1

        def simulator(config, moves, **kwargs):
            return DataflowSimulator(
                qcla8.circuit, tech, movement_penalty_us=moves[0],
                two_qubit_movement_penalty_us=moves[1], cqla=config, **kwargs,
            )

        results = {}
        for config, moves in variants * 2:
            result = simulator(config, moves, compiled=compiled).run()
            assert result == run_reference(simulator(config, moves))
            assert results.setdefault((config.ports, moves), result) == result
        assert len({r.makespan_us for r in results.values()}) == len(variants)


def _lean_body(circuit, half):
    """Append one half of a lean mix (one- and two-qubit gates,
    pi/8 consumers included) to a 6-qubit circuit."""
    if half == 0:
        return circuit.h(0).cx(0, 1).t(2).cx(2, 3).s(4).cx(4, 5)
    return circuit.tdg(1).cx(1, 4).cz(3, 5).t(0).h(5).cx(5, 2)


def _lean_mix():
    return _lean_body(_lean_body(Circuit(6), 0), 1)


def _measure_then_condition(circuit):
    bit = f"m{len(circuit)}"  # a fresh bit per segment
    return circuit.measure_z(2, bit).x(3, condition=bit)


#: Gate shapes outside the lean one, as segments to splice into a lean
#: circuit: a third operand, a result bit read by a condition, and a
#: preparation (which moves in place).
_SEGMENTS = {
    "ccx": lambda c: c.ccx(0, 1, 2),
    "measure": _measure_then_condition,
    "prep": lambda c: c.prep_0(1),
}


def _supply_state(supply):
    """Every tracked kind's counters (dedicated specs compare by
    identity, so their fields are compared instead)."""
    return {kind: vars(spec) for kind, spec in supply.ready_spec().kinds.items()}


def _spliced(segment, placement):
    """A lean mix with ``segment`` spliced in first, last or twice in
    its middle, and the index of the segment's first gate."""
    circuit = Circuit(6)
    add = _SEGMENTS[segment]
    first = 0
    if placement == "first":
        add(circuit)
    _lean_body(circuit, 0)
    if placement == "back_to_back":
        first = len(circuit)
        add(add(circuit))
    _lean_body(circuit, 1)
    if placement == "last":
        first = len(circuit)
        add(circuit)
    return circuit, first


class TestGateShapes:
    """``compile_circuit`` accepts one gate shape, the one every kernel
    has: one or two operands, no classical bit, no prep/measure. Any
    other shape is a ``ValueError`` from it, and so from ``run()`` and
    ``simulate_batch``, before any supply state advances (the reference
    loop still runs every shape)."""

    @pytest.mark.parametrize("width", (4, 8, 32))
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_kernels_are_lean(self, kernel, width):
        analysis = analyze_kernel(kernel, width)
        cc = analysis.compiled_circuit()
        assert cc.num_gates == len(analysis.circuit)
        assert cc.one_qubit_moves + cc.two_qubit_moves == cc.num_gates

    @pytest.mark.parametrize(
        "cqla", (None, CqlaConfig(cache_fraction=0.34, ports=1)),
        ids=("flat", "cqla"),
    )
    @pytest.mark.parametrize("segment", sorted(_SEGMENTS))
    def test_cqla_refuses_other_shapes_before_any_supply_moves(
        self, segment, cqla, batch_routes
    ):
        """A circuit with another gate shape raises ``ValueError`` from
        ``compile_circuit``, ``run()`` and ``simulate_batch`` (on either
        route), with or without a cache, and no supply has advanced."""
        circuit = _lean_mix()
        first = len(circuit)  # the segment's first gate: the one named
        _SEGMENTS[segment](circuit)
        refused = functools.partial(
            pytest.raises, ValueError, match=rf"^gate {first} \("
        )
        with refused():
            compile_circuit(circuit, ION_TRAP)

        def supplies():
            return [
                SteadyRateSupply({ZERO: 4.0, PI8: 0.5}),
                DedicatedSupply({ZERO: 2.0, PI8: 0.25}, 6),
                SteadyRateSupply({ZERO: 8.0}),
                InfiniteSupply(),
            ]

        fresh = [_supply_state(supply) for supply in supplies()]
        for _ in batch_routes():
            batch = supplies()
            with refused():
                simulate_batch(circuit, batch, cqla=cqla)
            assert [_supply_state(supply) for supply in batch] == fresh
        for supply, state in zip(supplies(), fresh):
            sim = DataflowSimulator(circuit, supply=supply, cqla=cqla)
            with refused():
                sim.run()
            assert _supply_state(supply) == state
        # The reference loop still runs it.
        assert run_reference(DataflowSimulator(circuit, cqla=cqla)).gates == (
            len(circuit)
        )

    @pytest.mark.parametrize("placement", ("first", "last", "back_to_back"))
    @pytest.mark.parametrize("segment", sorted(_SEGMENTS))
    def test_refusal_names_the_first_other_shape(self, segment, placement):
        """Wherever another shape sits, and however often, the refusal
        names its first gate, from ``compile_circuit`` and ``run()``."""
        circuit, first = _spliced(segment, placement)
        refused = functools.partial(
            pytest.raises, ValueError, match=rf"^gate {first} \("
        )
        with refused():
            compile_circuit(circuit, ION_TRAP)
        with refused():
            DataflowSimulator(circuit).run()

    @pytest.mark.parametrize("placement", ("first", "last", "back_to_back"))
    @pytest.mark.parametrize("segment", sorted(_SEGMENTS))
    def test_reference_runs_other_shapes_at_the_dependency_floor(
        self, segment, placement
    ):
        """The two oracles stay general: on an unlimited supply with no
        movement, the reference loop's makespan is the QEC-aware ASAP
        finish of ``CircuitDag``'s schedule, condition edges included."""
        circuit, _ = _spliced(segment, placement)
        result = run_reference(DataflowSimulator(circuit))
        schedule = asap_schedule(
            circuit, QecAwareLatency(LogicalLatencyModel(ION_TRAP))
        )
        assert result.gates == len(circuit)
        assert result.makespan_us == max(entry.finish for entry in schedule)

    @pytest.mark.parametrize("mode", SUPPLY_MODES)
    def test_lean_run_never_enters_batched(self, mode, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("a lean circuit ran a numpy kernel")

        monkeypatch.setattr(batched_module, "_run_levels", boom)
        for kernel in KERNELS:
            analysis = analyze_kernel(kernel, 8)
            assert _build_simulator(analysis, mode).run() == run_reference(
                _build_simulator(analysis, mode)
            )
