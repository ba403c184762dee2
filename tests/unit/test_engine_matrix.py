"""The cross-engine equivalence test matrix.

One parameterized suite asserting ``run_reference() == run() ==
simulate_batch()`` — exact equality of every ``SimulationResult`` field —
across every architecture/supply model x kernel x code level. This
consolidates what test_compiled_engine (reference vs compiled) and
test_batched_sweep (compiled vs batched) assert piecemeal, and extends
the matrix along the concatenation-level axis: at ``code_level`` L the
reference loop and both engines run under ``tech.at_level(L)``'s
re-characterized latency tables and must still agree bit for bit.

Supplies are constructed fresh per engine (rate-limited supplies carry
consumption state), and the batched engine is exercised both as a
singleton batch and as one grouped batch of rate-scaled variants, each
on both of its routes (the ``batch_routes`` fixture forces the shape
rule): the vectorized kernels and per-point ``run()``.
"""

import pytest

from repro.arch.architectures import (
    CqlaConfig,
    MultiplexedConfig,
    QlaConfig,
)
from repro.arch.batched import simulate_batch
from repro.arch.simulator import DataflowSimulator
from repro.arch.supply import PI8, ZERO, SteadyRateSupply
from repro.kernels import analyze_kernel
from repro.tech import ION_TRAP
from repro.testing.reference import run_reference
from repro.testing.supplies import SteadyZerosDedicatedPi8

KERNELS = ("qrca", "qcla", "qft")

#: Every supply/architecture model the simulator stack distinguishes.
SUPPLY_MODES = (
    "infinite",
    "steady-rate",
    "zero-rate",
    "qla",
    "cqla",
    "multiplexed",
    "custom",
)

CODE_LEVELS = (1, 2)

_FACTORY_AREA = 500.0


def _configuration(analysis, mode):
    """(supply, move_1q, move_2q, cqla) with *fresh* supply state."""
    tech = analysis.tech
    zero_bw = analysis.zero_bandwidth_per_ms
    pi8_bw = analysis.pi8_bandwidth_per_ms
    nq = analysis.circuit.num_qubits
    if mode == "infinite":
        return None, 0.0, 0.0, None
    if mode == "steady-rate":
        # Half the matched demand, so gates actually wait on the supply.
        supply = SteadyRateSupply({ZERO: zero_bw / 2.0, PI8: pi8_bw / 2.0})
        return supply, 0.0, 0.0, None
    if mode == "zero-rate":
        return SteadyRateSupply({ZERO: 0.0, PI8: pi8_bw}), 0.0, 0.0, None
    if mode == "custom":
        # Half the matched demand on both kinds, split over the qubits'
        # private pi/8 generators.
        supply = SteadyZerosDedicatedPi8(zero_bw / 2.0, pi8_bw / 2.0 / nq, nq)
        return supply, 0.0, 0.0, None
    config = {
        "qla": QlaConfig(),
        "cqla": CqlaConfig(),
        "multiplexed": MultiplexedConfig(),
    }[mode]
    supply = config.build_supply(_FACTORY_AREA, nq, zero_bw, pi8_bw, tech)
    return (
        supply,
        config.movement_penalty(False, tech),
        config.movement_penalty(True, tech),
        config if mode == "cqla" else None,
    )


def _simulator(analysis, mode):
    supply, move_1q, move_2q, cqla = _configuration(analysis, mode)
    return DataflowSimulator(
        analysis.circuit,
        analysis.tech,
        supply=supply,
        movement_penalty_us=move_1q,
        two_qubit_movement_penalty_us=move_2q,
        cqla=cqla,
    )


def _batched(analysis, mode):
    supply, move_1q, move_2q, cqla = _configuration(analysis, mode)
    if supply is None:
        from repro.arch.supply import InfiniteSupply

        supply = InfiniteSupply()
    return simulate_batch(
        analysis.circuit,
        [supply],
        analysis.tech,
        movement_penalty_us=move_1q,
        two_qubit_movement_penalty_us=move_2q,
        cqla=cqla,
    )[0]


@pytest.fixture(scope="module", params=CODE_LEVELS, ids=lambda l: f"L{l}")
def code_level(request):
    return request.param


class TestEngineMatrix:
    """run_reference == run == simulate_batch, everywhere."""

    @pytest.mark.parametrize("mode", SUPPLY_MODES)
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_three_engines_identical(
        self, kernel, mode, code_level, batch_routes
    ):
        analysis = analyze_kernel(kernel, 8, code_level=code_level)
        reference = run_reference(_simulator(analysis, mode))
        compiled = _simulator(analysis, mode).run()
        # Dataclass equality covers makespan, gate count, both ancilla
        # counts, cache misses and teleports — all exactly.
        assert compiled == reference
        for _ in batch_routes():
            assert _batched(analysis, mode) == reference

    @pytest.mark.parametrize("mode", ("steady-rate", "qla", "multiplexed"))
    def test_grouped_batch_matches_serial_runs(
        self, mode, code_level, batch_routes
    ):
        """A real multi-point batch equals N independent serial runs."""
        analysis = analyze_kernel("qrca", 8, code_level=code_level)

        def variants():
            out = []
            for factor in (0.5, 1.0, 2.0):
                supply, move_1q, move_2q, _ = _configuration(analysis, mode)
                if mode == "steady-rate":
                    supply = SteadyRateSupply(
                        {
                            ZERO: analysis.zero_bandwidth_per_ms * factor,
                            PI8: analysis.pi8_bandwidth_per_ms * factor,
                        }
                    )
                out.append((supply, move_1q, move_2q))
            return out

        serial = [
            DataflowSimulator(
                analysis.circuit,
                analysis.tech,
                supply=supply,
                movement_penalty_us=m1,
                two_qubit_movement_penalty_us=m2,
            ).run()
            for supply, m1, m2 in variants()
        ]
        for _ in batch_routes():
            fresh = variants()
            batched = simulate_batch(
                analysis.circuit,
                [supply for supply, _, _ in fresh],
                analysis.tech,
                movement_penalty_us=fresh[0][1],
                two_qubit_movement_penalty_us=fresh[0][2],
            )
            assert batched == serial

    def test_level_two_actually_recharacterizes(self):
        """The level axis is not a no-op: leveled latencies slow the run."""
        level1 = analyze_kernel("qrca", 8)
        level2 = analyze_kernel("qrca", 8, code_level=2)
        assert level2.tech is ION_TRAP.at_level(2)
        m1 = DataflowSimulator(level1.circuit, level1.tech).run().makespan_us
        m2 = DataflowSimulator(level2.circuit, level2.tech).run().makespan_us
        assert m2 > 2.0 * m1

    def test_supply_state_identical_across_engines(
        self, code_level, batch_routes
    ):
        """Observable supply state advances identically in all engines."""
        analysis = analyze_kernel("qcla", 8, code_level=code_level)

        def fresh():
            return SteadyRateSupply(
                {
                    ZERO: analysis.zero_bandwidth_per_ms,
                    PI8: analysis.pi8_bandwidth_per_ms,
                }
            )

        def state_after(runner):
            supply = fresh()
            runner(supply)
            spec = supply.ready_spec()
            return spec.kind(ZERO).consumed, spec.kind(PI8).consumed

        reference = state_after(
            lambda s: run_reference(
                DataflowSimulator(analysis.circuit, analysis.tech, supply=s)
            )
        )
        assert reference == state_after(
            lambda s: DataflowSimulator(
                analysis.circuit, analysis.tech, supply=s
            ).run()
        )
        for _ in batch_routes():
            assert reference == state_after(
                lambda s: simulate_batch(analysis.circuit, [s], analysis.tech)
            )
