"""Property tests: declarative ready-spec lowering vs the acquire loop.

The tentpole invariant of the ready-spec protocol: for every supply that
declares a spec, lowering that spec into the closed-form / array kernels
must equal the gate-by-gate ``acquire()`` reference loop (``run_reference``)
with exact float equality — and must leave the supply's observable state
(consumed counters, per-qubit vectors) identical too. Exercised over
random rate vectors (zero and infinite rates included), mixed tracked
kinds, CQLA configurations, and point counts up to 128 — every example
on both of ``simulate_batch``'s routes (vectorized kernels and per-point
``run()``; see the ``batch_routes`` fixture).
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch import simulate_batch
from repro.arch.architectures import CqlaConfig
from repro.arch.simulator import DataflowSimulator
from repro.arch.supply import (
    PI8,
    ZERO,
    DedicatedSupply,
    InfiniteSupply,
    SteadyRateSupply,
)
from repro.circuits import Circuit
from repro.testing.reference import run_reference

NUM_QUBITS = 5


def _protocol_circuit() -> Circuit:
    """Every lowering hazard: multi-qubit deps, pi/8 consumers,
    measurements and classically-conditioned gates."""
    return (
        Circuit(NUM_QUBITS)
        .h(0)
        .cx(0, 1)
        .t(1)
        .ccx(0, 1, 2)
        .measure_z(2, "m0")
        .x(3, condition="m0")
        .t(3)
        .cx(3, 4)
        .measure_x(4, "m1")
        .z(0, condition="m1")
        .t(0)
    )


CIRCUIT = _protocol_circuit()

#: ``batch_routes`` re-forces its route inside every example.
ROUTED = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

# Rates in ancillae/ms. Zero exercises starvation (infinite ready times,
# no consumption recorded); infinity exercises the always-ready-but-still-
# counted edge of the closed form.
rate_values = st.one_of(
    st.just(0.0),
    st.just(float("inf")),
    st.floats(
        min_value=1e-3,
        max_value=1e4,
        allow_nan=False,
        allow_infinity=False,
    ),
)

# Tracked-kind subsets: untracked kinds never constrain, and mixing
# signatures inside one batch exercises the grouping logic.
kind_subsets = st.sampled_from(
    [(ZERO, PI8), (ZERO,), (PI8,), ()]
)


def _steady_state(supply):
    return {kind: supply.consumed_so_far(kind) for kind in (ZERO, PI8)}


def _dedicated_state(supply):
    out = {}
    for kind in (ZERO, PI8):
        state = supply.dedicated_state(kind)
        out[kind] = None if state is None else list(state[1])
    return out


def _reference(supplies, cqla=None):
    return [
        run_reference(DataflowSimulator(CIRCUIT, supply=supply, cqla=cqla))
        for supply in supplies
    ]


@settings(max_examples=50, **ROUTED)
@given(
    points=st.lists(
        st.tuples(kind_subsets, rate_values, rate_values),
        min_size=1,
        max_size=12,
    )
)
def test_steady_lowering_matches_acquire_loop_and_state(
    points, batch_routes
):
    def supplies():
        return [
            SteadyRateSupply(
                {k: r for k, r in zip((ZERO, PI8), (zero, pi8)) if k in kinds}
            )
            for kinds, zero, pi8 in points
        ]

    reference_supplies = supplies()
    reference = _reference(reference_supplies)
    for _ in batch_routes():
        batch_supplies = supplies()
        assert simulate_batch(CIRCUIT, batch_supplies) == reference
        for batch_supply, reference_supply in zip(
            batch_supplies, reference_supplies
        ):
            assert _steady_state(batch_supply) == (
                _steady_state(reference_supply)
            )


@settings(max_examples=30, **ROUTED)
@given(
    rates=st.lists(
        st.tuples(rate_values, rate_values), min_size=1, max_size=8
    ),
    movement=st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
)
def test_dedicated_lowering_matches_acquire_loop_and_state(
    rates, movement, batch_routes
):
    def supplies():
        return [
            DedicatedSupply({ZERO: zero, PI8: pi8}, NUM_QUBITS)
            for zero, pi8 in rates
        ]

    reference_supplies = supplies()
    reference = [
        run_reference(
            DataflowSimulator(
                CIRCUIT,
                supply=supply,
                movement_penalty_us=movement,
                two_qubit_movement_penalty_us=movement * 2.0,
            )
        )
        for supply in reference_supplies
    ]
    for _ in batch_routes():
        batch_supplies = supplies()
        batched = simulate_batch(
            CIRCUIT,
            batch_supplies,
            movement_penalty_us=movement,
            two_qubit_movement_penalty_us=movement * 2.0,
        )
        assert batched == reference
        for batch_supply, reference_supply in zip(
            batch_supplies, reference_supplies
        ):
            assert _dedicated_state(batch_supply) == (
                _dedicated_state(reference_supply)
            )


@settings(max_examples=30, **ROUTED)
@given(
    cache_fraction=st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
    ports=st.integers(min_value=1, max_value=4),
    picks=st.lists(
        st.tuples(st.sampled_from(["steady", "infinite"]), rate_values),
        min_size=1,
        max_size=8,
    ),
)
def test_cqla_lockstep_matches_acquire_loop_and_state(
    cache_fraction, ports, picks, batch_routes
):
    cqla = CqlaConfig(cache_fraction=cache_fraction, ports=ports)

    def supplies():
        return [
            SteadyRateSupply({ZERO: rate, PI8: rate / 2.0})
            if model == "steady"
            else InfiniteSupply()
            for model, rate in picks
        ]

    reference_supplies = supplies()
    reference = _reference(reference_supplies, cqla=cqla)
    for _ in batch_routes():
        batch_supplies = supplies()
        assert simulate_batch(CIRCUIT, batch_supplies, cqla=cqla) == reference
        for batch_supply, reference_supply in zip(
            batch_supplies, reference_supplies
        ):
            if isinstance(batch_supply, SteadyRateSupply):
                assert _steady_state(batch_supply) == (
                    _steady_state(reference_supply)
                )


@settings(max_examples=10, **ROUTED)
@given(
    count=st.integers(min_value=1, max_value=128),
    base=st.floats(min_value=1e-2, max_value=1e3, allow_nan=False),
    cqla_on=st.booleans(),
)
def test_point_count_axis_up_to_128(count, base, cqla_on, batch_routes):
    """The batching axis itself — 1 through 128 points, distinct rates
    per point — never perturbs a bit, with or without CQLA."""
    cqla = CqlaConfig() if cqla_on else None

    def supplies():
        return [
            SteadyRateSupply(
                {ZERO: base * (i + 1), PI8: base * (i + 1) / 3.0}
            )
            for i in range(count)
        ]

    reference = _reference(supplies(), cqla=cqla)
    for _ in batch_routes():
        assert simulate_batch(CIRCUIT, supplies(), cqla=cqla) == reference
