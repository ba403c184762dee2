"""Property tests: the point-batched engine over random sweep batches.

For any vector of supply rates (zero-rate starvation included), any
point count and any supply model mix, ``simulate_batch`` must equal the
serial reference loop (``run_reference``) point for point with exact float
equality — the batching axis must never perturb a single bit of the
simulation.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import simulate_batch
from repro.arch.simulator import DataflowSimulator
from repro.arch.supply import PI8, ZERO, DedicatedSupply, SteadyRateSupply
from repro.circuits import Circuit
from repro.testing.reference import run_reference

NUM_QUBITS = 5


def _protocol_circuit() -> Circuit:
    """A small circuit exercising every batching hazard: two-qubit and
    Toffoli dependencies, pi/8 consumers, measurements and conditions."""
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

# Rates in ancillae/ms. 0.0 exercises starvation (infinite makespans);
# the wide spread exercises both supply-bound and data-bound points.
rate_values = st.one_of(
    st.just(0.0),
    st.floats(
        min_value=1e-3,
        max_value=1e4,
        allow_nan=False,
        allow_infinity=False,
    ),
)


@settings(max_examples=60, deadline=None)
@given(
    rates=st.lists(
        st.tuples(rate_values, rate_values), min_size=1, max_size=12
    )
)
def test_steady_batches_match_reference(rates):
    def supplies():
        return [
            SteadyRateSupply({ZERO: zero, PI8: pi8}) for zero, pi8 in rates
        ]

    batched = simulate_batch(CIRCUIT, supplies())
    reference = [
        run_reference(DataflowSimulator(CIRCUIT, supply=supply))
        for supply in supplies()
    ]
    assert batched == reference


@settings(max_examples=40, deadline=None)
@given(
    rates=st.lists(
        st.tuples(rate_values, rate_values), min_size=1, max_size=8
    ),
    movement=st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
)
def test_dedicated_batches_match_reference(rates, movement):
    def supplies():
        return [
            DedicatedSupply({ZERO: zero, PI8: pi8}, NUM_QUBITS)
            for zero, pi8 in rates
        ]

    batched = simulate_batch(
        CIRCUIT,
        supplies(),
        movement_penalty_us=movement,
        two_qubit_movement_penalty_us=movement * 2.0,
    )
    reference = [
        run_reference(
            DataflowSimulator(
                CIRCUIT,
                supply=supply,
                movement_penalty_us=movement,
                two_qubit_movement_penalty_us=movement * 2.0,
            )
        )
        for supply in supplies()
    ]
    assert batched == reference


@settings(max_examples=30, deadline=None)
@given(
    picks=st.lists(
        st.tuples(st.sampled_from(["steady", "dedicated", "infinite"]),
                  rate_values),
        min_size=1,
        max_size=10,
    )
)
def test_mixed_model_batches_match_reference(picks):
    from repro.arch.supply import InfiniteSupply

    def supplies():
        built = []
        for model, rate in picks:
            if model == "steady":
                built.append(SteadyRateSupply({ZERO: rate, PI8: rate / 2.0}))
            elif model == "dedicated":
                built.append(
                    DedicatedSupply({ZERO: rate, PI8: rate}, NUM_QUBITS)
                )
            else:
                built.append(InfiniteSupply())
        return built

    batched = simulate_batch(CIRCUIT, supplies())
    reference = [
        run_reference(DataflowSimulator(CIRCUIT, supply=supply))
        for supply in supplies()
    ]
    assert batched == reference
