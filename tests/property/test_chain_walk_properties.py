"""Property tests: the serial walk's chain steps against the oracle.

``DataflowSimulator.run`` takes each run of ``_CHAIN_MIN`` or more
one-qubit gates on one qubit as one closed-form step when every addend
is a non-negative integer, and walks a chain gate by gate when its
closed form might round (see ``repro.arch.simulator._Ops``). Either way
it must equal the per-gate-object reference loop (``run_reference``)
bit for bit, supply state included: over the three kernels at widths
4-8, steady, dedicated and mixed supplies with prior consumption and
zero rates (infinite ready times), movement penalties, CQLA cache sizes
and ports, ``tech_scale`` 1, 0.5 and 0.7 (only 1 has integer addends)
and code levels 1-2.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.arch.simulator as simulator_module
from repro import obs
from repro.arch.architectures import CqlaConfig
from repro.arch.simulator import DataflowSimulator
from repro.arch.supply import PI8, ZERO, DedicatedSupply, SteadyRateSupply
from repro.circuits import Circuit
from repro.kernels import analyze_kernel
from repro.tech import ION_TRAP
from repro.testing.reference import run_reference
from repro.testing.supplies import SteadyZerosDedicatedPi8


def _supply(model, zero_rate, pi8_rate, consumed, num_qubits):
    """A fresh supply of ``model`` that has already handed out
    ``consumed`` ancillae of each kind (per qubit, when dedicated)."""
    if model == "steady":
        supply = SteadyRateSupply({ZERO: zero_rate, PI8: pi8_rate})
    elif model == "dedicated":
        supply = DedicatedSupply({ZERO: zero_rate, PI8: pi8_rate}, num_qubits)
    else:
        supply = SteadyZerosDedicatedPi8(zero_rate, pi8_rate, num_qubits)
    for kind in (ZERO, PI8):
        if model == "steady" or (model == "mixed" and kind == ZERO):
            supply.advance(kind, consumed)
        else:
            supply.advance_per_qubit(kind, [consumed] * num_qubits)
    return supply


def _state(supply):
    return {
        kind: {name: list(v) if isinstance(v, list) else v
               for name, v in vars(spec).items()}
        for kind, spec in supply.ready_spec().kinds.items()
    }


#: A rate as a multiple of the kernel's matched bandwidth (0: starved).
rate_scales = st.one_of(
    st.just(0.0), st.floats(min_value=1 / 16, max_value=16.0)
)


@settings(max_examples=80, deadline=None)
@given(
    kernel=st.sampled_from(("qrca", "qcla", "qft")),
    width=st.integers(min_value=4, max_value=8),
    tech_scale=st.sampled_from((1.0, 0.5, 0.7)),
    code_level=st.sampled_from((1, 2)),
    model=st.sampled_from(("steady", "dedicated", "mixed")),
    zero_scale=rate_scales,
    pi8_scale=rate_scales,
    consumed=st.integers(min_value=0, max_value=50),
    move_1q=st.sampled_from((0.0, 1.0, 30.0, 0.25)),
    move_2q=st.sampled_from((0.0, 18.0, 166.0, 7.5)),
    cache=st.one_of(
        st.none(),
        st.tuples(
            st.floats(min_value=0.05, max_value=1.0),
            st.integers(min_value=1, max_value=4),
        ),
    ),
)
def test_run_matches_reference(
    kernel, width, tech_scale, code_level, model, zero_scale, pi8_scale,
    consumed, move_1q, move_2q, cache,
):
    scaled = ION_TRAP if tech_scale == 1.0 else ION_TRAP.scaled(tech_scale)
    analysis = analyze_kernel(kernel, width, scaled, code_level=code_level)
    tech = analysis.tech
    nq = analysis.circuit.num_qubits
    zero_rate = analysis.zero_bandwidth_per_ms * zero_scale
    pi8_rate = analysis.pi8_bandwidth_per_ms * pi8_scale
    if model != "steady":
        zero_rate /= nq if model == "dedicated" else 1
        pi8_rate /= nq
    cqla = None if cache is None else CqlaConfig(
        cache_fraction=cache[0], ports=cache[1]
    )

    def simulator(**kwargs):
        return DataflowSimulator(
            analysis.circuit, tech,
            supply=_supply(model, zero_rate, pi8_rate, consumed, nq),
            movement_penalty_us=move_1q,
            two_qubit_movement_penalty_us=move_2q, cqla=cqla, **kwargs,
        )

    sim = simulator()
    reference = simulator()
    assert sim.run() == run_reference(reference)
    assert _state(sim.supply) == _state(reference.supply)


@pytest.fixture
def walk_spans():
    """The ``simulate.level_walk`` span attributes of each run."""
    obs.enable()
    try:
        yield lambda: [
            event["args"] for event in obs.tracer().events()
            if event["name"] == "simulate.level_walk"
        ]
    finally:
        obs.disable()


def test_qft_takes_the_collapsed_path(walk_spans):
    analysis = analyze_kernel("qft", 8)
    supply = SteadyRateSupply({ZERO: analysis.zero_bandwidth_per_ms / 4})
    reference_supply = SteadyRateSupply(
        {ZERO: analysis.zero_bandwidth_per_ms / 4}
    )
    result = DataflowSimulator(analysis.circuit, supply=supply).run()
    assert result == run_reference(
        DataflowSimulator(analysis.circuit, supply=reference_supply)
    )
    (span,) = walk_spans()
    # 52 runs of one-qubit gates, 45 of them chains: 1,192 gates walk in
    # 130 steps.
    assert span["gates"] == 1192 and span["steps"] == 130
    assert "replayed" not in span


def test_chain_that_rounds_is_walked_gate_by_gate(walk_spans):
    """A chain of six gates on one qubit whose ready times are multiples
    of 2000/3 us (binary fractions that never end): the first
    candidate, 666.67 + 738, crosses 1024, loses its last bit and fails
    the exactness check, so the chain is walked gate by gate and still
    equals the oracle."""
    circuit = Circuit(1)
    for _ in range(6):
        circuit.h(0)

    def supply():
        return SteadyRateSupply({ZERO: 3.0})

    assert len(circuit) >= simulator_module._CHAIN_MIN
    result = DataflowSimulator(circuit, supply=supply()).run()
    assert result == run_reference(DataflowSimulator(circuit, supply=supply()))
    (span,) = walk_spans()
    assert span["steps"] == 1 and span["rewalked"] == 1
