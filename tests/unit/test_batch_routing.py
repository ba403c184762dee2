"""Shape routing in ``simulate_batch``: which route a group takes.

``simulate_batch`` sends each lowering-signature group either through one
vectorized kernel pass or through per-point ``DataflowSimulator.run()``,
choosing from the group's shape alone (point count, gate count,
dependency-level count, CQLA on/off; see ``repro.arch.batched._vectorize``).
These tests pin the route on each side of both boundaries on the 32-bit
kernels' real shapes, and check that the results do not move by a bit
when a batch crosses a boundary.
"""

import pytest

import repro.arch.batched as batched_module
from repro.arch import simulate_batch
from repro.arch.architectures import CqlaConfig, QlaConfig
from repro.arch.simulator import DataflowSimulator
from repro.arch.supply import PI8, ZERO, InfiniteSupply, SteadyRateSupply

#: Smallest point count the level kernel takes, per 32-bit kernel:
#: ceil(40 * levels / gates) — qcla-32 (2,211 gates, 123 levels),
#: qrca-32 (2,018 gates, 986 levels), qft-32 (7,552 gates, 3,074 levels).
LEVEL_BOUNDARY = {"qcla": 3, "qrca": 20, "qft": 17}

#: Smallest point count the CQLA lockstep kernel takes, on any circuit.
CQLA_BOUNDARY = 6


@pytest.fixture
def routes(monkeypatch):
    """Counts of kernel passes (and their points) and run() calls."""
    seen = {"levels": [], "lockstep": [], "run": 0}
    real_levels = batched_module._run_levels
    real_lockstep = batched_module._run_cqla_lockstep
    real_run = DataflowSimulator.run

    def levels(cc, points, *args):
        seen["levels"].append(points)
        return real_levels(cc, points, *args)

    def lockstep(cc, points, *args):
        seen["lockstep"].append(points)
        return real_lockstep(cc, points, *args)

    def run(self):
        seen["run"] += 1
        return real_run(self)

    monkeypatch.setattr(batched_module, "_run_levels", levels)
    monkeypatch.setattr(batched_module, "_run_cqla_lockstep", lockstep)
    monkeypatch.setattr(DataflowSimulator, "run", run)

    def take():
        counts = dict(seen)
        seen.update(levels=[], lockstep=[], run=0)
        return counts

    return take


def _supplies(analysis, model, count):
    """``count`` distinct fresh supplies of one model (one signature)."""
    out = []
    for i in range(count):
        scale = 0.25 * (i + 1)
        if model == "steady":
            out.append(
                SteadyRateSupply(
                    {
                        ZERO: analysis.zero_bandwidth_per_ms * scale,
                        PI8: analysis.pi8_bandwidth_per_ms * scale,
                    }
                )
            )
        else:
            config = QlaConfig() if model == "qla" else CqlaConfig()
            out.append(
                config.build_supply(
                    400.0 * scale,
                    analysis.circuit.num_qubits,
                    analysis.zero_bandwidth_per_ms,
                    analysis.pi8_bandwidth_per_ms,
                    analysis.tech,
                )
            )
    return out


def _batch(analysis, supplies, model):
    tech = analysis.tech
    move_1q = move_2q = 0.0
    cqla = None
    if model != "steady":
        config = QlaConfig() if model == "qla" else CqlaConfig()
        move_1q = config.movement_penalty(False, tech)
        move_2q = config.movement_penalty(True, tech)
        cqla = config if model == "cqla" else None
    return simulate_batch(
        analysis.circuit,
        supplies,
        tech,
        movement_penalty_us=move_1q,
        two_qubit_movement_penalty_us=move_2q,
        cqla=cqla,
        compiled=analysis.compiled_circuit(),
    )


@pytest.mark.parametrize("model", ("steady", "qla", "cqla"))
@pytest.mark.parametrize("kernel", ("qrca", "qcla", "qft"))
def test_route_flips_at_boundary_without_moving_results(
    kernel, model, request, routes
):
    analysis = request.getfixturevalue(f"{kernel}32")
    boundary = CQLA_BOUNDARY if model == "cqla" else LEVEL_BOUNDARY[kernel]
    kernel_pass = "lockstep" if model == "cqla" else "levels"

    below = _batch(analysis, _supplies(analysis, model, boundary - 1), model)
    assert routes() == {"levels": [], "lockstep": [], "run": boundary - 1}
    at = _batch(analysis, _supplies(analysis, model, boundary), model)
    expected = {"levels": [], "lockstep": [], "run": 0}
    expected[kernel_pass] = [boundary]
    assert routes() == expected
    # The shared points agree bit for bit across the boundary, and the
    # extra point equals its own serial run.
    assert at[:-1] == below
    last = _supplies(analysis, model, boundary)[-1]
    assert at[-1] == _batch(analysis, [last], model)[0]


def test_unconstrained_column_routes_as_one_point(qcla32, routes):
    """Unconstrained points share one column: one run() for all of them
    on a circuit too deep for a 1-column kernel pass."""
    supplies = [InfiniteSupply() for _ in range(5)]
    results = _batch(qcla32, supplies, "steady")
    assert routes()["run"] == 1
    assert len({id(r) for r in results}) == len(results)
    alone = DataflowSimulator(qcla32.circuit, qcla32.tech).run()
    assert results == [alone] * len(results)


def test_trace_reports_serial_points(qrca32):
    """The batch span counts shape-routed points as ``serial``, apart
    from ``fallback`` (no honored ready spec)."""
    from repro.obs import trace

    class SpecLess:
        def acquire(self, kind, qubit, count, earliest):
            return earliest

    tracer = trace.enable()
    try:
        _batch(qrca32, _supplies(qrca32, "qla", 2) + [SpecLess()], "qla")
        _batch(qrca32, _supplies(qrca32, "qla", 20), "qla")
    finally:
        trace.disable()
    spans = [
        event["args"]
        for event in tracer.events()
        if event["name"] == "batched.simulate_batch"
    ]
    assert [(s["serial"], s["fallback"], s["dedicated"]) for s in spans] == [
        (2, 1, 0),
        (0, 0, 20),
    ]
