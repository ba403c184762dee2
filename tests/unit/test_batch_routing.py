"""Shape routing in ``simulate_batch``: which route a group takes.

``simulate_batch`` sends each lowering-signature group either through one
vectorized kernel pass or through per-point ``DataflowSimulator.run()``,
choosing from the group's shape alone (point count, gate count, the
steps a serial walk takes, dependency-level count; see
``repro.arch.batched._vectorize``). Every CQLA point runs through
``run()``, whatever the point count. These tests
pin the route on each side of the boundary on the 32-bit kernels' real
shapes, check that the results do not move by a bit when a batch crosses
it, and check that CQLA groups never leave ``run()``.
"""

import pytest

import repro.arch.batched as batched_module
from repro.arch import simulate_batch
from repro.arch.architectures import CqlaConfig, QlaConfig
from repro.arch.simulator import DataflowSimulator
from repro.arch.supply import PI8, ZERO, InfiniteSupply, SteadyRateSupply

#: Smallest point count the level kernel takes, per 32-bit kernel:
#: ceil(90 * levels / (steps + gates / 4)) — qcla-32 (2,211 gates and
#: steps, 123 levels), qrca-32 (2,018 gates and steps, 986 levels),
#: qft-32 (7,552 gates, 1,378 steps, 3,074 levels).
LEVEL_BOUNDARY = {"qcla": 5, "qrca": 36, "qft": 85}

#: CQLA point counts checked: one point, the default Figure 15/16 ladder
#: and grid size, and the CQLA sweep benchmark's width.
CQLA_POINTS = (1, 14, 96)


@pytest.fixture
def routes(monkeypatch):
    """Counts of kernel passes (and their points) and run() calls."""
    seen = {"levels": [], "run": 0}
    real_levels = batched_module._run_levels
    real_run = DataflowSimulator.run

    def levels(cc, points, *args):
        seen["levels"].append(points)
        return real_levels(cc, points, *args)

    def run(self):
        seen["run"] += 1
        return real_run(self)

    monkeypatch.setattr(batched_module, "_run_levels", levels)
    monkeypatch.setattr(DataflowSimulator, "run", run)

    def take():
        counts = dict(seen)
        seen.update(levels=[], run=0)
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
    )


@pytest.mark.parametrize("model", ("steady", "qla"))
@pytest.mark.parametrize("kernel", ("qrca", "qcla", "qft"))
def test_route_flips_at_boundary_without_moving_results(
    kernel, model, request, routes
):
    analysis = request.getfixturevalue(f"{kernel}32")
    boundary = LEVEL_BOUNDARY[kernel]

    below = _batch(analysis, _supplies(analysis, model, boundary - 1), model)
    assert routes() == {"levels": [], "run": boundary - 1}
    at = _batch(analysis, _supplies(analysis, model, boundary), model)
    assert routes() == {"levels": [boundary], "run": 0}
    # The shared points agree bit for bit across the boundary, and the
    # extra point equals its own serial run.
    assert at[:-1] == below
    last = _supplies(analysis, model, boundary)[-1]
    assert at[-1] == _batch(analysis, [last], model)[0]


@pytest.mark.parametrize("kernel", ("qrca", "qcla", "qft"))
def test_cqla_points_always_run_serially(kernel, request, routes):
    """Every CQLA point goes to run(), at any point count, and a batch's
    results equal each point's own run() bit for bit."""
    analysis = request.getfixturevalue(f"{kernel}32")
    batches = {}
    for count in CQLA_POINTS:
        batches[count] = _batch(
            analysis, _supplies(analysis, "cqla", count), "cqla"
        )
        assert routes() == {"levels": [], "run": count}
    widest = batches[max(CQLA_POINTS)]
    assert any(r.cache_misses > 0 for r in widest)
    for count, results in batches.items():
        assert results == widest[:count]
    last = _supplies(analysis, "cqla", max(CQLA_POINTS))[-1]
    assert widest[-1] == _batch(analysis, [last], "cqla")[0]


def test_unconstrained_points_share_one_run(qcla32, routes):
    """Unconstrained points never take a kernel pass: one run() for all
    of them, whatever the point count."""
    supplies = [InfiniteSupply() for _ in range(5)]
    results = _batch(qcla32, supplies, "steady")
    assert routes() == {"levels": [], "run": 1}
    assert len({id(r) for r in results}) == len(results)
    alone = DataflowSimulator(qcla32.circuit, qcla32.tech).run()
    assert results == [alone] * len(results)


def test_trace_reports_serial_points(qrca32):
    """The batch span counts shape-routed points as ``serial``, apart
    from the vectorized ``dedicated`` points."""
    from repro.obs import trace

    vectorized = LEVEL_BOUNDARY["qrca"]
    tracer = trace.enable()
    try:
        _batch(qrca32, _supplies(qrca32, "qla", 2), "qla")
        _batch(qrca32, _supplies(qrca32, "qla", vectorized), "qla")
    finally:
        trace.disable()
    spans = [
        event["args"]
        for event in tracer.events()
        if event["name"] == "batched.simulate_batch"
    ]
    assert [(s["serial"], s["dedicated"]) for s in spans] == [
        (2, 0),
        (0, vectorized),
    ]
