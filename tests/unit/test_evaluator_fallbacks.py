"""Evaluator batching paths: CQLA grouping, singletons, alias rejection.

The batched sweep suite exercises the happy point-batched path (and
hypothesis drives it over random rate vectors); these tests pin the
batching topology of :mod:`repro.explore.evaluator`:

* CQLA points batch with their configuration group into one
  ``simulate_batch`` call, which runs each of them through ``run()``
  (the memoized cache-trip schedule);
* singleton batches go through ``simulate_batch`` like any group, whose
  shape rule sends them to ``run()`` rather than a kernel pass;
* the aliased rate-limited supply guard fires if a lowering ever hands
  the same supply object to two points — and the real lowering never
  does, even for duplicate design points.
"""

import pytest

import repro.arch.batched as batched_module
from repro.arch.supply import PI8, ZERO, PooledSupply
from repro.explore.evaluator import (
    Evaluator,
    KernelSummary,
    _lower_point,
    evaluate_design_point,
    evaluate_design_points,
)
from repro.testing.reference import evaluate_reference

POINTS = [
    {"arch": "qla", "factory_area": 400.0},
    {"arch": "qla", "factory_area": 800.0},
    {"arch": "cqla", "factory_area": 400.0, "cqla_cache_fraction": 0.125,
     "cqla_ports": 2},
    {"arch": "cqla", "factory_area": 800.0, "cqla_cache_fraction": 0.125,
     "cqla_ports": 2},
    {"arch": "multiplexed", "factory_area": 400.0, "region_span": 8},
]


@pytest.fixture()
def spy_batch(monkeypatch):
    """Record every simulate_batch call's supply count; keep behavior."""
    calls = []
    real = batched_module.simulate_batch

    def wrapper(circuit, supplies, *args, **kwargs):
        calls.append(list(supplies))
        return real(circuit, supplies, *args, **kwargs)

    monkeypatch.setattr(batched_module, "simulate_batch", wrapper)
    return calls


class TestCqlaBatching:
    def test_every_point_batches_cqla_included(self, qrca8, spy_batch):
        summary = KernelSummary.from_analysis(qrca8)
        canonical = [dict(p) for p in POINTS]
        batch = evaluate_design_points(summary, canonical, None)
        serial = [evaluate_design_point(summary, dict(p), None) for p in POINTS]
        assert [e.result for e in batch] == [e.result for e in serial]
        assert [e.point for e in batch] == [e.point for e in serial]
        # Every point entered the batched engine: the two QLA points
        # together, the two CQLA points together (one configuration
        # group), the multiplexed point alone.
        batched_supplies = sum(len(call) for call in spy_batch)
        assert batched_supplies == len(POINTS)
        assert sorted(len(call) for call in spy_batch) == [1, 2, 2]

    def test_cqla_results_match_legacy_engine(self, qrca8):
        """Batched CQLA points equal the reference loop's results."""
        compiled = Evaluator(analysis=qrca8).evaluate(POINTS[2:4])
        reference = evaluate_reference(qrca8, POINTS[2:4])
        assert [e.result for e in compiled] == [e.result for e in reference]


class TestSingletonBatches:
    def test_single_point_short_circuits_batching(
        self, qrca8, monkeypatch, spy_batch
    ):
        """A single point enters simulate_batch like any group, and its
        shape rule sends it to run(), never to a kernel pass."""

        def boom(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("singleton batches take the serial path")

        monkeypatch.setattr(batched_module, "_run_levels", boom)
        summary = KernelSummary.from_analysis(qrca8)
        for point in POINTS:
            single = evaluate_design_point(summary, dict(point), None)
            assert evaluate_design_points(summary, [dict(point)], None) == [
                single
            ]
        assert [len(call) for call in spy_batch] == [1] * len(POINTS)


class TestAliasedSupplyRejection:
    def test_aliased_lowering_rejected(self, qrca8, monkeypatch):
        """If a lowering aliased one rate-limited supply across points,
        the batched engine's guard fails loud instead of diverging."""
        import repro.explore.evaluator as evaluator_module

        summary = KernelSummary.from_analysis(qrca8)
        shared = _lower_point(
            summary, {"arch": "multiplexed", "factory_area": 500.0,
                      "region_span": 8}
        )
        monkeypatch.setattr(
            evaluator_module, "_lower_point", lambda s, p: shared
        )
        with pytest.raises(ValueError, match="same object"):
            evaluate_design_points(
                summary,
                [
                    {"arch": "multiplexed", "factory_area": 500.0,
                     "region_span": 8},
                    {"arch": "multiplexed", "factory_area": 900.0,
                     "region_span": 8},
                ],
                None,
            )

    def test_real_lowering_never_aliases(self, qrca8):
        """Duplicate design points dedupe to one canonical evaluation
        upstream, and fresh lowerings build fresh supplies — the alias
        guard stays quiet on every legitimate evaluator path."""
        evaluator = Evaluator(analysis=qrca8)
        duplicated = [dict(POINTS[0]), dict(POINTS[0]), dict(POINTS[1])]
        results = evaluator.evaluate(duplicated)
        assert evaluator.dedup_hits == 1
        assert results[0].result == results[1].result

    def test_aliased_supply_rejected_at_engine_level(self, qrca8):
        supply = PooledSupply({ZERO: 10.0, PI8: 1.0})
        with pytest.raises(ValueError, match="same object"):
            batched_module.simulate_batch(
                qrca8.circuit, [supply, supply], qrca8.tech
            )
