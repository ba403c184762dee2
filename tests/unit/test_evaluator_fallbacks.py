"""Evaluator batching/fallback paths: CQLA grouping and alias rejection.

The batched sweep suite exercises the happy point-batched path (and
hypothesis drives it over random rate vectors); these tests pin the
batching topology of :mod:`repro.explore.evaluator`:

* CQLA points batch with their configuration group (the lockstep cache
  kernel) — nothing about cache mode forces a per-point walk anymore;
* a lowered point whose supply overrides ``acquire`` (or any other
  spec-coupled method without re-declaring ``ready_spec``) routes
  through the per-point serial engine transparently, with identical
  results;
* singleton batches never touch the batched engine at all;
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


class TestCustomSupplyFallback:
    def test_overridden_acquire_routes_per_point(self, qrca8, monkeypatch):
        """A lowering that yields a custom supply still evaluates right."""

        class EagerPool(PooledSupply):
            """Subclass overriding acquire: disqualified from batching."""

            def acquire(self, kind, qubit, count, earliest):
                return PooledSupply.acquire(self, kind, qubit, count, earliest)

        import repro.explore.evaluator as evaluator_module

        real_lower = evaluator_module._lower_point

        def lowering(summary, point):
            lowered = real_lower(summary, point)
            if point.get("arch") == "multiplexed":
                rates = {
                    ZERO: (lowered.supply.rate_per_us(ZERO) or 0.0) * 1000.0,
                    PI8: (lowered.supply.rate_per_us(PI8) or 0.0) * 1000.0,
                }
                return evaluator_module._LoweredPoint(
                    supply=EagerPool(rates),
                    move_1q=lowered.move_1q,
                    move_2q=lowered.move_2q,
                    cqla=lowered.cqla,
                    factory_area=lowered.factory_area,
                )
            return lowered

        summary = KernelSummary.from_analysis(qrca8)
        points = [
            {"arch": "multiplexed", "factory_area": 500.0, "region_span": 8},
            {"arch": "multiplexed", "factory_area": 900.0, "region_span": 8},
        ]
        monkeypatch.setattr(evaluator_module, "_lower_point", lowering)
        custom = evaluate_design_points(summary, [dict(p) for p in points], None)
        monkeypatch.setattr(evaluator_module, "_lower_point", real_lower)
        plain = evaluate_design_points(summary, [dict(p) for p in points], None)
        # The subclass changes dispatch (per-point fallback inside
        # simulate_batch), not arithmetic: results are identical.
        assert [e.result for e in custom] == [e.result for e in plain]

    def test_single_point_short_circuits_batching(self, qrca8, monkeypatch):
        def boom(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("singleton batches take the serial path")

        monkeypatch.setattr(batched_module, "simulate_batch", boom)
        summary = KernelSummary.from_analysis(qrca8)
        result = evaluate_design_points(summary, [dict(POINTS[0])], None)
        assert len(result) == 1


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
