"""Exploration engine and evaluator tests, including the PR's acceptance
criteria:

* a grid exploration of the Figure 15/16 space reproduces the same
  ADCR-optimal point as the existing sweep path;
* the adaptive strategy matches or beats the grid optimum using at most
  half the grid's evaluation budget;
* re-running an exploration against a warm result store performs zero
  new simulator evaluations.
"""

import math

import pytest

from repro.arch import ArchitectureKind
from repro.arch.provisioning import area_breakdown, factory_area_for_rates
from repro.arch.sweep import area_sweep, throughput_sweep
from repro.explore import (
    AdaptiveStrategy,
    AdcrObjective,
    DesignSpace,
    Continuous,
    Evaluator,
    GridStrategy,
    LatencyObjective,
    RandomStrategy,
    ResultStore,
    architecture_space,
    explore,
    format_exploration,
    get_strategy,
    pareto_front,
    throughput_space,
)
from repro.explore.evaluator import KernelSummary, evaluate_design_points
from repro.explore.store import StoreKey, canonical_json, key_digest
from repro.testing.reference import evaluate_reference


def sweep_adcr_optimum(analysis, curves):
    """The ADCR-optimal (kind, point) of an area_sweep, computed the
    pedestrian way — the reference the exploration engine must match."""
    data_area = area_breakdown(analysis).data_area
    best_kind, best_point, best_adcr = None, None, math.inf
    for kind, points in curves.items():
        for point in points:
            adcr = (point.x + data_area) * (point.makespan_us / 1000.0)
            if adcr < best_adcr:
                best_kind, best_point, best_adcr = kind, point, adcr
    return best_kind, best_point, best_adcr


class TestGridReproducesSweep:
    def test_grid_explore_matches_fig15_sweep_optimum_qcla32(self, qcla32):
        """Acceptance: `explore qcla-32 --objective adcr --strategy grid`
        lands on the same optimum as the Figure 15/16 sweep path."""
        best_kind, best_point, best_adcr = sweep_adcr_optimum(
            qcla32, area_sweep(qcla32)
        )
        space = architecture_space(qcla32)
        result = explore(
            space,
            AdcrObjective(),
            GridStrategy(space),
            evaluator=Evaluator(analysis=qcla32),
            budget=space.grid_size(),
        )
        assert result.evaluated == space.grid_size()
        picked = result.best.point_dict
        assert picked["arch"] == best_kind.value
        assert picked["factory_area"] == best_point.x
        assert result.best_score == pytest.approx(best_adcr)

    def test_grid_explore_matches_sweep_optimum_qrca8(self, qrca8):
        best_kind, best_point, best_adcr = sweep_adcr_optimum(
            qrca8, area_sweep(qrca8)
        )
        space = architecture_space(qrca8)
        result = explore(
            space,
            AdcrObjective(),
            GridStrategy(space),
            evaluator=Evaluator(analysis=qrca8),
            budget=space.grid_size(),
        )
        assert result.best.point_dict["arch"] == best_kind.value
        assert result.best.point_dict["factory_area"] == best_point.x
        assert result.best_score == pytest.approx(best_adcr)


class TestAdaptiveStrategy:
    def test_adaptive_beats_grid_at_half_budget(self, qrca8):
        """Acceptance: adaptive finds ADCR <= the grid optimum with <=
        half the grid's evaluation budget."""
        space = architecture_space(qrca8)
        grid = explore(
            space,
            AdcrObjective(),
            GridStrategy(space),
            evaluator=Evaluator(analysis=qrca8),
            budget=space.grid_size(),
        )
        half = space.grid_size() // 2
        adaptive = explore(
            space,
            AdcrObjective(),
            AdaptiveStrategy(space, seed=0),
            evaluator=Evaluator(analysis=qrca8),
            budget=half,
        )
        assert adaptive.evaluated <= half
        assert adaptive.best_score <= grid.best_score

    def test_adaptive_budget_respected(self, qrca8):
        space = architecture_space(qrca8)
        result = explore(
            space,
            LatencyObjective(),
            AdaptiveStrategy(space, seed=1),
            evaluator=Evaluator(analysis=qrca8),
            budget=7,
        )
        assert result.evaluated <= 7


class TestResultStoreIntegration:
    def test_warm_store_runs_zero_simulations(self, tmp_path):
        """Acceptance: a warm re-run is answered entirely from disk."""
        store = ResultStore(tmp_path)
        space_analysis = None

        def run():
            evaluator = Evaluator(kernel="qrca", width=8, store=store)
            from repro.kernels import analyze_kernel

            space = architecture_space(analyze_kernel("qrca", 8))
            result = explore(
                space,
                AdcrObjective(),
                GridStrategy(space),
                evaluator=evaluator,
                budget=18,
            )
            return result

        cold = run()
        assert cold.simulations_run == 18
        assert cold.cache_hits == 0
        warm = run()
        assert warm.simulations_run == 0
        assert warm.cache_hits == 18
        assert warm.best_score == cold.best_score
        assert warm.best.point_dict == cold.best.point_dict

    def test_warm_explore_canonicalizes_each_proposed_point_once(
        self, tmp_path, qrca8, canonicalize_counter
    ):
        """``explore()`` canonicalizes a proposed point once and hands the
        evaluator that canonical point, which it does not re-encode."""
        space = architecture_space(qrca8)

        def run():
            return explore(
                space, AdcrObjective(),
                canonicalize_counter.watch(AdaptiveStrategy(space, seed=1)),
                evaluator=Evaluator(kernel="qrca", width=8,
                                    store=ResultStore(tmp_path)),
                budget=24,
            )

        cold = run()
        canonicalize_counter.calls = canonicalize_counter.proposed = 0
        warm = run()
        assert warm.simulations_run == 0
        assert warm.evaluations == cold.evaluations
        assert canonicalize_counter.proposed > warm.evaluated  # re-proposals
        assert canonicalize_counter.calls == canonicalize_counter.proposed

    def test_store_key_digest_pinned(self):
        """The store key keeps its ``"engine": "compiled"`` field, so the
        digest of a fixed point is unchanged and existing stores and
        journals stay warm."""
        evaluator = Evaluator(kernel="qrca", width=8)
        key = evaluator._store_key(
            evaluator.canonicalize({"arch": "cqla", "factory_area": 400.0})
        )
        assert key["engine"] == "compiled"
        assert key_digest(key) == (
            "e48fcbd81909220b53513d5a37e75245d865440d262d3a42620c66d492169aa4"
        )
        cpoint = evaluator.canonicalize({"arch": "cqla", "factory_area": 400.0})
        assert cpoint.key == canonical_json(cpoint)
        assert evaluator._keyed(cpoint).digest == key_digest(key)

    @pytest.mark.parametrize(
        "mode, point",
        [
            (mode, point)
            for mode in ("spec", "analysis")
            for point in (
                {"arch": "qla", "factory_area": 40.0},
                {"arch": "cqla", "factory_area": 400.0, "cqla_ports": 4},
                {"arch": "multiplexed", "factory_area": 200.0, "region_span": 3},
                {"zero_rate": 2.5, "pi8_ratio": 0.25},
            )
        ]
        + [
            # Re-characterizing dimensions need a kernel specification.
            ("spec", {"arch": "qla", "factory_area": 80.0, "tech_scale": 2.0}),
            ("spec", {"arch": "multiplexed", "factory_area": 200.0,
                      "code_level": 2}),
            ("spec", {"zero_rate": 1.0, "code_level": 2, "tech_scale": 0.5}),
        ],
    )
    def test_spliced_store_key_matches_full_encoding(self, mode, point, qrca8):
        """The evaluator's store key text is the key base's encoding
        split around the point: it must equal the whole key document's
        canonical JSON, so the digest is the one stores already hold."""
        if mode == "analysis":
            evaluator = Evaluator(qrca8)
        else:
            evaluator = Evaluator(kernel="qrca", width=8)
        cpoint = evaluator.canonicalize(point)
        assert cpoint.key == canonical_json(cpoint)
        document = evaluator._store_key(cpoint)
        spliced = evaluator._keyed(cpoint)
        assert spliced.digest == key_digest(document)
        assert spliced == StoreKey.of(document)

    def test_refinement_is_incremental(self, tmp_path, qrca8):
        """A refined search only simulates points it has never seen."""
        store = ResultStore(tmp_path)
        space = architecture_space(qrca8)
        grid = explore(
            space,
            AdcrObjective(),
            GridStrategy(space),
            evaluator=Evaluator(kernel="qrca", width=8, store=store),
            budget=space.grid_size(),
        )
        adaptive = explore(
            space,
            AdcrObjective(),
            AdaptiveStrategy(space, seed=0),
            evaluator=Evaluator(kernel="qrca", width=8, store=store),
            budget=space.grid_size() // 2,
        )
        # The coarse pass subsamples the already-evaluated grid: free.
        assert adaptive.cache_hits >= 9
        assert adaptive.simulations_run < adaptive.evaluated

    def test_different_tech_misses_cache(self, tmp_path):
        from repro.tech import ION_TRAP

        store = ResultStore(tmp_path)
        point = {"arch": "qla", "factory_area": 100.0}
        e1 = Evaluator(kernel="qrca", width=8, store=store)
        e1.evaluate([point])
        e2 = Evaluator(
            kernel="qrca", width=8, tech=ION_TRAP.scaled(0.5), store=store
        )
        e2.evaluate([point])
        assert e2.cache_hits == 0 and e2.simulations_run == 1

    @pytest.mark.parametrize(
        "zero, negative",
        [
            ({"zero_rate": 0.0, "pi8_ratio": 0.0},
             {"zero_rate": -0.0, "pi8_ratio": -0.0}),
            ({"arch": "qla", "factory_area": 0.0},
             {"arch": "qla", "factory_area": -0.0}),
        ],
        ids=["steady", "arch"],
    )
    def test_negative_zero_shares_the_zero_key(self, tmp_path, zero, negative):
        """``-0.0`` canonicalizes to ``0.0``'s key, so a store holding the
        one serves the other as a hit."""
        store = ResultStore(tmp_path)
        first = Evaluator(kernel="qrca", width=8, store=store)
        assert first.canonicalize(negative).key == first.canonicalize(zero).key
        first.evaluate([zero])
        second = Evaluator(kernel="qrca", width=8, store=store)
        second.evaluate([negative])
        assert second.cache_hits == 1 and second.simulations_run == 0


class TestEvaluator:
    def test_matches_area_sweep_bit_for_bit(self, qrca8):
        curves = area_sweep(qrca8, areas=(100.0, 1000.0))
        evaluator = Evaluator(analysis=qrca8)
        for kind, points in curves.items():
            for point in points:
                (evaluation,) = evaluator.evaluate(
                    [{"arch": kind.value, "factory_area": point.x}]
                )
                assert evaluation.result == point.result

    def test_matches_throughput_sweep_bit_for_bit(self, qrca8):
        rates = (5.0, 500.0)
        ratio = qrca8.pi8_bandwidth_per_ms / qrca8.zero_bandwidth_per_ms
        points = throughput_sweep(qrca8, rates)
        evaluator = Evaluator(analysis=qrca8)
        evaluations = evaluator.evaluate(
            [{"zero_rate": r, "pi8_ratio": ratio} for r in rates]
        )
        for point, evaluation in zip(points, evaluations):
            assert evaluation.result == point.result

    def test_steady_point_prices_factory_area(self, qrca8):
        evaluator = Evaluator(analysis=qrca8)
        (evaluation,) = evaluator.evaluate(
            [{"zero_rate": 100.0, "pi8_ratio": 0.5}]
        )
        expected = factory_area_for_rates(100.0, 50.0, qrca8.tech)
        assert evaluation.factory_area == pytest.approx(expected)

    def test_batch_dedupe(self, qrca8):
        evaluator = Evaluator(analysis=qrca8)
        point = {"arch": "qla", "factory_area": 100.0}
        evaluations = evaluator.evaluate([point, dict(point), dict(point)])
        assert evaluator.simulations_run == 1
        assert evaluator.dedup_hits == 2
        assert evaluations[0] == evaluations[1] == evaluations[2]

    def test_irrelevant_dims_collapse(self, qrca8):
        """CQLA knobs on a QLA point do not fragment the cache."""
        evaluator = Evaluator(analysis=qrca8)
        a = {"arch": "qla", "factory_area": 100.0, "cqla_ports": 4}
        b = {"arch": "qla", "factory_area": 100.0}
        evaluator.evaluate([a, b])
        assert evaluator.simulations_run == 1

    def test_cqla_defaults_resolved(self, qrca8):
        evaluator = Evaluator(analysis=qrca8)
        canonical = evaluator.canonicalize(
            {"arch": "cqla", "factory_area": 50.0}
        )
        assert canonical["cqla_cache_fraction"] == 0.125
        assert canonical["cqla_ports"] == 2

    def test_legacy_engine_identical(self, qrca8):
        """The evaluator matches the reference loop, areas included."""
        point = {"arch": "multiplexed", "factory_area": 300.0}
        compiled = Evaluator(analysis=qrca8).evaluate([point])
        assert compiled == evaluate_reference(qrca8, [point])

    def test_tech_scale_requires_spec_mode(self, qrca8):
        evaluator = Evaluator(analysis=qrca8)
        with pytest.raises(ValueError, match="tech_scale"):
            evaluator.evaluate(
                [{"arch": "qla", "factory_area": 10.0, "tech_scale": 0.5}]
            )

    def test_tech_scale_changes_result(self):
        base = Evaluator(kernel="qrca", width=8)
        point = {"arch": "multiplexed", "factory_area": 300.0}
        (slow,) = base.evaluate([point])
        (fast,) = base.evaluate([{**point, "tech_scale": 0.5}])
        assert fast.result.makespan_us < slow.result.makespan_us

    def test_unknown_dimension_rejected(self, qrca8):
        with pytest.raises(ValueError, match="unknown dimensions"):
            Evaluator(analysis=qrca8).evaluate([{"frobnicate": 1.0}])

    def test_mixed_steady_and_arch_rejected(self, qrca8):
        with pytest.raises(ValueError, match="either"):
            Evaluator(analysis=qrca8).evaluate(
                [{"zero_rate": 1.0, "arch": "qla", "factory_area": 1.0}]
            )

    def test_out_of_range_values_refused_before_the_store(
        self, out_of_range_point, tmp_path, monkeypatch
    ):
        """Refused at canonicalization: no store read, lease or write, no
        retry and no quarantine."""
        store = ResultStore(tmp_path)
        touched = []
        for name in ("get", "claim", "put", "release"):
            monkeypatch.setattr(
                store, name, lambda *args, name=name: touched.append(name)
            )
        evaluator = Evaluator(kernel="qrca", width=8, store=store)
        with pytest.raises(ValueError, match="must be"):
            evaluator.evaluate([out_of_range_point])
        assert touched == []
        assert evaluator.stats() == dict.fromkeys(evaluator.stats(), 0)

    def test_in_range_points_canonicalize_as_before(self):
        """Validation adds no field and converts nothing: store digests of
        valid points stay the ones stores already hold."""
        evaluator = Evaluator(kernel="qrca", width=8)
        for point, expected in (
            ({"arch": "cqla", "factory_area": 0, "cqla_ports": 1,
              "cqla_cache_fraction": 1},
             '{"arch":"cqla","cqla_cache_fraction":1.0,"cqla_ports":1,'
             '"factory_area":0.0}'),
            ({"arch": "multiplexed", "factory_area": 5, "region_span": 1.0},
             '{"arch":"multiplexed","factory_area":5.0,"region_span":1}'),
            ({"zero_rate": 0, "tech_scale": 2},
             '{"pi8_ratio":0.0,"tech_scale":2.0,"zero_rate":0.0}'),
        ):
            assert evaluator.canonicalize(point).key == expected

    def test_four_argument_call_takes_only_the_memoized_compile(self, qrca8):
        """``evaluate_design_points`` keeps its ``compiled`` slot for
        existing callers: ``None`` or the circuit's memoized compile give
        one answer, and any other compiled form is refused."""
        from repro.circuits.compiled import compile_circuit

        summary = KernelSummary.from_analysis(qrca8)
        points = [{"arch": "qla", "factory_area": a} for a in (100.0, 400.0)]
        assert evaluate_design_points(
            summary, points, qrca8.compiled_circuit(), "compiled"
        ) == evaluate_design_points(summary, points, None)
        other = compile_circuit(qrca8.circuit.copy(), qrca8.tech)
        with pytest.raises(ValueError, match="compil"):
            evaluate_design_points(summary, points, other, "compiled")

    def test_bad_engine_rejected(self, qrca8):
        """The four-argument ``evaluate_design_points`` call keeps working
        with ``"compiled"``; any other engine name is refused."""
        summary = KernelSummary.from_analysis(qrca8)
        points = [{"arch": "qla", "factory_area": a} for a in (100.0, 400.0)]
        assert evaluate_design_points(summary, points, None, "compiled") == (
            evaluate_design_points(summary, points, None)
        )
        with pytest.raises(ValueError, match="engine"):
            evaluate_design_points(summary, points, None, "legacy")
        with pytest.raises(TypeError, match="engine"):
            Evaluator(analysis=qrca8, engine="legacy")

    def test_needs_exactly_one_mode(self, qrca8):
        with pytest.raises(ValueError):
            Evaluator()
        with pytest.raises(ValueError):
            Evaluator(analysis=qrca8, kernel="qrca", width=8)


class TestEngine:
    def test_random_strategy_respects_budget(self, qrca8):
        space = architecture_space(qrca8)
        result = explore(
            space,
            AdcrObjective(),
            RandomStrategy(space, seed=3),
            evaluator=Evaluator(analysis=qrca8),
            budget=5,
        )
        assert result.evaluated <= 5
        assert result.best_score < math.inf

    def test_engine_dedupes_across_batches(self, qrca8):
        """A strategy re-proposing seen points stalls out, not loops."""

        class Stubborn:
            def __init__(self):
                self.point = {"arch": "qla", "factory_area": 100.0}

            def ask(self, remaining):
                return [dict(self.point)]

            def tell(self, scored):
                pass

        evaluator = Evaluator(analysis=qrca8)
        result = explore(
            DesignSpace((Continuous("factory_area", lo=1.0, hi=2.0),)),
            AdcrObjective(),
            Stubborn(),
            evaluator=evaluator,
            budget=10,
        )
        assert result.evaluated == 1
        assert evaluator.simulations_run == 1

    def test_best_per_architecture(self, qrca8):
        space = architecture_space(qrca8, areas=(100.0, 1000.0))
        result = explore(
            space,
            AdcrObjective(),
            GridStrategy(space),
            evaluator=Evaluator(analysis=qrca8),
            budget=space.grid_size(),
        )
        winners = result.best_per("arch")
        assert set(winners) == {k.value for k in ArchitectureKind}

    def test_pareto_front_is_nondominated(self, qrca8):
        space = architecture_space(qrca8)
        result = explore(
            space,
            AdcrObjective(),
            GridStrategy(space),
            evaluator=Evaluator(analysis=qrca8),
            budget=space.grid_size(),
        )
        front = result.pareto_front()
        assert front
        for i, a in enumerate(front):
            for b in front[i + 1 :]:
                assert b.total_area > a.total_area
                assert b.result.makespan_us < a.result.makespan_us

    def test_format_exploration_mentions_counters(self, qrca8):
        space = architecture_space(qrca8, areas=(100.0,))
        result = explore(
            space,
            AdcrObjective(),
            GridStrategy(space),
            evaluator=Evaluator(analysis=qrca8),
            budget=3,
        )
        text = format_exploration(result)
        assert "3 new simulations" in text
        assert "best:" in text
        assert "Pareto front" in text

    def test_get_strategy_names(self, qrca8):
        space = architecture_space(qrca8)
        assert isinstance(get_strategy("grid", space), GridStrategy)
        assert isinstance(get_strategy("random", space, seed=1), RandomStrategy)
        assert isinstance(get_strategy("adaptive", space), AdaptiveStrategy)
        with pytest.raises(ValueError, match="unknown strategy"):
            get_strategy("bayesian", space)

    def test_budget_validation(self, qrca8):
        space = architecture_space(qrca8)
        with pytest.raises(ValueError, match="budget"):
            explore(
                space,
                AdcrObjective(),
                GridStrategy(space),
                evaluator=Evaluator(analysis=qrca8),
                budget=0,
            )

    def test_empty_pareto(self):
        assert pareto_front([]) == []
