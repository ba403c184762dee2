"""Tests for repro.obs: span tracer, metrics registry, phase reporting.

Covers the observability acceptance surface: the disabled tracer is a
near-free no-op, spans nest and are thread-safe, histogram bucket edges
follow Prometheus ``le`` semantics exactly, the Chrome export is valid
trace-event JSON, and — the load-bearing property — tracing changes no
simulation result bit.
"""

import json
import math
import threading
import time

import pytest

from repro import obs
from repro.obs import metrics as obs_metrics
from repro.obs.report import format_phase_table, phase_breakdown
from repro.obs.trace import _NULL_SPAN


@pytest.fixture(autouse=True)
def _clean_obs():
    """Every test starts and ends with tracing off and a fresh registry."""
    obs.disable()
    obs_metrics.REGISTRY.reset()
    yield
    obs.disable()
    obs_metrics.REGISTRY.reset()


# ----------------------------------------------------------------------
# Tracer: disabled fast path


class TestDisabledTracer:
    def test_disabled_span_is_shared_null_singleton(self):
        assert not obs.enabled()
        assert obs.span("anything") is _NULL_SPAN
        assert obs.span("other", gates=7) is _NULL_SPAN

    def test_null_span_contextmanager_and_set_are_noops(self):
        with obs.span("x") as sp:
            sp.set(points=3)  # must not raise or allocate state

    def test_disabled_overhead_bound(self):
        """100k disabled spans in well under a second: the off path is a
        global read + truthiness check, nothing that could show up in a
        per-phase hot loop."""
        t0 = time.perf_counter()
        for _ in range(100_000):
            with obs.span("hot"):
                pass
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"disabled span overhead too high: {elapsed:.3f}s"

    def test_disabled_records_no_metrics(self):
        with obs.span("quiet"):
            pass
        assert obs_metrics.snapshot() == {}


# ----------------------------------------------------------------------
# Tracer: enabled


class TestEnabledTracer:
    def test_enable_disable_roundtrip(self):
        tracer = obs.enable()
        assert obs.enabled() and obs.tracer() is tracer
        obs.disable()
        assert not obs.enabled() and obs.tracer() is None

    def test_span_records_complete_event(self):
        obs.enable()
        with obs.span("phase.one", gates=42) as sp:
            sp.set(levels=3)
        (event,) = obs.tracer().events()
        assert event["name"] == "phase.one"
        assert event["ph"] == "X"
        assert event["dur"] >= 0
        assert event["args"] == {"gates": 42, "levels": 3}
        assert event["tid"] == threading.get_ident()

    def test_nested_spans_close_inner_first(self):
        obs.enable()
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        names = [e["name"] for e in obs.tracer().events()]
        assert names == ["inner", "outer"]
        inner, outer = obs.tracer().events()
        assert inner["dur"] <= outer["dur"]

    def test_span_close_feeds_phase_histogram(self):
        obs.enable()
        with obs.span("fed.phase"):
            pass
        hist = obs_metrics.histogram(obs_metrics.PHASE_SECONDS, phase="fed.phase")
        assert hist.count == 1

    def test_thread_safety(self):
        obs.enable()
        n_threads, per_thread = 8, 200

        def work(i):
            for k in range(per_thread):
                with obs.span(f"thread.{i}", k=k):
                    pass

        threads = [
            threading.Thread(target=work, args=(i,)) for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        events = obs.tracer().events()
        assert len(events) == n_threads * per_thread
        # Every thread's spans all arrived (tids recycle, names don't).
        for i in range(n_threads):
            assert sum(e["name"] == f"thread.{i}" for e in events) == per_thread


# ----------------------------------------------------------------------
# Chrome export


class TestChromeExport:
    def test_schema(self, tmp_path):
        obs.enable()
        with obs.span("a", gates=1):
            with obs.span("b"):
                pass
        out = tmp_path / "trace.json"
        obs.tracer().export_chrome(out)
        doc = json.loads(out.read_text())
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert len(spans) == 2
        for event in spans:
            assert {"name", "ph", "ts", "dur", "pid", "tid"} <= set(event)
            assert event["ts"] >= 0  # rebased to the earliest event
        assert [m["name"] for m in meta] == ["process_name"]
        assert meta[0]["args"]["name"] == "repro"

    def test_jsonl_export(self, tmp_path):
        obs.enable()
        with obs.span("x"):
            pass
        out = obs.tracer().export_jsonl(tmp_path / "events.jsonl")
        lines = out.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["name"] == "x"


# ----------------------------------------------------------------------
# Metrics registry


class TestCounterGauge:
    def test_counter_increments(self):
        c = obs_metrics.counter("test_total")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError, match="only go up"):
            obs_metrics.counter("test_total").inc(-1)

    def test_same_name_same_labels_is_same_object(self):
        a = obs_metrics.counter("dup_total", k="v")
        b = obs_metrics.counter("dup_total", k="v")
        assert a is b

    def test_labels_distinguish(self):
        a = obs_metrics.counter("lab_total", outcome="hit")
        b = obs_metrics.counter("lab_total", outcome="miss")
        assert a is not b

    def test_type_conflict_raises(self):
        obs_metrics.counter("conflict")
        with pytest.raises(ValueError, match="already registered"):
            obs_metrics.gauge("conflict")

    def test_gauge_set_and_inc(self):
        g = obs_metrics.gauge("test_gauge")
        g.set(10)
        g.inc(-3)
        assert g.value == 7


class TestHistogramEdges:
    def test_value_on_edge_lands_in_its_bucket(self):
        """Prometheus ``le`` is an inclusive upper bound: v == edge
        counts toward that edge's bucket, not the next one."""
        h = obs_metrics.histogram("edge_seconds", edges=(1.0, 2.0, 4.0))
        h.observe(1.0)  # exactly on the first edge
        h.observe(2.0)  # exactly on the second
        h.observe(1.5)
        assert h.bucket_counts() == [1, 2, 0, 0]

    def test_overflow_goes_to_implicit_inf(self):
        h = obs_metrics.histogram("inf_seconds", edges=(1.0,))
        h.observe(100.0)
        assert h.bucket_counts() == [0, 1]
        assert h.cumulative() == [(1.0, 0), (math.inf, 1)]

    def test_cumulative_monotone_and_totals(self):
        h = obs_metrics.histogram("cum_seconds", edges=(1.0, 2.0))
        for v in (0.5, 0.5, 1.5, 9.0):
            h.observe(v)
        assert h.cumulative() == [(1.0, 2), (2.0, 3), (math.inf, 4)]
        assert h.count == 4
        assert h.sum == pytest.approx(11.5)

    def test_edges_must_be_strictly_ascending(self):
        from repro.obs.metrics import Histogram

        with pytest.raises(ValueError, match="strictly ascending"):
            Histogram((1.0, 1.0))
        with pytest.raises(ValueError, match="strictly ascending"):
            Histogram((2.0, 1.0))

    def test_edges_must_be_finite_and_nonempty(self):
        from repro.obs.metrics import Histogram

        with pytest.raises(ValueError, match="at least one"):
            Histogram(())
        with pytest.raises(ValueError, match="finite"):
            Histogram((1.0, math.inf))


class TestExport:
    def _populate(self):
        obs_metrics.counter("a_total", help="things done", k="v").inc(3)
        h = obs_metrics.histogram("h_seconds", edges=(0.1, 1.0))
        h.observe(0.05)
        h.observe(5.0)

    def test_prometheus_text(self):
        self._populate()
        text = obs_metrics.prometheus()
        assert "# HELP a_total things done" in text
        assert "# TYPE a_total counter" in text
        assert 'a_total{k="v"} 3' in text
        assert "# TYPE h_seconds histogram" in text
        assert 'h_seconds_bucket{le="0.1"} 1' in text
        assert 'h_seconds_bucket{le="1"} 1' in text
        assert 'h_seconds_bucket{le="+Inf"} 2' in text
        assert "h_seconds_count 2" in text

    def test_prometheus_deterministic(self):
        self._populate()
        assert obs_metrics.prometheus() == obs_metrics.prometheus()

    def test_snapshot_shape(self):
        self._populate()
        snap = obs_metrics.snapshot()
        assert snap["a_total"]["type"] == "counter"
        assert snap["a_total"]["samples"] == [
            {"labels": {"k": "v"}, "value": 3.0}
        ]
        (sample,) = snap["h_seconds"]["samples"]
        assert sample["count"] == 2
        assert sample["buckets"][-1] == ["+Inf", 1]
        json.dumps(snap)  # JSON-able end to end

    def test_reset_empties(self):
        self._populate()
        obs_metrics.REGISTRY.reset()
        assert obs_metrics.snapshot() == {}
        assert obs_metrics.prometheus() == ""


# ----------------------------------------------------------------------
# Phase report


class TestPhaseReport:
    def test_breakdown_aggregates_and_sorts(self):
        events = [
            {"name": "fast", "dur": 1000.0},
            {"name": "slow", "dur": 9000.0},
            {"name": "fast", "dur": 3000.0},
        ]
        stats = phase_breakdown(events)
        assert [s.name for s in stats] == ["slow", "fast"]
        fast = stats[1]
        assert fast.count == 2
        assert fast.total_s == pytest.approx(0.004)
        assert fast.mean_s == pytest.approx(0.002)
        assert fast.max_s == pytest.approx(0.003)

    def test_format_table_renders(self):
        events = [{"name": "phase.x", "dur": 2000.0}]
        table = format_phase_table(events, title="t", wall_s=0.01)
        assert "phase.x" in table
        assert "calls" in table

    def test_format_table_empty(self):
        assert "no spans" in format_phase_table([])


# ----------------------------------------------------------------------
# Bit identity: tracing must never change a simulation result


class TestBitIdentity:
    def test_traced_run_is_bit_identical(self):
        from repro.arch.simulator import DataflowSimulator
        from repro.arch.supply import PI8, ZERO, SteadyRateSupply
        from repro.kernels import analyze_kernel

        analysis = analyze_kernel("qrca", 8)

        def run_once():
            supply = SteadyRateSupply(
                {
                    ZERO: analysis.zero_bandwidth_per_ms / 2.0,
                    PI8: analysis.pi8_bandwidth_per_ms / 2.0,
                }
            )
            return DataflowSimulator(
                analysis.circuit, analysis.tech, supply=supply
            ).run()

        baseline = run_once()
        obs.enable()
        traced = run_once()
        obs.disable()
        untraced_again = run_once()
        assert traced == baseline  # exact equality, every field
        assert untraced_again == baseline

    def test_scalar_monte_carlo_emits_one_estimate_span(self):
        from repro.ancilla.evaluation import PrepStrategy, evaluate_strategy

        obs.enable()
        report = evaluate_strategy(PrepStrategy.BASIC, trials=50, seed=0)
        spans = [e for e in obs.tracer().events() if e["name"] == "mc.estimate"]
        assert len(spans) == 1
        args = spans[0]["args"]
        assert set(args) == {"trials", "replayed"}
        assert args["trials"] == 50
        assert 0 <= args["replayed"] <= args["trials"]
        assert report.result.trials == 50

    def test_estimate_span_counts_the_trials_walked(self):
        from repro.ancilla.evaluation import _TRIALS, PrepStrategy
        from repro.error.montecarlo import MonteCarloSimulator
        from repro.tech import ErrorRates

        rates = ErrorRates(gate=1e-3, movement=1e-5, measurement=1e-3)
        sim = MonteCarloSimulator(rates, seed=0)
        walked = []

        def trial(s):
            walked.append(s is sim)
            return _TRIALS[PrepStrategy.BASIC](s)

        obs.enable()
        sim.estimate(trial, 500)
        (span,) = [e for e in obs.tracer().events() if e["name"] == "mc.estimate"]
        assert span["args"]["replayed"] == sum(walked) > 0
        assert walked.count(False) == 1  # the fault-free probe

    def test_traced_monte_carlo_is_bit_identical(self):
        from repro.ancilla import evaluate_pi8_ancilla_batched

        baseline = evaluate_pi8_ancilla_batched(trials=4000, seed=3)
        obs.enable()
        traced = evaluate_pi8_ancilla_batched(trials=4000, seed=3)
        obs.disable()
        assert traced.trials == baseline.trials
        assert traced.good == baseline.good
        assert traced.bad == baseline.bad
