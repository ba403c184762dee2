"""CLI tests for the observability surface: --trace/--metrics, profile,
and evaluator stats surviving the failure path."""

import json

import pytest

from repro import obs
from repro.__main__ import main
from repro.obs import metrics as obs_metrics


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    obs_metrics.REGISTRY.reset()
    yield
    obs.disable()
    obs_metrics.REGISTRY.reset()


class TestExploreTraceMetrics:
    def _explore(self, tmp_path, *extra):
        return main(
            [
                "explore", "qrca-8",
                "--strategy", "grid",
                "--budget", "3",
                "--cache-dir", str(tmp_path / "cache"),
                *extra,
            ]
        )

    def test_trace_written_and_parses(self, tmp_path, capsys):
        trace = tmp_path / "out.json"
        assert self._explore(tmp_path, "--trace", str(trace)) == 0
        assert f"trace: {trace}" in capsys.readouterr().out
        doc = json.loads(trace.read_text())
        spans = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        names = {e["name"] for e in spans}
        assert "explore.round" in names
        assert "evaluate.batch" in names
        # Engine spans always fire on a cold store; compile.* spans may
        # be absent when another test already warmed the analysis LRU.
        assert any(n.startswith("batched.") or n.startswith("simulate.")
                   for n in names)

    def test_metrics_prometheus_written(self, tmp_path, capsys):
        prom = tmp_path / "out.prom"
        assert self._explore(tmp_path, "--metrics", str(prom)) == 0
        assert f"metrics: {prom}" in capsys.readouterr().out
        text = prom.read_text()
        assert "repro_simulations_run_total 3" in text
        assert "repro_cache_hits_total 0" in text
        assert "repro_phase_seconds_bucket" in text
        assert 'repro_store_get_total{outcome="miss"} 3' in text
        assert 'repro_store_put_total{outcome="ok"} 3' in text
        assert "repro_store_op_seconds_bucket" in text

    def test_metrics_json_snapshot(self, tmp_path):
        snap_path = tmp_path / "out.json"
        assert self._explore(tmp_path, "--metrics", str(snap_path)) == 0
        snap = json.loads(snap_path.read_text())
        assert snap["repro_simulations_run_total"]["type"] == "counter"
        assert obs_metrics.PHASE_SECONDS in snap

    def test_tracing_torn_down_after_run(self, tmp_path):
        assert self._explore(tmp_path, "--trace", str(tmp_path / "t.json")) == 0
        assert not obs.enabled()

    def test_no_flags_means_no_tracing(self, tmp_path, capsys):
        assert self._explore(tmp_path) == 0
        out = capsys.readouterr().out
        assert "trace:" not in out
        assert "metrics:" not in out

    def test_warm_cache_counts_hits(self, tmp_path, capsys):
        assert self._explore(tmp_path) == 0
        capsys.readouterr()
        prom = tmp_path / "warm.prom"
        assert self._explore(tmp_path, "--metrics", str(prom)) == 0
        text = prom.read_text()
        # Counters are process-global and cumulative: the cold run put 3
        # simulations on the board, the warm run added 3 cache hits.
        assert "repro_cache_hits_total 3" in text
        assert "repro_simulations_run_total 3" in text
        assert 'repro_store_get_total{outcome="hit"} 3' in text


class TestStatsOnFailurePath:
    def test_stats_printed_when_exploration_raises(self, tmp_path, capsys,
                                                   monkeypatch):
        import repro.explore

        def boom(*args, **kwargs):
            raise ValueError("injected mid-exploration failure")

        monkeypatch.setattr(repro.explore, "explore", boom)
        code = main(
            [
                "explore", "qrca-8",
                "--budget", "2",
                "--cache-dir", str(tmp_path),
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "injected mid-exploration failure" in captured.err
        # The whole point: counters still reported on the failure path.
        assert "evaluator:" in captured.out

    def test_trace_still_written_when_exploration_raises(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.explore

        monkeypatch.setattr(
            repro.explore, "explore",
            lambda *a, **k: (_ for _ in ()).throw(ValueError("boom")),
        )
        trace = tmp_path / "fail.json"
        code = main(
            [
                "explore", "qrca-8",
                "--budget", "2",
                "--cache-dir", str(tmp_path / "cache"),
                "--trace", str(trace),
            ]
        )
        assert code == 2
        assert trace.exists()
        json.loads(trace.read_text())  # parseable even from a failed run


class TestProfile:
    # fig15 actually runs the simulation stack, so spans get recorded;
    # static tables like table1 produce an (acceptable) empty breakdown.
    def test_profile_prints_breakdown(self, capsys):
        assert main(["profile", "fig15"]) == 0
        out = capsys.readouterr().out
        assert "per-phase breakdown" in out
        assert "phase" in out and "calls" in out
        # The QLA and multiplexed ladders batch through the level kernel;
        # every CQLA point runs in run(), which walks or replays it.
        assert "batched.level_sweep" in out
        assert "simulate.level_walk" in out
        assert "batched.cqla_lockstep" not in out

    def test_profile_writes_trace(self, tmp_path, capsys):
        trace = tmp_path / "profile.json"
        assert main(["profile", "fig15", "--trace", str(trace)]) == 0
        doc = json.loads(trace.read_text())
        assert any(e.get("ph") == "X" for e in doc["traceEvents"])

    def test_profile_trace_marks_replayed_cqla_points(self, tmp_path, capsys):
        """Figure 15's CQLA ladder replays its supply-free walk from the
        matched area up, and walks below it: both show on the trace."""
        trace = tmp_path / "profile.json"
        assert main(["profile", "fig15", "--trace", str(trace)]) == 0
        walks = [
            e for e in json.loads(trace.read_text())["traceEvents"]
            if e.get("name") == "simulate.level_walk"
        ]
        replayed = [e for e in walks if e["args"].get("replayed") == 1]
        assert replayed and len(replayed) < len(walks)

    def test_profile_show_output(self, capsys):
        assert main(["profile", "fig15", "--show-output"]) == 0
        out = capsys.readouterr().out
        assert "Figure 15" in out  # the experiment's own output
        assert "per-phase breakdown" in out

    def test_profile_spanless_experiment_reports_no_spans(self, capsys):
        assert main(["profile", "table1"]) == 0
        assert "no spans recorded" in capsys.readouterr().out

    def test_profile_unknown_experiment(self, capsys):
        assert main(["profile", "nope"]) == 2
        assert "error" in capsys.readouterr().err

    def test_profile_tears_down_tracing(self, capsys):
        assert main(["profile", "fig15"]) == 0
        assert not obs.enabled()
