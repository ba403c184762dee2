"""Tests for the benchmark perf ratchet (benchmarks/check_ratchet.py)."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))

import check_ratchet  # noqa: E402


def _entry(name, **metrics):
    return {"name": name, "recorded_at": "2026-01-01T00:00:00+00:00",
            "python": "3.11", "metrics": metrics}


def _dataflow(ratio):
    return _entry(
        "dataflow_single_point",
        gates=1000,
        gates_per_second=ratio * 1e5,
        seed_gates_per_second=1e5,
    )


def _one_sample_per_gate():
    """One entry carrying every gate's metric (all ratios 10)."""
    return [
        _entry(
            gate.benchmark,
            gates_per_second=10.0,
            seed_gates_per_second=1.0,
            speedup=10.0,
            speedup_vs_seed=10.0,
            serial_speedup_vs_seed=10.0,
        )
        for gate in check_ratchet.GATES
    ]


class TestCheck:
    def test_regression_beyond_tolerance_fails(self):
        history = [_dataflow(16.0), _dataflow(10.0), _dataflow(10.0),
                   _dataflow(10.0)]
        (result,) = [
            r for r in check_ratchet.check(history)
            if r.benchmark == "dataflow_single_point"
        ]
        assert result.best == pytest.approx(16.0)
        assert result.recent == pytest.approx(10.0)
        assert not result.ok(0.10)

    def test_within_tolerance_passes(self):
        history = [_dataflow(16.0), _dataflow(15.0)]
        (result,) = [
            r for r in check_ratchet.check(history, window=1)
            if r.benchmark == "dataflow_single_point"
        ]
        assert result.drop == pytest.approx(1 / 16)
        assert result.ok(0.10)

    def test_window_best_smooths_one_noisy_session(self):
        """One bad recording inside the window does not fail the gate as
        long as a sibling entry holds the bar."""
        history = [_dataflow(16.0), _dataflow(14.9), _dataflow(8.0),
                   _dataflow(15.5)]
        (result,) = [
            r for r in check_ratchet.check(history, window=3)
            if r.benchmark == "dataflow_single_point"
        ]
        assert result.recent == pytest.approx(15.5)
        assert result.ok(0.10)

    def test_window_slides_past_old_highs(self):
        """Entries older than the window cannot mask a sustained drop."""
        history = [_dataflow(16.0)] + [_dataflow(10.0)] * 3
        (result,) = [
            r for r in check_ratchet.check(history, window=3)
            if r.benchmark == "dataflow_single_point"
        ]
        assert result.recent == pytest.approx(10.0)
        assert not result.ok(0.10)

    def test_no_history_fails(self):
        """A gate with no recorded sample fails: otherwise a re-based
        gate that nobody records would never be checked."""
        results = check_ratchet.check([])
        assert all(r.best is None for r in results)
        assert not any(r.ok(0.10) for r in results)

    def test_gate_without_sample_fails_among_recorded_ones(self):
        history = [_dataflow(16.0)]
        results = {r.benchmark: r for r in check_ratchet.check(history)}
        assert results["dataflow_single_point"].ok(0.10)
        # An entry recorded under the old metric is no sample of the new.
        history.append(_entry("steady_sweep", speedup=15.0))
        (steady,) = [
            r for r in check_ratchet.check(history)
            if r.benchmark == "steady_sweep"
        ]
        assert steady.samples == 0
        assert not steady.ok(0.10)

    def test_malformed_entries_ignored(self):
        history = [
            "not a dict",
            _entry("dataflow_single_point"),  # no metrics of interest
            _entry("dataflow_single_point", gates_per_second="NaN-ish",
                   seed_gates_per_second=0),
            _dataflow(12.0),
        ]
        (result,) = [
            r for r in check_ratchet.check(history)
            if r.benchmark == "dataflow_single_point"
        ]
        assert result.samples == 1
        assert result.best == pytest.approx(12.0)

    def test_per_gate_tolerance_override(self):
        history = [
            _entry("pi8_protocol", speedup=150.0),
            _entry("pi8_protocol", speedup=115.0),  # 23% drop
        ]
        (result,) = [
            r for r in check_ratchet.check(history)
            if r.benchmark == "pi8_protocol"
        ]
        assert not result.ok(0.10) or result.tolerance is not None
        assert result.limit(0.10) == pytest.approx(0.30)
        assert result.ok(0.10)  # the per-gate 30% bound applies


class TestLoadHistory:
    def test_missing_file_is_empty(self, tmp_path):
        assert check_ratchet.load_history(tmp_path / "absent.json") == []

    def test_corrupt_file_is_empty(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ nope")
        assert check_ratchet.load_history(path) == []

    def test_non_list_is_empty(self, tmp_path):
        path = tmp_path / "obj.json"
        path.write_text('{"a": 1}')
        assert check_ratchet.load_history(path) == []

    def test_duplicate_trailing_batch_dropped_on_load(self, tmp_path):
        batch = [_dataflow(12.0), _entry("pi8_protocol", speedup=100.0)]
        path = tmp_path / "hist.json"
        path.write_text(json.dumps([_dataflow(16.0)] + batch + batch))
        assert check_ratchet.load_history(path) == [_dataflow(16.0)] + batch


class TestDedupeTrailingBatches:
    def test_identical_trailing_batch_collapsed(self):
        batch = [_dataflow(12.0), _entry("pi8_protocol", speedup=100.0)]
        history = [_dataflow(16.0)] + batch + batch
        assert check_ratchet.dedupe_trailing_batches(history) == (
            [_dataflow(16.0)] + batch
        )

    def test_triple_flush_collapses_to_one(self):
        batch = [_dataflow(12.0)]
        assert check_ratchet.dedupe_trailing_batches(batch * 3) == batch

    def test_timestamps_ignored_in_identity(self):
        first = _dataflow(12.0)
        second = dict(_dataflow(12.0), recorded_at="2026-02-02T00:00:00+00:00")
        assert check_ratchet.dedupe_trailing_batches([first, second]) == [first]

    def test_fresh_measurements_kept(self):
        """Re-recorded sessions differ in their timings: no dedupe."""
        history = [_dataflow(12.0), _dataflow(12.000001)]
        assert check_ratchet.dedupe_trailing_batches(history) == history

    def test_interleaved_duplicates_kept(self):
        """Only *trailing* repeats collapse; history-internal repeats are
        legitimate trajectory (the same value measured twice, apart)."""
        history = [_dataflow(12.0), _dataflow(14.0), _dataflow(12.0)]
        assert check_ratchet.dedupe_trailing_batches(history) == history

    def test_empty_and_single(self):
        assert check_ratchet.dedupe_trailing_batches([]) == []
        assert check_ratchet.dedupe_trailing_batches([_dataflow(1.0)]) == [
            _dataflow(1.0)
        ]


class TestMain:
    def _write(self, tmp_path, entries):
        path = tmp_path / "hist.json"
        path.write_text(json.dumps(entries))
        return path

    def test_passing_history_exits_zero(self, tmp_path, capsys):
        path = self._write(
            tmp_path, _one_sample_per_gate() + [_dataflow(16.0), _dataflow(15.5)]
        )
        assert check_ratchet.main(["--history", str(path)]) == 0
        out = capsys.readouterr().out
        assert "perf ratchet" in out
        assert "REGRESSED" not in out

    def test_regressed_history_exits_one(self, tmp_path, capsys):
        # Distinct timings: identical trailing entries would be collapsed
        # as a duplicate flush by load_history's dedupe.
        path = self._write(
            tmp_path,
            [_dataflow(16.0), _dataflow(9.0), _dataflow(9.1), _dataflow(8.9)],
        )
        assert check_ratchet.main(["--history", str(path)]) == 1
        captured = capsys.readouterr()
        assert "REGRESSED" in captured.out
        assert "dataflow_single_point" in captured.err

    def test_empty_history_exits_one(self, tmp_path, capsys):
        path = self._write(tmp_path, [])
        assert check_ratchet.main(["--history", str(path)]) == 1
        captured = capsys.readouterr()
        assert "MISSING" in captured.out
        assert "steady_sweep" in captured.err

    def test_committed_history_passes(self, capsys):
        """The repo's own trajectory must satisfy its own gate."""
        assert check_ratchet.main([]) == 0

    def test_bad_window_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            check_ratchet.main(["--window", "0"])

    def test_bad_tolerance_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            check_ratchet.main(["--tolerance", "1.5"])
