"""CLI surface of the robustness work: `repro cache` and the explore
resume/retry flags."""

import json

import pytest

from repro.__main__ import main
from repro.explore import ResultStore
from repro.explore.store import SCHEMA_VERSION


def _explore(tmp_path, *extra):
    return main(
        [
            "explore", "qrca-8",
            "--strategy", "grid",
            "--budget", "4",
            "--cache-dir", str(tmp_path),
            *extra,
        ]
    )


class TestCacheSubcommand:
    def test_stats_on_empty_store(self, tmp_path, capsys):
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "valid records: 0" in out
        assert "journal: none" in out

    def test_fsck_healthy_store_exits_zero(self, tmp_path, capsys):
        store = ResultStore(tmp_path)
        store.put({"point": {"arch": "qla"}}, {"tag": 1})
        assert main(["cache", "fsck", "--cache-dir", str(tmp_path)]) == 0
        assert "ok: 1" in capsys.readouterr().out

    def test_fsck_reports_corruption_and_exits_nonzero(self, tmp_path, capsys):
        store = ResultStore(tmp_path)
        store.directory.mkdir(parents=True, exist_ok=True)
        (store.directory / "corrupt.json").write_text("{ torn")
        (store.directory / "stale.json").write_text(
            json.dumps({"schema": SCHEMA_VERSION + 1})
        )
        assert main(["cache", "fsck", "--cache-dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "corrupt: 1 (corrupt.json)" in out
        assert "stale schema: 1" in out
        assert "fsck --remove" in out

    def test_fsck_remove_heals_and_exits_zero(self, tmp_path, capsys):
        store = ResultStore(tmp_path)
        store.put({"point": {"arch": "qla"}}, {"tag": 1})
        (store.directory / "corrupt.json").write_text("{ torn")
        assert main(
            ["cache", "fsck", "--remove", "--cache-dir", str(tmp_path)]
        ) == 0
        assert "removed: 1" in capsys.readouterr().out
        assert main(["cache", "fsck", "--cache-dir", str(tmp_path)]) == 0

    def test_clear(self, tmp_path, capsys):
        store = ResultStore(tmp_path)
        store.put({"point": {"arch": "qla"}}, {"tag": 1})
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "cleared 1" in capsys.readouterr().out
        assert len(ResultStore(tmp_path)) == 0


class TestExploreRobustnessFlags:
    def test_stats_line_printed(self, tmp_path, capsys):
        assert _explore(tmp_path) == 0
        out = capsys.readouterr().out
        assert "evaluator: simulations_run=4" in out
        assert "cache_hits=0" in out

    def test_retries_flag_parses(self, tmp_path, capsys):
        assert _explore(tmp_path, "--retries", "1") == 0
        assert "evaluator:" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--workers", "--timeout"])
    def test_pool_flags_are_gone(self, tmp_path, capsys, flag):
        """Evaluation is in-process only: the pool's flags are rejected."""
        assert _explore(tmp_path, flag, "2") == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_resume_replays_from_journal(self, tmp_path, capsys):
        assert _explore(tmp_path) == 0
        capsys.readouterr()
        assert _explore(
            tmp_path, "--budget", "6", "--resume"
        ) == 0
        out = capsys.readouterr().out
        # Four replayed points served from the store, two fresh.
        assert "cache_hits=4" in out
        assert "simulations_run=2" in out

    def test_resume_requires_the_store(self, tmp_path, capsys):
        assert _explore(tmp_path, "--resume", "--no-cache") == 2
        assert "--resume needs the result store" in capsys.readouterr().err
