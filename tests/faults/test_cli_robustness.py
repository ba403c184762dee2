"""CLI surface of the robustness work: `repro cache` and the explore
resume/retry flags."""

import os

import pytest

from repro.__main__ import main
from repro.explore import ResultStore, StoreDegradedWarning
from repro.explore.store import SCHEMA_VERSION
from repro.testing.faults import FaultRule


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
        assert "record log: 0 bytes" in out
        assert "journal: none" in out

    def test_fsck_healthy_store_exits_zero(self, tmp_path, capsys):
        store = ResultStore(tmp_path)
        store.put({"point": {"arch": "qla"}}, {"tag": 1})
        assert main(["cache", "fsck", "--cache-dir", str(tmp_path)]) == 0
        assert "ok: 1" in capsys.readouterr().out

    def test_fsck_reports_corruption_and_exits_nonzero(
        self, tmp_path, capsys, append_log
    ):
        append_log(
            tmp_path,
            b"{ torn\n",
            {"key": {"k": "stale"}, "schema": SCHEMA_VERSION + 1},
        )
        assert main(["cache", "fsck", "--cache-dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "corrupt: 1 (records.log@0)" in out
        assert "stale schema: 1" in out
        assert "fsck --remove" in out

    def test_fsck_remove_heals_and_exits_zero(
        self, tmp_path, capsys, append_log
    ):
        store = ResultStore(tmp_path)
        store.put({"point": {"arch": "qla"}}, {"tag": 1})
        append_log(tmp_path, b"{ torn\n")
        assert main(
            ["cache", "fsck", "--remove", "--cache-dir", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "removed: 1" in out
        assert "log compacted: yes" in out
        assert main(["cache", "fsck", "--cache-dir", str(tmp_path)]) == 0

    def test_stats_reports_the_log_size(self, tmp_path, capsys):
        store = ResultStore(tmp_path)
        store.put({"point": {"arch": "qla"}}, {"tag": 1})
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        size = store.log.stat().st_size
        assert f"record log: {size} bytes" in capsys.readouterr().out

    def test_read_only_cache_dir_warns_instead_of_crashing(
        self, tmp_path, capsys, append_log, arm
    ):
        """``fsck --remove`` and ``clear`` on a cache directory they
        cannot change finish, and say what they left."""
        store = ResultStore(tmp_path)
        store.put({"point": {"arch": "qla"}}, {"tag": 1})
        append_log(tmp_path, b"{ torn\n")
        (store.directory / "0.json").write_text("{}")  # a legacy file
        os.chmod(store.directory, 0o500)
        if os.access(store.directory, os.W_OK):
            # Mode bits do not bind a privileged user: fail the writes
            # the way a read-only directory would.
            arm([FaultRule(mode="raise", stage=stage, exc="PermissionError",
                           times=None) for stage in ("unlink", "compact_write")])
        try:
            with pytest.warns(StoreDegradedWarning) as caught:
                args = ["--cache-dir", str(tmp_path)]
                assert main(["cache", "fsck", "--remove", *args]) == 0
                assert "log compacted: no" in capsys.readouterr().out
                assert main(["cache", "clear", *args]) == 0
        finally:
            os.chmod(store.directory, 0o700)
        messages = [str(warning.message) for warning in caught]
        removes = [text for text in messages if "could not remove" in text]
        assert sum("0.json" in text for text in removes) == 2  # fsck, clear
        assert any(f"remove {store.log} " in text for text in removes)
        assert sum("could not compact" in text for text in messages) == 1
        assert ResultStore(tmp_path).fsck().bad == 1  # the torn tail stays

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

    @pytest.mark.parametrize(
        "flag", ["--workers", "--timeout", "--heartbeat-interval"]
    )
    def test_pool_flags_are_gone(self, tmp_path, capsys, flag):
        """Retired knobs are rejected: the pool's flags (evaluation is
        in-process only) and the heartbeat interval (derived from the
        lease TTL)."""
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
