"""Unit tests for the content-addressed result store."""

import errno
import json
import os
import stat
import time

import pytest

from repro.__main__ import main
from repro.explore import ResultStore, StoreDegradedWarning, key_digest
from repro.explore.store import (
    DEFAULT_LEASE_TTL,
    SCHEMA_VERSION,
    canonical_json,
)


KEY = {"kernel": "qrca", "width": 8, "point": {"arch": "qla", "factory_area": 10.0}}

#: ``KEY``'s record as stores wrote it before records went compact.
INDENTED_RECORD = """\
{
 "key": {
  "kernel": "qrca",
  "point": {
   "arch": "qla",
   "factory_area": 10.0
  },
  "width": 8
 },
 "result": {
  "makespan_us": 1.0
 },
 "schema": 1
}"""


class TestKeyDigest:
    def test_stable_across_key_order(self):
        a = {"x": 1, "y": 2}
        b = {"y": 2, "x": 1}
        assert key_digest(a) == key_digest(b)

    def test_distinct_keys_distinct_digests(self):
        assert key_digest({"x": 1}) != key_digest({"x": 2})

    def test_canonical_json_compact_sorted(self):
        assert canonical_json({"b": 1, "a": [1.5, "s"]}) == '{"a":[1.5,"s"],"b":1}'


class TestResultStore:
    def test_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(KEY, {"result": {"makespan_us": 1.0}})
        record = store.get(KEY)
        assert record["result"] == {"makespan_us": 1.0}
        assert record["schema"] == SCHEMA_VERSION
        assert record["key"] == KEY

    def test_miss_returns_none(self, tmp_path):
        assert ResultStore(tmp_path).get(KEY) is None

    def test_lives_under_explore_subdir(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(KEY, {})
        files = list((tmp_path / "explore").glob("*.json"))
        assert len(files) == 1
        assert files[0].stem == key_digest(KEY)

    def test_corrupt_file_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(KEY, {"result": {}})
        path = store._path(KEY)
        path.write_text("{ not json")
        assert store.get(KEY) is None

    def test_wrong_schema_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(KEY, {"result": {}})
        path = store._path(KEY)
        record = json.loads(path.read_text())
        record["schema"] = SCHEMA_VERSION + 1
        path.write_text(json.dumps(record))
        assert store.get(KEY) is None

    def test_len_and_clear(self, tmp_path):
        store = ResultStore(tmp_path)
        assert len(store) == 0
        store.put(KEY, {})
        store.put({**KEY, "width": 16}, {})
        assert len(store) == 2
        assert store.clear() == 2
        assert len(store) == 0
        assert store.clear() == 0

    def test_records_iteration_skips_corrupt(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(KEY, {"tag": "good"})
        (tmp_path / "explore" / "junk.json").write_text("nope")
        records = list(store.records())
        assert len(records) == 1
        assert records[0]["tag"] == "good"

    def test_put_overwrites(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(KEY, {"tag": 1})
        store.put(KEY, {"tag": 2})
        assert store.get(KEY)["tag"] == 2
        assert len(store) == 1

    def test_inflight_temp_files_invisible(self, tmp_path):
        """Crash-leftover temp files must not pollute len/records/clear."""
        store = ResultStore(tmp_path)
        store.put(KEY, {"tag": "good"})
        (tmp_path / "explore" / ".inflight-dead.tmp").write_text("{ torn")
        assert len(store) == 1
        assert len(list(store.records())) == 1
        assert store.clear() == 1

    def test_put_leaves_no_temp_files(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(KEY, {})
        names = [p.name for p in (tmp_path / "explore").iterdir()]
        assert names == [f"{key_digest(KEY)}.json"]

    def test_env_var_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
        store = ResultStore()
        store.put(KEY, {})
        assert (tmp_path / "custom" / "explore").is_dir()

    def test_indented_record_reads_warm(self, tmp_path):
        store = ResultStore(tmp_path)
        store.directory.mkdir(parents=True)
        store._path(KEY).write_text(INDENTED_RECORD)
        assert store.get(KEY)["result"] == {"makespan_us": 1.0}
        report = store.fsck()
        assert (report.ok, report.bad) == (1, 0)

    def test_records_are_written_compact(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(KEY, {"result": {"makespan_us": 1.0}})
        text = store._path(KEY).read_text()
        assert text == canonical_json(json.loads(INDENTED_RECORD))


class TestOutcomeCounters:
    """Store reads and writes count by outcome into the process-wide
    registry, and keep counting into it after ``REGISTRY.reset()``."""

    @staticmethod
    def _round(store):
        store.get(KEY)  # miss
        store.put(KEY, {"result": {}})  # ok
        store.get(KEY)  # hit
        store.get(KEY)  # hit

    def test_counts_render_after_reset(self, tmp_path):
        from repro.obs import metrics as obs_metrics

        expected = (
            'repro_store_get_total{outcome="hit"} 2',
            'repro_store_get_total{outcome="miss"} 1',
            'repro_store_put_total{outcome="ok"} 1',
        )
        obs_metrics.REGISTRY.reset()
        try:
            for root in ("first", "second"):
                self._round(ResultStore(tmp_path / root))
                text = obs_metrics.prometheus()
                for line in expected:
                    assert line in text.splitlines()
                obs_metrics.REGISTRY.reset()
                assert obs_metrics.prometheus() == ""
        finally:
            obs_metrics.REGISTRY.reset()


class TestWritePath:
    @pytest.mark.parametrize(
        "record",
        [
            {},
            {"areas": {"total": 1.5}, "point": {"arch": "qla"},
             "result": {"makespan_us": 2.0}},
            # A record's own "key"/"schema" entries are overridden.
            {"key": "mine", "schema": 99, "a": [1, "s"], "z": None},
        ],
        ids=["empty", "evaluation", "overridden"],
    )
    def test_record_bytes_are_canonical_json(self, tmp_path, record):
        store = ResultStore(tmp_path)
        assert store.put(KEY, record)
        path = store._path(KEY)
        document = {**record, "schema": SCHEMA_VERSION, "key": KEY}
        assert path.read_bytes() == canonical_json(document).encode("utf-8")
        assert stat.S_IMODE(path.stat().st_mode) == 0o600

    def test_readonly_directory_degrades(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        assert store.put(KEY, {"tag": 1})
        os.chmod(store.directory, 0o500)
        try:
            if os.access(store.directory, os.W_OK):
                # Mode bits do not bind a privileged user: refuse the
                # create the way a read-only mount would.
                real_open = os.open

                def read_only(path, flags, *args, **kwargs):
                    if flags & os.O_CREAT:
                        raise OSError(errno.EROFS, "Read-only file system", path)
                    return real_open(path, flags, *args, **kwargs)

                monkeypatch.setattr(os, "open", read_only)
            with pytest.warns(StoreDegradedWarning, match="write failed"):
                assert store.put({**KEY, "width": 16}, {"tag": 2}) is False
        finally:
            os.chmod(store.directory, 0o700)
        assert store.get(KEY)["tag"] == 1
        assert store.get({**KEY, "width": 16}) is None
        assert not list(store.directory.glob(".inflight-*"))


class TestStaleTemps:
    """A writer killed between creating its temp file and publishing it
    leaves the file behind; fsck reports it once it is ``lease_ttl`` old
    and a live writer's fresh one is never touched."""

    def _temps(self, store):
        store.directory.mkdir(parents=True, exist_ok=True)
        dead = store.directory / ".inflight-dead-0.tmp"
        live = store.directory / ".inflight-live-0.tmp"
        dead.write_text("{ torn")
        live.write_text("{ half")
        long_ago = time.time() - 2 * store.lease_ttl
        os.utime(dead, (long_ago, long_ago))
        return dead, live

    def test_fsck_reports_and_removes_only_aged_temps(self, tmp_path, capsys):
        store = ResultStore(tmp_path)
        store.put(KEY, {"tag": "good"})
        dead, live = self._temps(store)
        report = store.fsck()
        assert report.stale_temps == [dead.name]
        assert (report.ok, report.bad, report.removed) == (1, 0, 0)
        assert main(["cache", "fsck", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "stale temp files: 1" in out
        assert "fsck --remove" in out
        report = store.fsck(remove=True)
        assert report.removed == 1
        assert not dead.exists() and live.exists()
        assert store.fsck().stale_temps == []
        assert store.get(KEY)["tag"] == "good"

    def test_fsck_remove_clears_a_cut_reclaim_and_its_token(self, tmp_path):
        # A reclaimer killed between linking its token at a temp name
        # and renaming it over the lease: the temp is the token's only
        # other link, so one pass must drop both.
        dead = ResultStore(tmp_path)
        temp = dead.directory / ".inflight-reclaim-0.tmp"
        dead._link_token(temp)
        long_ago = time.time() - 2 * dead.lease_ttl
        os.utime(dead._token, (long_ago, long_ago))  # ages the temp too
        report = ResultStore(tmp_path).fsck(remove=True)
        assert report.stale_temps == [temp.name]
        assert report.stale_tokens == [dead._token.name]
        assert report.removed == 2
        assert not temp.exists() and not dead._token.exists()

    def test_clear_removes_only_aged_temps(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(KEY, {"tag": "good"})
        dead, live = self._temps(store)
        assert store.clear() == 1
        assert not dead.exists() and live.exists()


class TestOwnerTokenCleanup:
    def test_fsck_removes_stale_unlinked_tokens(self, tmp_path, capsys):
        idle, holder, live = (ResultStore(tmp_path) for _ in range(3))
        assert idle.claim(KEY)
        idle.release(KEY)
        assert holder.claim({**KEY, "width": 16})
        assert live.claim({**KEY, "width": 32})
        live.release({**KEY, "width": 32})
        long_ago = time.time() - 2 * DEFAULT_LEASE_TTL
        for store in (idle, holder):  # holder's lease ages with its token
            os.utime(store._token, (long_ago, long_ago))
        assert main(["cache", "fsck", "--cache-dir", str(tmp_path)]) == 0
        assert "stale owner tokens: 1" in capsys.readouterr().out
        report = live.fsck(remove=True)
        assert report.stale_tokens == [idle._token.name]
        assert report.removed == 2  # holder's stale lease + idle's token
        owners = sorted(path.name for path in (tmp_path / "owners").iterdir())
        assert owners == sorted([holder._token.name, live._token.name])
