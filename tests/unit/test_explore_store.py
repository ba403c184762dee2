"""Unit tests for the content-addressed result store."""

import errno
import json
import multiprocessing
import os
import stat
import subprocess
import sys
import textwrap
import time
import zlib
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.explore import ResultStore, StoreDegradedWarning, key_digest
from repro.explore.store import (
    DEFAULT_LEASE_TTL,
    SCHEMA_VERSION,
    canonical_json,
)

SRC = Path(__file__).resolve().parents[2] / "src"


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


def _log(root):
    return root / "explore" / "records.log"


def _age(*paths):
    long_ago = time.time() - 2 * DEFAULT_LEASE_TTL
    for path in paths:
        os.utime(path, (long_ago, long_ago))


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
        assert store.log == _log(tmp_path)
        assert _log(tmp_path).read_bytes().startswith(f"{key_digest(KEY)} ".encode())

    def test_corrupt_frame_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(KEY, {"result": {}})
        data = bytearray(_log(tmp_path).read_bytes())
        data[-3] ^= 1  # one flipped payload bit: the CRC no longer matches
        _log(tmp_path).write_bytes(bytes(data))
        assert store.get(KEY) is None
        assert ResultStore(tmp_path).get(KEY) is None

    def test_wrong_schema_is_a_miss(self, tmp_path, append_log):
        append_log(tmp_path, {"key": KEY, "schema": SCHEMA_VERSION + 1})
        assert ResultStore(tmp_path).get(KEY) is None

    def test_len_and_clear(self, tmp_path):
        store = ResultStore(tmp_path)
        assert len(store) == 0
        store.put(KEY, {})
        store.put({**KEY, "width": 16}, {})
        assert len(store) == 2
        assert store.clear() == 2
        assert len(store) == 0
        assert store.clear() == 0

    def test_records_iteration_skips_corrupt(self, tmp_path, append_log):
        store = ResultStore(tmp_path)
        store.put(KEY, {"tag": "good"})
        append_log(tmp_path, b"nope\n", (key_digest({"k": 1}), b"{ not json"))
        records = list(store.records())
        assert len(records) == 1
        assert records[0]["tag"] == "good"

    def test_put_overwrites(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(KEY, {"tag": 1})
        store.put(KEY, {"tag": 2})
        assert store.get(KEY)["tag"] == 2
        assert len(store) == 1

    def test_torn_tails_invisible(self, tmp_path, append_log):
        """A frame a dead writer left half-written must not pollute
        len/records/clear, nor hide a frame appended after it."""
        store = ResultStore(tmp_path)
        store.put(KEY, {"tag": "good"})
        append_log(tmp_path, _log(tmp_path).read_bytes()[:-9])
        assert len(store) == 1
        assert len(list(store.records())) == 1
        other = {**KEY, "width": 16}
        assert ResultStore(tmp_path).put(other, {"tag": "after"})
        assert store.get(other)["tag"] == "after"
        assert store.clear() == 2

    def test_duplicate_digest_counts_once(self, tmp_path, append_log):
        store = ResultStore(tmp_path)
        store.put(KEY, {"tag": "good"})
        record = store.get(KEY)
        append_log(tmp_path, record, record)
        assert len(store) == 1
        assert list(store.records()) == [record]
        assert len(ResultStore(tmp_path)) == 1
        assert store.fsck().ok == 1

    def test_put_writes_one_log_and_nothing_else(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(KEY, {})
        ResultStore(tmp_path).put({**KEY, "width": 16}, {})
        assert [p.name for p in tmp_path.iterdir()] == ["explore"]  # no token
        assert [p.name for p in store.directory.iterdir()] == ["records.log"]
        assert _log(tmp_path).read_bytes().count(b"\n") == 4

    def test_env_var_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
        store = ResultStore()
        store.put(KEY, {})
        assert (tmp_path / "custom" / "explore").is_dir()

    @pytest.mark.parametrize(
        "text", [INDENTED_RECORD, canonical_json(json.loads(INDENTED_RECORD))],
        ids=["indented", "compact"],
    )
    def test_legacy_record_files_are_garbage(self, tmp_path, capsys, text):
        """Per-record files of the older layout are never read: fsck
        reports them and ``--remove`` deletes them."""
        store = ResultStore(tmp_path)
        store.directory.mkdir(parents=True)
        legacy = store.directory / f"{key_digest(KEY)}.json"
        legacy.write_text(text)
        assert store.get(KEY) is None
        assert len(store) == 0
        report = store.fsck()
        assert (report.ok, report.bad, report.legacy) == (0, 0, [legacy.name])
        assert main(["cache", "fsck", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "legacy per-record files: 1" in out
        assert "fsck --remove" in out
        assert store.fsck(remove=True).removed == 1
        assert not legacy.exists()

    def test_records_are_written_compact(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(KEY, {"result": {"makespan_us": 1.0}})
        payload = _log(tmp_path).read_bytes().split(b"\n")[1].decode()
        assert payload == canonical_json(json.loads(INDENTED_RECORD))


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
        document = {**record, "schema": SCHEMA_VERSION, "key": KEY}
        payload = canonical_json(document).encode("utf-8")
        header = f"{key_digest(KEY)} {len(payload)} {zlib.crc32(payload)}\n"
        assert _log(tmp_path).read_bytes() == header.encode() + payload + b"\n"
        assert stat.S_IMODE(_log(tmp_path).stat().st_mode) == 0o600

    def test_readonly_store_degrades_and_still_reads(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        assert store.put(KEY, {"tag": 1})
        real_open = os.open

        def read_only(path, flags, *args, **kwargs):  # a read-only mount
            if flags & (os.O_CREAT | os.O_WRONLY | os.O_RDWR):
                raise OSError(errno.EROFS, "Read-only file system", path)
            return real_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", read_only)
        later = ResultStore(tmp_path)
        with pytest.warns(StoreDegradedWarning, match="write failed"):
            assert later.put({**KEY, "width": 16}, {"tag": 2}) is False
        assert later.get(KEY)["tag"] == 1
        with pytest.warns(StoreDegradedWarning, match="write failed"):
            assert later.put({**KEY, "width": 16}, {"tag": 2}) is False
        monkeypatch.undo()
        assert ResultStore(tmp_path).get({**KEY, "width": 16}) is None
        assert len(ResultStore(tmp_path)) == 1


class TestLogRepair:
    """``fsck --remove`` rewrites the shared log without what readers
    skip; writers that keep running land in the new log."""

    def test_fsck_drops_damage_and_a_torn_tail(self, tmp_path, capsys):
        first, second = ResultStore(tmp_path), ResultStore(tmp_path)
        first.put(KEY, {"tag": "first"})
        torn = f"{'0' * 64} 99 1\n{{".encode()
        with open(_log(tmp_path), "ab") as handle:
            handle.write(torn)  # a writer died mid-append
        damaged_at = _log(tmp_path).stat().st_size - len(torn)
        second.put({**KEY, "width": 16}, {"tag": "second"})
        with open(_log(tmp_path), "ab") as handle:
            handle.write(torn)  # and another one at the end
        torn_at = _log(tmp_path).stat().st_size - len(torn)
        report = second.fsck()
        assert report.corrupt == [f"records.log@{damaged_at}"]
        assert report.torn == [f"records.log@{torn_at}"]
        assert (report.ok, report.bad, report.removed) == (2, 2, 0)
        assert main(["cache", "fsck", "--cache-dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "torn tails: 1" in out and "fsck --remove" in out
        report = second.fsck(remove=True)
        assert (report.compacted, report.removed) == (True, 2)
        assert _log(tmp_path).read_bytes().count(b"\n") == 4
        fresh = ResultStore(tmp_path)
        assert fresh.get(KEY)["tag"] == "first"
        assert fresh.get({**KEY, "width": 16})["tag"] == "second"
        assert first.get({**KEY, "width": 16})["tag"] == "second"
        assert first.put({**KEY, "width": 32}, {"tag": "later"})
        assert ResultStore(tmp_path).get({**KEY, "width": 32})["tag"] == "later"
        again = second.fsck(remove=True)
        assert (again.compacted, again.removed, again.bad, again.ok) == (
            False, 0, 0, 3)

    def test_fsck_remove_clears_a_cut_reclaim_and_its_token(self, tmp_path):
        # A reclaimer killed between linking its token at a temp name
        # and renaming it over the lease: the temp is a lease-named link
        # to the token, so one pass must drop both.
        dead = ResultStore(tmp_path)
        temp = dead.directory / ".reclaim-0.lease"
        dead._link_token(temp)
        _age(dead._token)  # ages the temp too
        report = ResultStore(tmp_path).fsck(remove=True)
        assert report.stale_leases == [temp.name]
        assert report.stale_tokens == [dead._token.name]
        assert report.removed == 2
        assert not temp.exists() and not dead._token.exists()

    def test_clear_then_live_writer_starts_a_fresh_log(self, tmp_path):
        writer = ResultStore(tmp_path)
        writer.put(KEY, {"tag": "before"})
        assert ResultStore(tmp_path).clear() == 1
        assert not _log(tmp_path).exists()
        writer.put({**KEY, "width": 16}, {"tag": "after"})
        fresh = ResultStore(tmp_path)
        assert fresh.get({**KEY, "width": 16})["tag"] == "after"
        assert fresh.get(KEY) is None


class TestManyWriters:
    """Every writer appends to the one log, so what a miss costs, and
    how many descriptors a reader holds, does not grow with writers."""

    def test_two_hundred_writers_share_one_log(self, tmp_path, monkeypatch):
        keys = [{**KEY, "width": index} for index in range(200)]
        for key in keys:
            assert ResultStore(tmp_path).put(key, {"result": {"index": key["width"]}})
        ResultStore(tmp_path).put(keys[1], {"result": {"index": 1}})  # a duplicate
        assert [p.name for p in (tmp_path / "explore").iterdir()] == ["records.log"]
        reader = ResultStore(tmp_path)
        before = [reader.get(key) for key in keys]
        assert [record["result"]["index"] for record in before] == list(range(200))
        assert len(reader) == 200
        assert len(list(reader.records())) == 200
        calls = []
        for name in ("fstat", "stat", "listdir", "pread", "open"):
            monkeypatch.setattr(os, name, _counted(calls, name, getattr(os, name)))
        assert reader.get({**KEY, "width": 999}) is None
        assert calls == ["fstat"]  # one per miss, whatever the writer count
        monkeypatch.undo()
        report = ResultStore(tmp_path).fsck(remove=True)
        assert (report.compacted, report.ok, report.bad, report.removed) == (
            True, 200, 0, 1)
        assert _log(tmp_path).read_bytes().count(b"\n") == 2 * 200
        after = ResultStore(tmp_path)
        assert [after.get(key) for key in keys] == before
        assert [reader.get(key) for key in keys] == before
        again = after.fsck(remove=True)
        assert (again.compacted, again.removed, again.ok) == (False, 0, 200)

    def test_concurrent_appends_never_interleave(self, tmp_path):
        """More writer processes than cores append to the log at once:
        every frame stays whole and readable."""
        context = multiprocessing.get_context("spawn")
        workers = [
            context.Process(target=_append_many, args=(str(tmp_path), worker, 300))
            for worker in range(4)
        ]
        for process in workers:
            process.start()
        for process in workers:
            process.join(timeout=120)
        assert [process.exitcode for process in workers] == [0] * 4
        report = ResultStore(tmp_path).fsck()
        assert (report.ok, report.bad) == (1200, 0)
        store = ResultStore(tmp_path)
        for worker in range(4):
            for index in range(300):
                record = store.get({"w": worker, "i": index})
                assert record["pad"] == "x" * (100 * (index % 40))

    def test_descriptors_do_not_grow_under_a_low_fd_limit(self, tmp_path):
        """A reader outlives 300 writers and 100 compactions under
        ``RLIMIT_NOFILE`` 32 and still reads and writes."""
        script = textwrap.dedent(f"""
            import resource
            resource.setrlimit(resource.RLIMIT_NOFILE, (32, 32))
            from repro.explore import ResultStore
            root = {str(tmp_path)!r}
            reader = ResultStore(root)
            for index in range(300):
                key = {{"k": index}}
                writer = ResultStore(root)
                assert writer.put(key, {{"v": index}})
                if index % 3 == 0:
                    writer.put(key, {{"v": index}})  # a duplicate to drop
                    assert writer.fsck(remove=True).compacted
                assert reader.get(key)["v"] == index
                assert reader.put({{"r": index}}, {{}})
            assert len(ResultStore(root)) == 600
            print("ok")
        """)
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "ok"


def _append_many(root, worker, count):
    store = ResultStore(root)
    for index in range(count):  # frames of ~0.1-4 KB
        assert store.put({"w": worker, "i": index}, {"pad": "x" * (100 * (index % 40))})


def _counted(calls, name, real):
    def call(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    return call


class TestOwnerTokenCleanup:
    def test_fsck_removes_stale_tokens_and_their_leases(self, tmp_path, capsys):
        idle, holder, live = (ResultStore(tmp_path) for _ in range(3))
        assert idle.claim(KEY)
        idle.release(KEY)
        assert holder.claim({**KEY, "width": 16})
        assert live.claim({**KEY, "width": 32})
        live.release({**KEY, "width": 32})
        _age(idle._token, holder._token)  # holder's lease ages with its token
        assert main(["cache", "fsck", "--cache-dir", str(tmp_path)]) == 0
        assert "stale owner tokens: 2" in capsys.readouterr().out
        report = live.fsck(remove=True)
        assert report.stale_tokens == sorted([idle._token.name, holder._token.name])
        assert report.removed == 3  # holder's stale lease + both tokens
        owners = [path.name for path in (tmp_path / "owners").iterdir()]
        assert owners == [live._token.name]
        assert not list(live.directory.glob("*.lease"))
        assert live.fsck(remove=True).removed == 0
