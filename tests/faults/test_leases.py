"""The store's lease protocol: claims, staleness, and the acceptance
property — two concurrent evaluators sharing one store simulate each
unique point exactly once between them.
"""

import errno
import multiprocessing
import os
import shutil
import threading
import time
import warnings

import pytest

from repro.explore import (
    Evaluator,
    LeaseHeld,
    ResultStore,
    StoreDegradedWarning,
    key_digest,
)
from repro.testing.faults import FaultPlan, FaultRule


class TestLeaseProtocol:
    KEY = {"kernel": "qrca", "width": 8, "point": {"arch": "qla"}}

    def test_claim_release_cycle(self, tmp_path):
        a = ResultStore(tmp_path)
        b = ResultStore(tmp_path)
        assert a.claim(self.KEY)
        assert a.claim(self.KEY)  # re-entrant for the same owner
        assert not b.claim(self.KEY)
        a.release(self.KEY)
        assert b.claim(self.KEY)

    def test_release_leaves_foreign_lease_alone(self, tmp_path):
        a = ResultStore(tmp_path)
        b = ResultStore(tmp_path)
        assert a.claim(self.KEY)
        b.release(self.KEY)  # not b's to drop
        assert not b.claim(self.KEY)

    def test_stale_lease_reclaimed(self, tmp_path):
        a = ResultStore(tmp_path, lease_ttl=0.2)
        b = ResultStore(tmp_path, lease_ttl=0.2)
        assert a.claim(self.KEY)
        time.sleep(0.3)  # a dies silently: no heartbeat
        assert b.claim(self.KEY)
        assert not a.claim(self.KEY)  # ownership genuinely moved

    def test_heartbeat_keeps_lease_live(self, tmp_path):
        a = ResultStore(tmp_path, lease_ttl=0.4)
        b = ResultStore(tmp_path, lease_ttl=0.4)
        assert a.claim(self.KEY)
        for _ in range(3):
            time.sleep(0.2)
            a.heartbeat(self.KEY)
        assert not b.claim(self.KEY)  # never went stale

    def test_hold_context_manager(self, tmp_path):
        a = ResultStore(tmp_path)
        b = ResultStore(tmp_path)
        with a.hold(self.KEY):
            with pytest.raises(LeaseHeld):
                with b.hold(self.KEY):
                    pass
        assert b.claim(self.KEY)  # released on exit

    def test_lease_files_invisible_to_records(self, tmp_path):
        store = ResultStore(tmp_path)
        store.claim(self.KEY)
        assert len(store) == 0
        assert list(store.records()) == []
        store.put(self.KEY, {"tag": 1})
        assert len(store) == 1
        assert store.clear() == 1
        assert not list(store.directory.glob("*.lease"))  # swept by clear


def _inode(path):
    stat = path.stat()
    return stat.st_ino, stat.st_dev


class TestOwnerTokenLeases:
    """Leases are hard links to one owner token per store instance."""

    KEY = {"kernel": "qrca", "width": 8, "point": {"arch": "qla"}}

    def test_lease_is_a_link_to_the_owner_token(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.claim(self.KEY)
        (token,) = (tmp_path / "owners").iterdir()
        assert _inode(store._lease_path(self.KEY)) == _inode(token)
        assert token.stat().st_nlink == 2
        assert store.lease_owner(self.KEY) == store.owner
        store.put(self.KEY, {"tag": 1})
        store.release(self.KEY)
        names = [path.name for path in store.directory.iterdir()]
        assert names == ["records.log"]  # the lease is gone, the record kept
        assert store.log.read_bytes().startswith(key_digest(self.KEY).encode())

    def test_idle_store_claims_a_live_lease(self, tmp_path):
        """A token untouched for longer than the TTL is refreshed before
        it is linked, so the new lease is not born stale."""
        a = ResultStore(tmp_path, lease_ttl=0.5)
        b = ResultStore(tmp_path, lease_ttl=0.5)
        assert a.claim({"point": "earlier"})
        a.release({"point": "earlier"})
        time.sleep(0.7)  # a sits idle past the TTL
        assert a.claim(self.KEY)
        assert not b.claim(self.KEY)

    def test_one_heartbeat_keeps_every_lease_live(self, tmp_path):
        a = ResultStore(tmp_path, lease_ttl=1.0)
        b = ResultStore(tmp_path, lease_ttl=1.0)
        keys = [{"point": index} for index in range(3)]
        assert all(a.claim(key) for key in keys)
        time.sleep(0.7)
        a.heartbeat(keys[0])
        time.sleep(0.7)  # every lease is 1.4 s old, its token 0.7 s
        assert not any(b.claim(key) for key in keys)

    def test_no_hard_links_fails_open(self, tmp_path, monkeypatch, points):
        def no_link(src, dst, **kwargs):
            raise PermissionError(errno.EPERM, os.strerror(errno.EPERM))

        monkeypatch.setattr(os, "link", no_link)
        store = ResultStore(tmp_path)
        evaluator = Evaluator(kernel="qrca", width=8, store=store)
        with pytest.warns(StoreDegradedWarning, match="lease link failed"):
            got = evaluator.evaluate([points[0]])
        assert got[0].ok
        assert evaluator.simulations_run == 1
        assert len(store) == 1
        assert len(ResultStore(tmp_path)) == 1  # the record is on disk
        assert not list(store.directory.glob("*.lease"))

    def test_deleted_token_is_recreated(self, tmp_path):
        a = ResultStore(tmp_path)
        b = ResultStore(tmp_path)
        assert a.claim(self.KEY)
        a.release(self.KEY)
        (token,) = (tmp_path / "owners").iterdir()
        token.unlink()
        assert a.claim(self.KEY)
        (token,) = (tmp_path / "owners").iterdir()
        assert _inode(a._lease_path(self.KEY)) == _inode(token)
        assert not b.claim(self.KEY)
        a.release(self.KEY)
        assert b.claim(self.KEY)

    def test_removed_explore_dir_is_recreated(self, tmp_path):
        """A put after ``explore/`` or the log was removed under a live
        writer lands in a fresh log readers see, not in the unlinked
        inode."""
        store = ResultStore(tmp_path)
        assert store.put(self.KEY, {"tag": 1})
        other = {**self.KEY, "width": 16}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            shutil.rmtree(store.directory)
            assert store.put(self.KEY, {"tag": 2})
            assert store.get(self.KEY)["tag"] == 2
            assert ResultStore(tmp_path).get(self.KEY)["tag"] == 2
            store.log.unlink()
            assert store.put(other, {"tag": 3})
            assert ResultStore(tmp_path).get(other)["tag"] == 3
            shutil.rmtree(store.directory)
            assert store.claim(self.KEY)  # so does a claim
        assert store._lease_path(self.KEY).exists()


def _run_one_evaluator(root, points, plan_json, state_dir, queue):
    os.environ["REPRO_FAULTS"] = plan_json
    os.environ["REPRO_FAULTS_DIR"] = state_dir
    store = ResultStore(root)
    evaluator = Evaluator(kernel="qrca", width=8, store=store)
    evaluations = evaluator.evaluate(points)
    queue.put(
        {
            "sims": evaluator.simulations_run,
            "hits": evaluator.cache_hits,
            "all_ok": all(e.ok for e in evaluations),
            "makespans": [e.result.makespan_us for e in evaluations],
        }
    )


class TestConcurrentEvaluators:
    def test_two_evaluators_never_double_simulate(
        self, tmp_path, points, reference
    ):
        """Two evaluator processes race over one store: the leases split
        the points between them, contested points are awaited, and each
        unique point is simulated exactly once globally."""
        # Slow every evaluation slightly so the two runs genuinely
        # overlap instead of one finishing before the other starts.
        state = tmp_path / "fault-state"
        state.mkdir()
        plan = FaultPlan(
            [FaultRule(mode="hang", stage="evaluate", times=None,
                       seconds=0.2)],
            state_dir=str(state),
        )
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        procs = [
            ctx.Process(
                target=_run_one_evaluator,
                args=(str(tmp_path / "cache"), points, plan.to_json(),
                      str(state), queue),
            )
            for _ in range(2)
        ]
        for proc in procs:
            proc.start()
        results = [queue.get(timeout=120) for _ in procs]
        for proc in procs:
            proc.join(timeout=30)
        assert all(r["all_ok"] for r in results)
        # The acceptance property: exactly one simulation per point.
        assert sum(r["sims"] for r in results) == len(points)
        # Every evaluator resolved every point (own sims + peer's results).
        for r in results:
            assert r["sims"] + r["hits"] == len(points)
            assert r["makespans"] == [e.result.makespan_us for e in reference]

    def test_dead_evaluator_lease_reclaimed_by_peer(self, tmp_path, points):
        """An evaluator that claimed a point and died must not block the
        point forever: the peer reclaims the stale lease and simulates."""
        store_a = ResultStore(tmp_path, lease_ttl=0.3)
        evaluator_a = Evaluator(kernel="qrca", width=8, store=store_a)
        key = evaluator_a._store_key(
            evaluator_a.canonicalize(points[0])
        )
        assert store_a.claim(key)  # a "dies" here: lease never released
        time.sleep(0.4)
        store_b = ResultStore(tmp_path, lease_ttl=0.3)
        evaluator_b = Evaluator(kernel="qrca", width=8, store=store_b)
        got = evaluator_b.evaluate([points[0]])
        assert got[0].ok
        assert evaluator_b.simulations_run == 1


class TestSerialHeartbeat:
    #: One point per ``simulate_batch`` group: four groups in one batch.
    POINTS = [
        {"arch": "qla", "factory_area": 100.0},
        {"arch": "cqla", "factory_area": 100.0},
        {"arch": "multiplexed", "factory_area": 100.0},
        {"zero_rate": 5.0},
    ]

    def test_slow_batch_keeps_its_leases_live(self, tmp_path, monkeypatch):
        """A batch that outlives ``lease_ttl`` heartbeats its leases
        between simulation groups, so a peer arriving mid-batch waits for
        the owner's records instead of reclaiming and re-simulating."""
        from repro.arch import batched

        real = batched.simulate_batch

        def slow_simulate_batch(*args, **kwargs):
            time.sleep(0.6)
            return real(*args, **kwargs)

        monkeypatch.setattr(batched, "simulate_batch", slow_simulate_batch)

        def evaluator():
            return Evaluator(
                kernel="qrca", width=8,
                store=ResultStore(tmp_path, lease_ttl=1.0),
            )

        owner, peer = evaluator(), evaluator()
        owned = []
        thread = threading.Thread(
            target=lambda: owned.extend(owner.evaluate(self.POINTS))
        )
        thread.start()
        time.sleep(0.3)
        awaited = peer.evaluate(self.POINTS)
        thread.join(timeout=60)
        assert all(e.ok for e in owned + awaited)
        assert [e.result for e in awaited] == [e.result for e in owned]
        # One simulation per distinct point, all of them the owner's.
        assert owner.simulations_run == len(self.POINTS)
        assert peer.simulations_run == 0
        assert peer.cache_hits == len(self.POINTS)
