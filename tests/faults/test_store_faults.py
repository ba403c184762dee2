"""Store-side fault injection: torn writes, I/O errors, fsck."""

import time
import warnings

import pytest

from repro.explore import Evaluator, ResultStore, StoreDegradedWarning, key_digest
from repro.explore.store import SCHEMA_VERSION
from repro.testing import faults
from repro.testing.faults import FaultPlan, FaultRule

KEY = {"kernel": "qrca", "width": 8, "point": {"arch": "qla", "factory_area": 40.0}}


@pytest.fixture
def arm_local():
    """Arm an in-process plan (store I/O happens in this process)."""
    try:
        yield lambda rules: faults.arm(FaultPlan(rules))
    finally:
        faults.arm(None)


class TestTornWrites:
    def test_torn_write_reads_as_miss(self, tmp_path, arm_local):
        arm_local([FaultRule(mode="torn", stage="store_put", times=1)])
        store = ResultStore(tmp_path)
        store.put(KEY, {"result": {"makespan_us": 1.0}})
        assert store.get(KEY) is None  # truncated JSON: a miss, not data
        assert len(store) == 0
        # The next (untorn) write heals the entry.
        store.put(KEY, {"result": {"makespan_us": 1.0}})
        assert store.get(KEY)["result"] == {"makespan_us": 1.0}

    def test_torn_write_resimulated_next_run(self, tmp_path, arm_local, points):
        arm_local([FaultRule(mode="torn", stage="store_put",
                             match={"factory_area": 80.0}, times=1)])
        store = ResultStore(tmp_path)
        first = Evaluator(kernel="qrca", width=8, store=store)
        first.evaluate(points)
        assert len(store) == len(points) - 1
        faults.arm(None)
        second = Evaluator(kernel="qrca", width=8, store=store)
        second.evaluate(points)
        assert second.simulations_run == 1  # only the torn entry
        assert len(store) == len(points)


class TestStoreIOErrors:
    def test_put_oserror_degrades_with_warning(self, tmp_path, arm_local):
        arm_local([FaultRule(mode="raise", stage="store_put", exc="OSError",
                             message="No space left on device", times=1)])
        store = ResultStore(tmp_path)
        with pytest.warns(StoreDegradedWarning, match="No space left"):
            assert store.put(KEY, {"result": {}}) is False
        assert store.put(KEY, {"result": {}}) is True

    def test_readonly_cache_dir_does_not_crash_evaluation(
        self, tmp_path, arm_local, points, reference, assert_identical
    ):
        """ENOSPC/EROFS on every write: the exploration still completes
        with correct in-memory results."""
        arm_local([FaultRule(mode="raise", stage="store_put", exc="OSError",
                             message="Read-only file system", times=None)])
        store = ResultStore(tmp_path)
        evaluator = Evaluator(kernel="qrca", width=8, store=store)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StoreDegradedWarning)
            got = evaluator.evaluate(points)
        assert_identical(got, reference)
        assert len(store) == 0

    def test_get_oserror_is_a_miss(self, tmp_path, arm_local):
        store = ResultStore(tmp_path)
        store.put(KEY, {"result": {}})
        arm_local([FaultRule(mode="raise", stage="store_get", exc="OSError",
                             times=1)])
        assert store.get(KEY) is None
        assert store.get(KEY) is not None  # fault budget spent


class TestSchemaGate:
    """records()/__len__ apply the same schema gate as get()."""

    def test_stale_schema_not_counted_or_yielded(self, tmp_path, append_log):
        store = ResultStore(tmp_path)
        store.put(KEY, {"tag": "good"})
        append_log(
            tmp_path,
            {"key": {"k": "stale"}, "schema": SCHEMA_VERSION + 1, "tag": "stale"},
            (key_digest({"k": "schemaless"}), {"tag": "foreign"}),
        )
        assert len(store) == 1
        assert [r["tag"] for r in store.records()] == ["good"]

    def test_corrupt_but_parseable_not_counted(self, tmp_path, append_log):
        append_log(tmp_path, (key_digest(KEY), b"[1,2,3]"))
        store = ResultStore(tmp_path)
        assert len(store) == 0
        assert list(store.records()) == []


class TestFsck:
    def test_fsck_classifies_everything(self, tmp_path, append_log):
        store = ResultStore(tmp_path, lease_ttl=0.1)
        store.put(KEY, {"tag": "good"})
        good = store.get(KEY)
        first = store.log.stat().st_size
        log = append_log(
            tmp_path,
            b"{ not json\n",
            {"key": {"k": "stale"}, "schema": SCHEMA_VERSION + 1},
            # A record filed under another key's address is foreign.
            (key_digest({"k": "other"}), good),
        )
        store.claim({"point": "other"})
        time.sleep(0.2)  # the lease goes stale
        report = store.fsck()
        assert report.ok == 1
        stale_at = first + len(b"{ not json\n")
        foreign_at = log.read_bytes().index(key_digest({"k": "other"}).encode())
        assert report.corrupt == [f"records.log@{first}"]
        assert report.stale_schema == [f"records.log@{stale_at}"]
        assert report.foreign == [f"records.log@{foreign_at}"]
        assert len(report.stale_leases) == 1
        assert report.removed == 0  # report-only by default

    def test_fsck_remove_heals_the_store(self, tmp_path, append_log):
        store = ResultStore(tmp_path, lease_ttl=0.05)
        store.put(KEY, {"tag": "good"})
        append_log(tmp_path, b"nope\n")
        store.claim({"point": "other"})
        time.sleep(0.15)
        report = store.fsck(remove=True)
        # The corrupt bytes (the log is rewritten without them), the
        # stale lease and (its owner idle past the TTL) its token.
        assert report.removed == 3
        assert store.fsck().bad == 0
        assert store.get(KEY)["tag"] == "good"  # healthy entries untouched
        assert ResultStore(tmp_path).get(KEY)["tag"] == "good"


class TestFaultHarness:
    def test_times_budget_persists_across_arm_cycles(self, tmp_path):
        state = tmp_path / "state"
        state.mkdir()
        plan = FaultPlan(
            [FaultRule(mode="raise", stage="evaluate", times=2)],
            state_dir=str(state),
        )
        fired = 0
        for _ in range(5):
            try:
                plan_check(plan)
            except RuntimeError:
                fired += 1
        assert fired == 2

    def test_plan_round_trips_through_json(self):
        plan = FaultPlan([FaultRule(mode="exit", match={"x": 1.5}, times=3)])
        restored = FaultPlan.from_json(plan.to_json(), state_dir=None)
        assert restored.rules == plan.rules

    def test_unmatched_point_never_fires(self):
        faults.arm(FaultPlan([FaultRule(mode="raise", stage="evaluate",
                                        match={"factory_area": 999.0})]))
        try:
            faults.check("evaluate", {"factory_area": 40.0})  # no raise
            faults.check("store_put", {"factory_area": 999.0})  # wrong stage
        finally:
            faults.arm(None)


def plan_check(plan):
    faults.arm(plan)
    try:
        faults.check("evaluate", {"arch": "qla"})
    finally:
        faults.arm(None)
