"""Power loss after an un-fsync'd put: the log's last frame reached the
disk only in part, leaving a torn tail."""

from repro.explore import Evaluator, ResultStore
from repro.explore.store import StoreKey


def test_torn_tail_frame_is_a_miss_and_is_rewritten(tmp_path, points):
    first = Evaluator(kernel="qrca", width=8, store=ResultStore(tmp_path))
    reference = first.evaluate(points[:2])
    key = StoreKey.of(first._store_key(first.canonicalize(points[1])))
    log = tmp_path / "explore" / "records.log"
    data = log.read_bytes()
    written = data[data.rindex(key.digest.encode()):]
    log.write_bytes(data[: len(data) - len(written) // 2])

    store = ResultStore(tmp_path)
    assert store.get(key) is None
    report = store.fsck()
    assert report.torn == [f"records.log@{len(data) - len(written)}"]
    assert report.ok == 1

    second = Evaluator(kernel="qrca", width=8, store=store)
    again = second.evaluate(points[:2])
    assert second.simulations_run == 1  # only the torn record
    assert second.cache_hits == 1
    assert [e.result for e in again] == [e.result for e in reference]
    assert ResultStore(tmp_path).get(key) is not None
    assert log.read_bytes().endswith(written)  # behind the torn bytes
    assert store.fsck().corrupt == [f"records.log@{len(data) - len(written)}"]
    assert store.fsck(remove=True).removed == 1
    assert store.fsck().ok == 2
    assert store.fsck().bad == 0
