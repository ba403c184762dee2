"""Power loss after an un-fsync'd put: the record's name reached the disk
but its bytes did not, leaving a zero-byte ``<digest>.json``."""

from repro.explore import Evaluator, ResultStore
from repro.explore.store import StoreKey


def test_zero_byte_record_is_a_miss_and_is_rewritten(tmp_path, points):
    store = ResultStore(tmp_path)
    first = Evaluator(kernel="qrca", width=8, store=store)
    reference = first.evaluate(points[:2])
    key = StoreKey.of(first._store_key(first.canonicalize(points[0])))
    path = store._path(key)
    written = path.read_bytes()
    path.write_bytes(b"")

    assert store.get(key) is None
    report = store.fsck()
    assert report.corrupt == [path.name]
    assert report.ok == 1

    second = Evaluator(kernel="qrca", width=8, store=store)
    again = second.evaluate(points[:2])
    assert second.simulations_run == 1  # only the emptied record
    assert second.cache_hits == 1
    assert [e.result for e in again] == [e.result for e in reference]
    assert path.read_bytes() == written
    assert store.fsck().ok == 2
    assert store.fsck().bad == 0
