"""Kill the result store at every step it takes.

Each store stage (:data:`repro.testing.faults.STORE_STAGES`, plus the
``store_get``/``store_put`` entry hooks) gets one ``exit`` fault in a
child process running a whole store session: one batch over points the
first of which a dead owner's stale lease blocks (so the reclaim runs),
slowed once so the batch heartbeats its leases, then ``fsck --remove``
over a log holding damaged bytes (so compaction runs).

After the kill every owner is dead; their tokens are aged past the
lease TTL (what waiting it out does, without the wait). Then:

* every record reads as its cold value or as a miss, never torn;
* a fresh evaluator over the same points returns the unfaulted results;
* ``fsck --remove`` leaves no lease and no dead owner's token, and a
  second pass finds nothing;
* every record then reads as its cold value.
"""

import multiprocessing
import os
import time

import pytest

from repro.explore import Evaluator, ResultStore
from repro.explore.store import DEFAULT_LEASE_TTL, StoreKey
from repro.testing import faults
from repro.testing.faults import STORE_STAGES, FaultPlan, FaultRule

#: One point per ``simulate_batch`` group: the batch heartbeats between.
POINTS = [
    {"arch": "qla", "factory_area": 100.0},
    {"arch": "cqla", "factory_area": 100.0},
    {"arch": "multiplexed", "factory_area": 100.0},
    {"zero_rate": 5.0},
]
#: A point only the dead owner ever stored.
DEAD_POINT = {"arch": "qla", "factory_area": 300.0}
#: The child's lease TTL: short, so a slowed batch heartbeats.
CHILD_TTL = 0.2
KILLED = 17


def _evaluator(root, lease_ttl=DEFAULT_LEASE_TTL):
    return Evaluator(
        kernel="qrca", width=8, store=ResultStore(root, lease_ttl=lease_ttl)
    )


def _keys(evaluator, points):
    return [
        StoreKey.of(evaluator._store_key(evaluator.canonicalize(point)))
        for point in points
    ]


def _age_tokens(root):
    long_ago = time.time() - 2 * DEFAULT_LEASE_TTL
    for token in (root / "owners").glob("*.token"):
        os.utime(token, (long_ago, long_ago))  # and every lease linking it


def _session(root, stage, match):
    faults.arm(FaultPlan([
        FaultRule(mode="exit", stage=stage, match=match, exit_code=KILLED),
        FaultRule(mode="hang", stage="evaluate", seconds=2 * CHILD_TTL / 4),
    ]))
    evaluator = _evaluator(root, CHILD_TTL)
    evaluator.evaluate(POINTS)
    evaluator.store.fsck(remove=True)
    os._exit(0)


@pytest.fixture(scope="module")
def cold(tmp_path_factory):
    """Unfaulted results and every key's record, from a cold store."""
    root = tmp_path_factory.mktemp("cold")
    evaluator = _evaluator(root)
    results = [e.result for e in evaluator.evaluate(POINTS + [DEAD_POINT])]
    keys = _keys(evaluator, POINTS + [DEAD_POINT])
    records = {key.digest: evaluator.store.get(key) for key in keys}
    return results[: len(POINTS)], records


def _setup(root, append_log):
    """A dead owner: a stale lease on the first point and on its own
    point, whose record it stored; and damaged bytes in the log."""
    dead = _evaluator(root)
    dead_key, first_key = _keys(dead, [DEAD_POINT, POINTS[0]])
    dead.evaluate([DEAD_POINT])
    assert dead.store.claim(first_key) and dead.store.claim(dead_key)
    append_log(root, b"damaged\n")
    _age_tokens(root)


def _assert_cold_or_missing(root, keys, records):
    store = ResultStore(root)
    for key in keys:
        assert store.get(key) in (None, records[key.digest])
    assert all(r == records[StoreKey.of(r["key"]).digest]
               for r in store.records())


#: Each stage's first call, and one append in the middle of the batch.
KILLS = [(stage, {}) for stage in ("store_get", "store_put") + STORE_STAGES] + [
    ("log_append", POINTS[2]),
]


@pytest.mark.parametrize(
    "stage, match", KILLS, ids=[f"{s}{'-mid' if m else ''}" for s, m in KILLS]
)
def test_kill_at_every_store_stage(tmp_path, stage, match, cold, append_log):
    results, records = cold
    root = tmp_path / "store"
    _setup(root, append_log)
    keys = _keys(_evaluator(root), POINTS + [DEAD_POINT])

    child = multiprocessing.get_context("spawn").Process(
        target=_session, args=(root, stage, match)
    )
    child.start()
    child.join(timeout=60)
    assert child.exitcode == KILLED, f"the session never reached {stage}"

    _age_tokens(root)
    _assert_cold_or_missing(root, keys, records)
    assert ResultStore(root).fsck().bad <= 1  # the damaged bytes only

    rerun = _evaluator(root)
    assert [e.result for e in rerun.evaluate(POINTS)] == results
    report = rerun.store.fsck(remove=True)
    assert report.bad <= 1
    assert not list((root / "explore").glob("*.lease"))
    # No dead owner's token survives (the re-run made one if it claimed).
    owners = {t.name for t in (root / "owners").iterdir()}
    assert owners <= {rerun.store._token.name}
    again = rerun.store.fsck(remove=True)
    assert (again.bad, again.removed, again.compacted) == (0, 0, False)
    assert not (again.stale_leases or again.stale_tokens or again.legacy)
    fresh = ResultStore(root)
    assert all(fresh.get(key) == records[key.digest] for key in keys)
