"""In-process failure isolation: a poisoned point is retried, then
quarantined, without sinking its batch-mates.

Failures are injected by the ``evaluate`` fault hook; every store miss
is evaluated in-process, so a raising point is the failure to survive.
"""

from repro.explore import Evaluator
from repro.testing.faults import FaultRule


class TestSerialIsolation:
    def test_serial_poison_does_not_sink_batch_mates(self, arm, points, reference):
        """A raising point is isolated point-by-point and only the
        offender is quarantined."""
        arm([FaultRule(mode="raise", stage="evaluate",
                       match={"factory_area": 200.0}, times=None,
                       message="injected poison")])
        evaluator = Evaluator(
            kernel="qrca", width=8, retries=1, retry_backoff=0.0
        )
        got = evaluator.evaluate(points)
        assert not got[4].ok
        assert "injected poison" in got[4].error
        for have, want in zip(got, reference):
            if have.ok:
                assert have.result == want.result
        assert evaluator.stats()["quarantined"] == 1

    def test_transient_failure_retried_to_success(
        self, arm, points, reference, assert_identical
    ):
        """A failure that clears after one retry costs a retry, not a
        quarantine."""
        arm([FaultRule(mode="raise", stage="evaluate",
                       match={"factory_area": 40.0}, times=1)])
        evaluator = Evaluator(
            kernel="qrca", width=8, retries=2, retry_backoff=0.0
        )
        got = evaluator.evaluate(points)
        assert_identical(got, reference)
        stats = evaluator.stats()
        assert stats["retries"] >= 1
        assert stats["quarantined"] == 0
