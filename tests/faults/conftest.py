"""Shared fixtures for the fault-injection suite.

Plans are armed through the environment (``REPRO_FAULTS`` /
``REPRO_FAULTS_DIR``) so they reach child processes; ``monkeypatch``
guarantees disarm even when a test fails.
"""

import pytest

from repro.explore import Evaluator
from repro.testing.faults import FaultPlan

#: A homogeneous QLA slice of the design space: batches through the
#: point-batched engine as one group.
POINTS = [
    {"arch": "qla", "factory_area": area}
    for area in (40.0, 80.0, 120.0, 160.0, 200.0, 240.0)
]


@pytest.fixture
def arm(monkeypatch, tmp_path):
    """Arm a cross-process fault plan; disarmed automatically."""

    def _arm(rules):
        state = tmp_path / "fault-state"
        state.mkdir(exist_ok=True)
        plan = FaultPlan(rules, state_dir=str(state))
        monkeypatch.setenv("REPRO_FAULTS", plan.to_json())
        monkeypatch.setenv("REPRO_FAULTS_DIR", str(state))
        return plan

    return _arm


@pytest.fixture(scope="session")
def points():
    """The design points under test (copies: tests may not mutate them)."""
    return [dict(point) for point in POINTS]


@pytest.fixture(scope="session")
def reference():
    """Fault-free serial evaluations of POINTS — the bit-identity oracle."""
    return Evaluator(kernel="qrca", width=8).evaluate(POINTS)


def _assert_identical(got, ref):
    """Successful evaluations must match the fault-free run exactly."""
    for have, want in zip(got, ref):
        assert have.ok
        assert have.result == want.result
        assert have.total_area == want.total_area


@pytest.fixture(scope="session")
def assert_identical():
    return _assert_identical
