"""Failure taxonomy for the exploration subsystem.

Exploration is a long-running workload, often sharing one store with
other processes; the failure modes it must survive are first-class
types here rather than bare ``RuntimeError`` strings:

* :class:`EvaluationFailed` — a design point could not be evaluated
  (the root of the taxonomy; carries the canonical point);
* :class:`PoisonPoint` — one design point failed repeatedly after
  its batch was split point by point; the evaluator quarantines it and
  returns a structured failed ``Evaluation`` instead of raising;
* :class:`LeaseHeld` — a cooperative claim on a store key is held by
  another live evaluator (see :meth:`ResultStore.hold`).

:class:`StoreDegradedWarning` is the warning category emitted when the
result store cannot persist an evaluation (``ENOSPC``, read-only cache
directory, injected I/O faults): the exploration continues with
in-memory results rather than crashing hours into a sweep.
:class:`ServeDegradedWarning` is its network sibling, emitted when a
:class:`~repro.serve.client.RemoteEvaluator` exhausts its retry budget
against an exploration server (or a whole replica fleet) and falls back
to local evaluation — the run completes (bit-identically) instead of
dying with the server. :class:`ServeRecoveredWarning` announces the
reverse transition: a replica probe succeeded and evaluation returned
to the fleet.
"""

from __future__ import annotations

from typing import Dict, Optional


class EvaluationFailed(Exception):
    """A design point could not be evaluated.

    Attributes:
        point: The canonical design point, when known.
    """

    def __init__(self, message: str, point: Optional[Dict] = None) -> None:
        super().__init__(message)
        self.point = dict(point) if point is not None else None


class PoisonPoint(EvaluationFailed):
    """A point that keeps failing after retries; quarantined."""


class LeaseHeld(Exception):
    """Another evaluator holds the lease on this store key."""

    def __init__(self, message: str, owner: Optional[str] = None) -> None:
        super().__init__(message)
        self.owner = owner


class StoreDegradedWarning(UserWarning):
    """The result store could not persist/read an entry and degraded."""


class ServeDegradedWarning(UserWarning):
    """The exploration server became unreachable; evaluation went local."""


class ServeRecoveredWarning(UserWarning):
    """A replica probe succeeded; evaluation returned to the fleet."""
