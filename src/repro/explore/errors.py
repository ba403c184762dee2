"""Failure taxonomy for the exploration subsystem.

Exploration is a long-running workload, often sharing one store with
other processes; the failure modes it must survive are first-class
types here rather than bare ``RuntimeError`` strings.

:class:`LeaseHeld` is raised when a cooperative claim on a store key is
held by another live evaluator (see :meth:`ResultStore.hold`). A design
point that keeps failing is not raised at all: the evaluator quarantines
it and returns a structured failed ``Evaluation``.

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

from typing import Optional


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
