"""Fault-injection harness for the exploration robustness suite.

The production code calls two tiny hooks at its failure-prone seams:

* :func:`check(stage, point)` — may kill the process, sleep, or raise,
  according to the armed :class:`FaultPlan`;
* :func:`mangle(stage, point, payload)` — may corrupt a payload about
  to be written (torn-write simulation).

Both are no-ops (a module-global ``is None`` test) unless a plan is
armed, so the hooks cost nothing in normal runs.

A plan can be armed two ways:

* **monkeypatch** — ``faults.arm(plan)`` (or ``monkeypatch.setattr``
  on :data:`PLAN`) for in-process faults such as store I/O errors;
* **environment** — ``REPRO_FAULTS`` holds the plan as JSON and
  ``REPRO_FAULTS_DIR`` a scratch directory for cross-process trigger
  accounting. Child processes (``repro serve`` replicas, concurrent
  evaluators) inherit the environment, so plans reach them without any
  pickling support — which is the point: a replica can ``os._exit``
  mid-request exactly as a SIGKILL'd or OOM-killed process would.

Fire budgets (``times``) are enforced with ``O_CREAT | O_EXCL`` slot
files under the state directory, so "kill the first replica that sees
this request, then let the retry succeed" works even when every firing
happens in a different process.

Failure modes (:class:`FaultRule.mode`):

``exit``
    ``os._exit(exit_code)`` — an uncatchable process death; a client
    of a killed replica sees its connection drop.
``raise``
    Raise ``exc`` (a builtin exception name, default ``RuntimeError``)
    — a poisoned design point or failing store I/O. At the
    ``serve_request`` stage the server maps it to an HTTP 500, so
    ``times=N`` makes an N-deep **5xx burst**.
``hang``
    ``time.sleep(seconds)`` — a slow evaluation (lease-heartbeat and
    overlap paths), or at the serve stages a server that accepts the connection
    and then goes silent (client read-timeout path).
``torn``
    Truncate the payload at :func:`mangle` call sites — a torn store
    write that must read back as a cache miss, never as data; at the
    ``serve_response`` stage, a response body cut off mid-flight that
    the client must treat as retryable, never as data.
``refuse``
    Raise :class:`Refused`, which the serving layer catches and answers
    by severing the connection without any HTTP response — what a
    connection refused/reset by a dead or restarting server looks like
    from the client.

The network fault plans (``serve_request`` / ``serve_response`` stages)
arm through the same environment variables as the evaluation plans,
so the whole client failure matrix — refused, hang, torn body, 5xx
burst — is driven by the same harness that poisons design points.
"""

from __future__ import annotations

import builtins
import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

ENV_PLAN = "REPRO_FAULTS"
ENV_STATE = "REPRO_FAULTS_DIR"

#: The result store's syscalls, one stage before each (see
#: :mod:`repro.explore.store`): opening the log and a put's frame append; a
#: claim's lease link, token refresh, heartbeat and release; a stale
#: lease's reclaim link and rename; ``fsck --remove``'s unlinks of
#: leases, tokens and legacy files, and its compacted write and rename.
STORE_STAGES = (
    "log_open", "log_append", "token_refresh", "lease_link",
    "lease_heartbeat", "lease_release", "reclaim_link", "reclaim_replace",
    "unlink", "compact_write", "compact_rename",
)

#: Stages the production hooks announce. The ``serve_*`` trio are the
#: exploration server's seams: ``serve_request`` fires after a request
#: is parsed (refuse / hang / 5xx), ``serve_response`` just before the
#: body is written (hang / torn), and ``serve_probe`` guards ``/readyz``
#: so replica health probes can be failed independently of evaluation
#: traffic (flapping-replica plans).
STAGES = (
    "evaluate", "store_put", "store_get",
    "serve_request", "serve_response", "serve_probe",
) + STORE_STAGES


class Refused(Exception):
    """A ``refuse`` rule fired: sever the connection, send no response."""


@dataclass
class FaultRule:
    """One injectable failure.

    Args:
        mode: ``"exit"``, ``"raise"``, ``"hang"``, ``"torn"`` or
            ``"refuse"``.
        stage: Hook site the rule listens on (see :data:`STAGES`).
        match: Point items that must all be present for the rule to
            fire; ``{}`` matches every point (and ``None`` points).
        replica: Replica identity the rule is scoped to (the serving
            process's ``--replica-id``); ``None`` matches every replica.
            One plan shared by a whole fleet can then take down exactly
            one member — kill-one, flapping and slow-replica plans.
        times: Maximum number of firings (across all processes when a
            state directory is armed); ``None`` means unlimited.
        seconds: Sleep duration for ``hang``.
        exc: Builtin exception name for ``raise`` (e.g. ``"OSError"``).
        message: Exception message for ``raise``.
        exit_code: Process exit status for ``exit``.
    """

    mode: str
    stage: str = "evaluate"
    match: Dict[str, object] = field(default_factory=dict)
    replica: Optional[str] = None
    times: Optional[int] = 1
    seconds: float = 0.0
    exc: str = "RuntimeError"
    message: str = "injected fault"
    exit_code: int = 17

    def matches(
        self, stage: str, point: Optional[Dict],
        replica: Optional[str] = None,
    ) -> bool:
        if stage != self.stage:
            return False
        if self.replica is not None and replica != self.replica:
            return False
        if not self.match:
            return True
        if point is None:
            return False
        return all(point.get(k) == v for k, v in self.match.items())

    def to_dict(self) -> Dict[str, object]:
        return {
            "mode": self.mode,
            "stage": self.stage,
            "match": self.match,
            "replica": self.replica,
            "times": self.times,
            "seconds": self.seconds,
            "exc": self.exc,
            "message": self.message,
            "exit_code": self.exit_code,
        }

    @classmethod
    def from_dict(cls, raw: Dict[str, object]) -> "FaultRule":
        return cls(**raw)


@dataclass
class FaultPlan:
    """An ordered set of fault rules plus trigger accounting."""

    rules: List[FaultRule]
    state_dir: Optional[str] = None
    _local_counts: Dict[int, int] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps([rule.to_dict() for rule in self.rules])

    @classmethod
    def from_json(cls, payload: str, state_dir: Optional[str]) -> "FaultPlan":
        return cls(
            rules=[FaultRule.from_dict(raw) for raw in json.loads(payload)],
            state_dir=state_dir,
        )

    # -- trigger accounting -------------------------------------------

    def _claim(self, index: int, rule: FaultRule) -> bool:
        """Atomically claim one firing slot for ``rule``; False if spent."""
        if rule.times is None:
            return True
        if self.state_dir is None:
            fired = self._local_counts.get(index, 0)
            if fired >= rule.times:
                return False
            self._local_counts[index] = fired + 1
            return True
        for slot in range(rule.times):
            path = os.path.join(self.state_dir, f"rule{index}-slot{slot}")
            try:
                os.close(os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
                return True
            except FileExistsError:
                continue
            except OSError:
                return False
        return False


#: Monkeypatch hook: assign a FaultPlan here (or via :func:`arm`) to
#: inject faults in-process without touching the environment.
PLAN: Optional[FaultPlan] = None

_env_cache: Tuple[Optional[str], Optional[FaultPlan]] = (None, None)


def arm(plan: Optional[FaultPlan]) -> None:
    """Install ``plan`` process-locally (``None`` disarms)."""
    global PLAN
    PLAN = plan


def active_plan() -> Optional[FaultPlan]:
    """The armed plan: :data:`PLAN` if set, else the environment's."""
    if PLAN is not None:
        return PLAN
    global _env_cache
    payload = os.environ.get(ENV_PLAN)
    if payload is None:
        return None
    if _env_cache[0] != payload:
        _env_cache = (
            payload,
            FaultPlan.from_json(payload, os.environ.get(ENV_STATE)),
        )
    return _env_cache[1]


def _fire(rule: FaultRule) -> None:
    if rule.mode == "exit":
        os._exit(rule.exit_code)
    if rule.mode == "refuse":
        raise Refused(rule.message)
    if rule.mode == "hang":
        time.sleep(rule.seconds)
        return
    if rule.mode == "raise":
        exc_type = getattr(builtins, rule.exc, RuntimeError)
        if not (isinstance(exc_type, type) and issubclass(exc_type, BaseException)):
            exc_type = RuntimeError
        raise exc_type(rule.message)
    if rule.mode == "torn":  # only meaningful at mangle() sites
        return
    raise ValueError(f"unknown fault mode {rule.mode!r}")


def check(
    stage: str, point: Optional[Dict] = None,
    replica: Optional[str] = None,
) -> None:
    """Production hook: fire any armed rule matching (stage, point)."""
    plan = active_plan()
    if plan is None:
        return
    for index, rule in enumerate(plan.rules):
        if rule.mode == "torn":
            continue
        if rule.matches(stage, point, replica) and plan._claim(index, rule):
            _fire(rule)


def mangle(
    stage: str, point: Optional[Dict], payload: str,
    replica: Optional[str] = None,
) -> str:
    """Production hook: corrupt ``payload`` if a torn-write rule fires."""
    plan = active_plan()
    if plan is None:
        return payload
    for index, rule in enumerate(plan.rules):
        if rule.mode != "torn":
            continue
        if rule.matches(stage, point, replica) and plan._claim(index, rule):
            return payload[: max(1, len(payload) // 2)]
    return payload


def replica_plan(
    kind: str,
    replica: Optional[str] = None,
    *,
    times: Optional[int] = None,
    seconds: float = 1.0,
) -> FaultPlan:
    """A canned replica-scoped fault plan for fleet tests.

    Args:
        kind: ``"kill-one"`` (the targeted replica ``os._exit``\\ s on
            its next evaluate request — a SIGKILL mid-explore),
            ``"flapping"`` (it refuses both evaluate requests and
            ``/readyz`` probes, so breakers open and half-open probes
            fail), or ``"slow-replica"`` (its responses hang for
            ``seconds`` — the hedged-request scenario).
        replica: Replica identity to scope the rules to (``None`` hits
            every replica — only sensible for single-replica tests).
        times: Fire budget per rule; defaults to 1 for ``kill-one`` and
            unlimited for the others.
        seconds: Hang duration for ``slow-replica``.
    """
    if kind == "kill-one":
        rules = [FaultRule(
            mode="exit", stage="serve_request", replica=replica,
            times=1 if times is None else times,
        )]
    elif kind == "flapping":
        rules = [
            FaultRule(mode="refuse", stage="serve_request",
                      replica=replica, times=times),
            FaultRule(mode="refuse", stage="serve_probe",
                      replica=replica, times=times),
        ]
    elif kind == "slow-replica":
        rules = [FaultRule(
            mode="hang", stage="serve_request", replica=replica,
            times=times, seconds=seconds,
        )]
    else:
        raise ValueError(f"unknown replica plan kind {kind!r}")
    return FaultPlan(rules=rules)
