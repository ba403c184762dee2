"""The exploration-service client: retrying transport, degrading facade.

Two layers:

* :class:`Client` — a stdlib-only (``http.client``) HTTP client for one
  server. Every request carries a **per-attempt timeout** and an
  optional **per-request deadline** (wall-clock budget covering all
  attempts and the sleeps between them). Failures are classified:

  - *retryable* — connection refused/reset, timeouts, torn bodies
    (``IncompleteRead`` or undecodable JSON), any 5xx: retried up to
    ``retries`` times with full-jitter exponential backoff
    (:class:`repro.util.backoff.Backoff`);
  - *backpressure* — 429: the server shed the request; the client
    honors the ``Retry-After`` hint instead of its own backoff and the
    wait does not burn a retry (bounded by the deadline, so shedding
    can never hang a capped request forever);
  - *terminal* — any other 4xx (a malformed request is a bug, not
    weather): raised immediately as :class:`RequestError`.

  When the budget is exhausted the last failure is wrapped in
  :class:`ServerUnavailable` — the one exception callers need to
  handle.

* :class:`RemoteEvaluator` — an :class:`~repro.explore.evaluator.Evaluator`-
  compatible facade over a :class:`Client` plus a **local fallback
  evaluator against the same result store**. While the server answers,
  batches are served remotely (the server's counter deltas keep
  simulation/cache accounting exact); the first
  :class:`ServerUnavailable` flips the facade into degraded mode — a
  :class:`~repro.explore.errors.ServeDegradedWarning` is emitted and
  every batch from then on evaluates locally. Results are bit-identical
  either way, so an exploration driven through a server that dies
  mid-run completes with exactly the evaluations a cold local run
  produces.
"""

from __future__ import annotations

import datetime
import email.utils
import http.client
import socket
import time
import urllib.parse
import warnings
from collections import Counter
from random import Random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.explore.errors import ServeDegradedWarning, ServeRecoveredWarning
from repro.explore.evaluator import CanonicalPoint, Evaluation, Evaluator
from repro.explore.store import ResultStore
from repro.obs import metrics as _metrics
from repro.serve import protocol
from repro.util.backoff import Backoff


class ServeError(Exception):
    """Base of the client-side failure taxonomy."""


class RequestError(ServeError):
    """The server rejected the request as malformed (4xx; not retried)."""

    def __init__(self, message: str, status: int) -> None:
        super().__init__(message)
        self.status = status


class ServerOverloaded(ServeError):
    """The server shed the request (429); retry after ``retry_after``."""

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class TransportError(ServeError):
    """A retryable transport failure (refused, reset, timeout, 5xx, torn)."""


class ServerUnavailable(ServeError):
    """The retry budget (or deadline) ran out; carries the last failure."""


def _retry_after(headers, default: float = 1.0) -> float:
    """Seconds to wait per a ``Retry-After`` header.

    RFC 7231 allows both forms: delta-seconds (``"2"``) and an HTTP-date
    (``"Fri, 08 Aug 2026 12:00:00 GMT"``). Dates are converted to a
    non-negative delay against the current wall clock; anything
    unparseable falls back to ``default``.
    """
    raw = headers.get("Retry-After")
    if raw is None:
        return default
    try:
        return max(0.0, float(raw))
    except (TypeError, ValueError):
        pass
    try:
        parsed = email.utils.parsedate_to_datetime(str(raw))
    except (TypeError, ValueError):
        return default
    if parsed is None:
        return default
    if parsed.tzinfo is None:  # RFC 7231 dates are GMT
        parsed = parsed.replace(tzinfo=datetime.timezone.utc)
    now = datetime.datetime.now(datetime.timezone.utc)
    return max(0.0, (parsed - now).total_seconds())


class Client:
    """HTTP client for one exploration server.

    Args:
        base_url: e.g. ``http://127.0.0.1:8642``.
        timeout: Per-attempt socket timeout in seconds (connect + read).
        retries: Retryable failures tolerated per request *after* the
            first attempt; ``0`` means fail on the first error.
        deadline: Optional per-request wall-clock budget in seconds
            covering every attempt and backoff sleep.
        backoff: Retry delay policy (default: full jitter, 50 ms base,
            2 s cap).
        rng: Deterministic jitter source for tests.
    """

    def __init__(
        self,
        base_url: str,
        *,
        timeout: float = 30.0,
        retries: int = 5,
        deadline: Optional[float] = None,
        backoff: Optional[Backoff] = None,
        rng: Optional[Random] = None,
    ) -> None:
        parsed = urllib.parse.urlsplit(base_url if "//" in base_url
                                       else f"http://{base_url}")
        if parsed.scheme not in ("http", ""):
            raise ValueError(f"only http:// servers are supported, got {base_url!r}")
        if not parsed.hostname:
            raise ValueError(f"bad server URL {base_url!r}")
        self.host = parsed.hostname
        self.port = parsed.port or 80
        if timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if deadline is not None and deadline <= 0:
            raise ValueError(f"deadline must be positive, got {deadline}")
        self.timeout = timeout
        self.retries = retries
        self.deadline = deadline
        self.backoff = backoff if backoff is not None else Backoff(base=0.05, cap=2.0)
        self._rng = rng

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- transport ------------------------------------------------------

    def _attempt(
        self, method: str, path: str, body: Optional[bytes], timeout: float
    ) -> Tuple[int, bytes, Dict[str, str]]:
        """One HTTP attempt; transport failures raise TransportError."""
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=timeout
        )
        try:
            headers = {"Content-Type": protocol.CONTENT_TYPE_JSON} if body else {}
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            payload = response.read()
            return response.status, payload, dict(response.getheaders())
        except http.client.IncompleteRead as exc:
            raise TransportError(f"torn response body: {exc}") from exc
        except (ConnectionError, http.client.HTTPException) as exc:
            # refused / reset / closed-before-status-line
            raise TransportError(f"{type(exc).__name__}: {exc}") from exc
        except (socket.timeout, TimeoutError) as exc:
            raise TransportError(f"timed out after {timeout:.3g}s") from exc
        except OSError as exc:
            raise TransportError(f"{type(exc).__name__}: {exc}") from exc
        finally:
            connection.close()

    def request(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        deadline: Optional[float] = None,
    ) -> Tuple[int, bytes, Dict[str, str]]:
        """``method path`` with retry/backoff/deadline; returns a 2xx.

        ``deadline`` (seconds, overriding the client default) caps the
        whole exchange. Raises :class:`RequestError` on terminal 4xx and
        :class:`ServerUnavailable` once the budget is exhausted.
        """
        budget = deadline if deadline is not None else self.deadline
        cutoff = None if budget is None else time.monotonic() + budget
        attempt = 0
        failures = 0
        last: Optional[ServeError] = None
        while True:
            attempt += 1
            per_attempt = self.timeout
            if cutoff is not None:
                remaining = cutoff - time.monotonic()
                if remaining <= 0:
                    raise ServerUnavailable(
                        f"deadline ({budget:g}s) exhausted after "
                        f"{attempt - 1} attempt(s); last failure: {last}"
                    ) from last
                per_attempt = min(per_attempt, remaining)
            try:
                status, payload, headers = self._attempt(
                    method, path, body, per_attempt
                )
                if status == 429:
                    raise ServerOverloaded(
                        protocol.error_message(payload),
                        retry_after=_retry_after(headers),
                    )
                if status >= 500:
                    raise TransportError(
                        f"server error {status}: {protocol.error_message(payload)}"
                    )
                if status >= 400:
                    raise RequestError(
                        f"{status}: {protocol.error_message(payload)}", status
                    )
                return status, payload, headers
            except ServerOverloaded as exc:
                # Backpressure, not failure: wait what the server asked
                # (deadline-capped) without burning a retry.
                last = exc
                _metrics.counter(
                    "repro_client_backoffs_total",
                    help="client waits caused by 429 load shedding",
                ).inc()
                wait = exc.retry_after
                if cutoff is not None:
                    remaining = cutoff - time.monotonic()
                    if remaining <= 0:
                        raise ServerUnavailable(
                            f"deadline ({budget:g}s) exhausted while shed: {exc}"
                        ) from exc
                    wait = min(wait, remaining)
                time.sleep(wait)
            except TransportError as exc:
                last = exc
                failures += 1
                if failures > self.retries:
                    raise ServerUnavailable(
                        f"{self.base_url} unavailable after {failures} "
                        f"attempt(s): {exc}"
                    ) from exc
                _metrics.counter(
                    "repro_client_retries_total",
                    help="client request retries after transport failures",
                ).inc()
                self.backoff.sleep(failures, deadline=cutoff, rng=self._rng)

    # -- API ------------------------------------------------------------

    def evaluate(
        self,
        kernel: str,
        width: int,
        points: Sequence[Dict[str, object]],
        deadline: Optional[float] = None,
    ) -> Tuple[List[Evaluation], Dict[str, int]]:
        """Evaluate ``points`` remotely; returns (evaluations, stat deltas)."""
        body = protocol.encode_request(kernel, width, points)
        _, payload, _ = self.request(
            "POST", protocol.EVALUATE_PATH, body=body, deadline=deadline
        )
        try:
            evaluations, stats = protocol.decode_response(payload)
        except protocol.ProtocolError as exc:
            # A complete-but-garbled body got past the transport layer;
            # surface it as unavailability rather than bad data.
            raise ServerUnavailable(f"undecodable response: {exc}") from exc
        if len(evaluations) != len(points):  # as unusable as garbled
            raise ServerUnavailable(
                f"{len(evaluations)} evaluation(s) for {len(points)} point(s)"
            )
        return evaluations, stats

    def health(self) -> bool:
        try:
            status, _, _ = self.request("GET", protocol.HEALTH_PATH)
            return status == 200
        except ServeError:
            return False

    def ready(self) -> bool:
        try:
            status, _, _ = self.request("GET", protocol.READY_PATH)
            return status == 200
        except ServeError:
            return False

    def probe(self, timeout: Optional[float] = None) -> bool:
        """One bare ``/readyz`` attempt — no retries, no backoff.

        The health-probe primitive a :class:`~repro.serve.pool.ReplicaSet`
        sends through a half-open breaker: a single attempt answers
        "can this replica take traffic right now", which retrying would
        only blur.
        """
        try:
            status, _, _ = self._attempt(
                "GET", protocol.READY_PATH, None,
                timeout if timeout is not None else self.timeout,
            )
        except TransportError:
            return False
        return status == 200

    def metrics(self) -> str:
        """The server's Prometheus text (raises ServeError on failure)."""
        _, payload, _ = self.request("GET", protocol.METRICS_PATH)
        return payload.decode("utf-8")


class RemoteEvaluator:
    """Evaluator-compatible facade: remote first, local fallback.

    Drop-in for :func:`repro.explore.engine.explore` through the same
    four names as :class:`~repro.explore.evaluator.Evaluator`.
    ``canonicalize`` and ``label`` are the local fallback's (they are
    pure), so dedupe and journal keys never depend on the server;
    ``stats()`` adds the server's counter deltas to the fallback's.

    The degrade ladder depends on the transport. With a plain
    :class:`Client` the first :class:`ServerUnavailable` flips the
    facade into degraded mode for the rest of the run ("server died").
    With a :class:`~repro.serve.pool.ReplicaSet` — any transport with a
    ``try_recover()`` method — degradation means "fleet died": every
    replica's breaker rejected the request; before each subsequent
    batch the facade asks the transport to probe, and a successful
    ``/readyz`` probe un-degrades the run back to served evaluation.
    Degrade and recover events are mirrored into the global
    ``repro_serve_degraded_total`` / ``repro_serve_recovered_total``
    counters so fleet health is visible in ``/metrics`` and
    ``--metrics`` exports.

    Args:
        client: Transport to the exploration server — a
            :class:`Client`, or a :class:`~repro.serve.pool.ReplicaSet`
            for a fleet with failover.
        kernel/width: Kernel spec (must match what the server will
            analyze — the spec *is* the request).
        store: Local result store for the fallback evaluator; sharing it
            with the server (same cache dir) makes the fallback warm.
        retries: Fallback evaluator retry budget (see
            :class:`Evaluator`).
    """

    def __init__(
        self,
        client: Client,
        *,
        kernel: str,
        width: int,
        store: Optional[ResultStore] = None,
        retries: int = 2,
    ) -> None:
        self.client = client
        self._kernel = kernel
        self._width = width
        self._local = Evaluator(
            kernel=kernel, width=width, store=store, retries=retries
        )
        self.degraded = False
        self.remote_batches = 0
        self.fallback_batches = 0
        self.recoveries = 0
        self._remote_stats: Counter = Counter()

    # -- Evaluator surface ---------------------------------------------

    @property
    def label(self) -> str:
        return self._local.label

    def canonicalize(self, point: Dict[str, object]) -> CanonicalPoint:
        return self._local.canonicalize(point)

    def stats(self) -> Dict[str, int]:
        """Merged health counters (remote deltas + local fallback)."""
        merged = Counter(self._local.stats())
        merged.update(self._remote_stats)
        merged["remote_batches"] = self.remote_batches
        merged["fallback_batches"] = self.fallback_batches
        merged["degraded"] = int(self.degraded)
        merged["recoveries"] = self.recoveries
        return dict(merged)

    def evaluate(self, points: Sequence[Dict[str, object]]) -> List[Evaluation]:
        """Evaluate ``points`` remotely, degrading to local on outage.

        An exhausted retry budget (or a fleet with every breaker open)
        flips the facade into degraded mode: a warning is emitted and
        batches — this one included — run on the local fallback
        evaluator against the configured store. A transport with
        ``try_recover()`` (a :class:`~repro.serve.pool.ReplicaSet`)
        un-degrades the facade as soon as a replica probe succeeds; a
        plain :class:`Client` stays degraded for the rest of the run.
        Either path yields bit-identical evaluations.
        """
        if self.degraded:
            self._maybe_recover()
        if not self.degraded:
            try:
                evaluations, stats = self.client.evaluate(
                    self._kernel, self._width, points
                )
                self._remote_stats.update({
                    name: int(value) for name, value in stats.items()
                    if isinstance(value, (int, float))
                })
                self.remote_batches += 1
                return evaluations
            except ServerUnavailable as exc:
                self.degraded = True
                _metrics.counter(
                    "repro_client_fallbacks_total",
                    help="explorations degraded from served to local evaluation",
                ).inc()
                _metrics.counter(
                    "repro_serve_degraded_total",
                    help="degrade events: served evaluation fell back to local",
                ).inc()
                until = (
                    "until a replica probe succeeds"
                    if hasattr(self.client, "try_recover")
                    else "for the rest of this run"
                )
                warnings.warn(
                    f"exploration server unreachable ({exc}); degrading to "
                    f"local evaluation {until}",
                    ServeDegradedWarning,
                    stacklevel=2,
                )
        self.fallback_batches += 1
        return self._local.evaluate(points)

    def _maybe_recover(self) -> None:
        """Un-degrade when the transport reports a replica came back."""
        recover = getattr(self.client, "try_recover", None)
        if recover is None or not recover():
            return
        self.degraded = False
        self.recoveries += 1
        _metrics.counter(
            "repro_serve_recovered_total",
            help="recover events: degraded evaluation returned to served",
        ).inc()
        warnings.warn(
            "a replica probe succeeded; returning to served evaluation",
            ServeRecoveredWarning,
            stacklevel=3,
        )
