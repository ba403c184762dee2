"""The exploration server: warm evaluators behind a ThreadingHTTPServer.

Stdlib only. One :class:`ExploreService` owns a shared
:class:`~repro.explore.store.ResultStore` and a warm
:class:`~repro.explore.evaluator.Evaluator` per ``(kernel, width)`` —
the kernel is analyzed and compiled once, then every request against it
reuses the hot state, so cache-hit batches answer with zero simulation.
The HTTP front-end (:class:`ExploreServer`) is deliberately thin:

* ``POST /evaluate`` — a design-point batch in, evaluations plus the
  evaluator's counter deltas out (:mod:`repro.serve.protocol`);
* ``GET /healthz`` — liveness (200 while the process can answer);
* ``GET /readyz`` — readiness: 503 while draining, else 200 with the
  in-flight/queue depth;
* ``GET /metrics`` — the process-wide :mod:`repro.obs` registry as
  Prometheus text.

Robustness is the design center:

* **Backpressure, not OOM.** Admission control bounds concurrently
  admitted ``/evaluate`` requests (working + queued) at ``max_queue``;
  the excess is shed immediately with ``429 Too Many Requests`` and a
  ``Retry-After`` hint instead of being buffered without bound.
  Admitted requests serialize on the service's work lock — the
  evaluator itself fans out across its worker processes.
* **Graceful shutdown.** :meth:`ExploreServer.shutdown` flips the
  service into draining (readyz 503, new evaluate requests 503),
  waits for in-flight evaluations to land — their results are
  persisted and their leases released by the evaluator's own batch
  teardown — then force-releases any lease still held and stops the
  listener. A ``kill -9`` instead of a drain leaves leases behind by
  construction; peers reclaim them after the lease TTL.
* **Single-flight coalescing.** Concurrent ``/evaluate`` requests
  whose canonical point sets overlap share one simulation pass per
  point: the first request to claim a point becomes its *owner*, and
  followers wait on the owner's flight instead of queuing a redundant
  evaluation behind the work lock. Bit-identical either way (the store
  would have deduplicated too — coalescing removes the wait, not just
  the work).
* **Injectable failures.** The handler announces the
  ``serve_request`` / ``serve_response`` / ``serve_probe`` fault
  stages (:mod:`repro.testing.faults`), scoped to this process's
  ``replica_id``, so the whole client failure matrix — connection
  refused, response hang, torn body, 5xx burst, a flapping or
  SIGKILL'd fleet member — is exercised by the same harness that
  crash-tests pool workers.
"""

from __future__ import annotations

import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Sequence, Tuple

from repro.explore.evaluator import Evaluation, Evaluator
from repro.explore.store import DEFAULT_LEASE_TTL, ResultStore
from repro.obs import metrics as _metrics
from repro.obs.metrics import REQUEST_SECONDS_EDGES
from repro.obs.trace import span as _span
from repro.serve import protocol
from repro.testing import faults

#: Seconds a shedding response suggests the client wait before retrying.
RETRY_AFTER_SECONDS = 1.0


class _Flight:
    """One in-flight simulation pass for a single canonical point.

    The owning request sets :attr:`result` (or leaves it ``None`` on
    failure) and then :attr:`done`; follower requests wait on
    :attr:`done` instead of re-simulating the point.
    """

    __slots__ = ("done", "result")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.result: Optional[Evaluation] = None


def _count_request(route: str, status: int) -> None:
    _metrics.counter(
        "repro_serve_requests_total",
        help="exploration-server requests by route and status",
        route=route,
        status=str(status),
    ).inc()


class ExploreService:
    """Evaluation backend shared by every request-handler thread.

    Args:
        store: Shared result store (``None`` disables persistence and
            lease coordination — every request simulates).
        workers: Worker processes per evaluator (see :class:`Evaluator`).
        retries: Per-point retry budget forwarded to the evaluators.
        timeout: Per-chunk evaluation timeout forwarded to the evaluators.
        heartbeat_interval: Lease heartbeat interval forwarded to the
            evaluators (must be < the store's ``lease_ttl``).
        max_queue: Most ``/evaluate`` requests admitted at once
            (the one being worked plus the ones queued behind it);
            requests beyond it are shed with 429.
        replica_id: Identity of this serving process in a replica
            fleet; matched against replica-scoped fault rules
            (``repro serve --replica-id``). ``None`` matches only
            unscoped rules.
    """

    def __init__(
        self,
        *,
        store: Optional[ResultStore] = None,
        workers: Optional[int] = None,
        retries: int = 2,
        timeout: Optional[float] = None,
        heartbeat_interval: Optional[float] = None,
        max_queue: int = 8,
        replica_id: Optional[str] = None,
    ) -> None:
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self.store = store
        self._workers = workers
        self._retries = retries
        self._timeout = timeout
        self._heartbeat_interval = heartbeat_interval
        self.max_queue = max_queue
        self.replica_id = replica_id
        self._evaluators: Dict[Tuple[str, int], Evaluator] = {}
        self._evaluators_lock = threading.Lock()
        self._work_lock = threading.Lock()
        self._admission = threading.Condition()
        self._inflight = 0
        self._draining = False
        self._flights: Dict[Tuple[str, int, str], _Flight] = {}
        self._flights_lock = threading.Lock()
        _metrics.counter(
            "repro_serve_shed_total",
            help="evaluate requests shed with 429 (queue full)",
        )
        _metrics.counter(
            "repro_serve_coalesced_total",
            help="points answered from another request's in-flight evaluation",
        )

    # -- admission ------------------------------------------------------

    @property
    def inflight(self) -> int:
        return self._inflight

    @property
    def draining(self) -> bool:
        return self._draining

    def admit(self) -> str:
        """Try to admit one ``/evaluate`` request.

        Returns ``"ok"`` (caller must pair with :meth:`finish`),
        ``"draining"`` (shutting down) or ``"overloaded"`` (queue full —
        shed with 429).
        """
        with self._admission:
            if self._draining:
                return "draining"
            if self._inflight >= self.max_queue:
                _metrics.counter("repro_serve_shed_total").inc()
                return "overloaded"
            self._inflight += 1
            _metrics.gauge(
                "repro_serve_inflight",
                help="admitted evaluate requests currently in flight",
            ).set(self._inflight)
            return "ok"

    def finish(self) -> None:
        with self._admission:
            self._inflight -= 1
            _metrics.gauge("repro_serve_inflight").set(self._inflight)
            self._admission.notify_all()

    def drain(self, timeout: Optional[float] = 30.0) -> bool:
        """Stop admitting work and wait for in-flight requests to land.

        Returns True when the service fully drained within ``timeout``.
        Any lease still held afterwards (a drain timeout cut an
        evaluation short) is force-released so peers need not wait out
        the TTL.
        """
        with self._admission:
            self._draining = True
            deadline = None if timeout is None else time.monotonic() + timeout
            while self._inflight > 0:
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    break
                self._admission.wait(timeout=remaining)
            drained = self._inflight == 0
        for evaluator in self._evaluators.values():
            evaluator.release_leases()
        return drained

    # -- evaluation -----------------------------------------------------

    def evaluator_for(self, kernel: str, width: int) -> Evaluator:
        """The warm evaluator for one kernel spec (created on first use)."""
        key = (kernel, width)
        with self._evaluators_lock:
            evaluator = self._evaluators.get(key)
            if evaluator is None:
                evaluator = Evaluator(
                    kernel=kernel,
                    width=width,
                    workers=self._workers,
                    store=self.store,
                    retries=self._retries,
                    timeout=self._timeout,
                    heartbeat_interval=self._heartbeat_interval,
                )
                self._evaluators[key] = evaluator
            return evaluator

    def _evaluate_serialized(
        self, kernel: str, width: int, points: Sequence[Dict[str, object]]
    ) -> Tuple[List[Evaluation], Dict[str, int]]:
        with self._work_lock:
            evaluator = self.evaluator_for(kernel, width)
            before = evaluator.stats()
            with _span("serve.evaluate", points=len(points)):
                evaluations = evaluator.evaluate(points)
            after = evaluator.stats()
            delta = {name: after[name] - before[name] for name in after}
            return evaluations, delta

    def evaluate(
        self, kernel: str, width: int, points: Sequence[Dict[str, object]]
    ) -> Tuple[List[Evaluation], Dict[str, int]]:
        """Evaluate one admitted batch; returns (evaluations, stat deltas).

        Single-flight: one simulation pass per canonical point across
        all concurrent requests. The simulation itself serializes on the
        work lock (one warm evaluator works at a time; it parallelizes
        internally across worker processes).

        The first request to see a canonical key registers a
        :class:`_Flight` and *owns* that point: it simulates it (with
        everything else it owns, in one serialized pass) and publishes
        the result. Requests that arrive while the flight is open
        *follow* it — they wait on the flight's event without touching
        the work lock, so an overlapping batch costs a wait, not a
        redundant queue slot. A follower whose owner failed re-enters
        here for the stray points and becomes their owner.
        """
        evaluator = self.evaluator_for(kernel, width)
        spec = (kernel, width)
        # May raise ValueError on a malformed point: the caller's 400.
        keys = [evaluator.canonical_key(point) for point in points]

        owned_keys: Dict[str, int] = {}  # canonical key -> first index
        followed: Dict[str, _Flight] = {}
        with self._flights_lock:
            for index, key in enumerate(keys):
                if key in owned_keys or key in followed:
                    continue  # batch-internal duplicate: one flight covers it
                flight = self._flights.get(spec + (key,))
                if flight is not None:
                    followed[key] = flight
                else:
                    self._flights[spec + (key,)] = _Flight()
                    owned_keys[key] = index

        results: Dict[str, Evaluation] = {}
        # Zero-filled so a pure-follower request still reports every
        # counter (with simulations_run == 0, which is the point).
        delta: Dict[str, int] = {name: 0 for name in evaluator.stats()}
        try:
            if owned_keys:
                owned_points = [points[i] for i in owned_keys.values()]
                evaluations, owned_delta = self._evaluate_serialized(
                    kernel, width, owned_points
                )
                for name, value in owned_delta.items():
                    delta[name] = delta.get(name, 0) + value
                for key, evaluation in zip(owned_keys, evaluations):
                    results[key] = evaluation
        finally:
            # Publish before waiting on anyone else's flight (failure
            # publishes result=None), so two requests that own points
            # from each other's batches can never deadlock.
            with self._flights_lock:
                for key in owned_keys:
                    flight = self._flights.pop(spec + (key,), None)
                    if flight is not None:
                        flight.result = results.get(key)
                        flight.done.set()

        coalesced = 0
        for key, flight in followed.items():
            flight.done.wait()
            if flight.result is not None:
                results[key] = flight.result
                coalesced += 1
            # else: the owner failed; fall through to stray recovery
        if coalesced:
            _metrics.counter("repro_serve_coalesced_total").inc(coalesced)

        stray: Dict[str, int] = {}
        for index, key in enumerate(keys):
            if key not in results and key not in stray:
                stray[key] = index
        if stray:
            # The failed flights are gone from the table, so this
            # recursion claims ownership and actually evaluates (or
            # raises the owner's error as our own).
            stray_evals, stray_delta = self.evaluate(
                kernel, width, [points[i] for i in stray.values()]
            )
            for key, evaluation in zip(stray, stray_evals):
                results[key] = evaluation
            for name, value in stray_delta.items():
                delta[name] = delta.get(name, 0) + value

        if coalesced:
            delta["coalesced_points"] = delta.get("coalesced_points", 0) + coalesced
        return [results[key] for key in keys], delta


class _Handler(BaseHTTPRequestHandler):
    """One request; the class is bound to a service by ExploreServer."""

    service: ExploreService  # injected via subclass attribute
    timeout = 60.0  # socket timeout: a stalled peer can't wedge a thread
    server_version = "repro-serve/1"

    # -- plumbing -------------------------------------------------------

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # request logging is metrics' job; stderr stays quiet

    def _send(
        self, status: int, body: bytes, content_type: str = protocol.CONTENT_TYPE_JSON,
        extra_headers: Optional[Dict[str, str]] = None,
        declared_length: Optional[int] = None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header(
            "Content-Length", str(len(body) if declared_length is None else declared_length)
        )
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _refuse(self) -> None:
        """Sever the connection without an HTTP response (refuse fault)."""
        import socket as _socket

        try:
            self.request.shutdown(_socket.SHUT_RDWR)
        except OSError:
            pass
        self.close_connection = True

    # -- routes ---------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        route = self.path.split("?", 1)[0]
        if route == protocol.HEALTH_PATH:
            self._send(200, b'{"status":"ok"}\n')
            _count_request(route, 200)
        elif route == protocol.READY_PATH:
            try:
                faults.check("serve_probe", None, self.service.replica_id)
            except faults.Refused:
                self._refuse()
                return
            except Exception as exc:
                self._send(503, protocol.encode_error(
                    f"{type(exc).__name__}: {exc}"
                ))
                _count_request(route, 503)
                return
            if self.service.draining:
                self._send(503, protocol.encode_error("draining"))
                _count_request(route, 503)
            else:
                body = (
                    '{"status":"ready","inflight":%d,"max_queue":%d}\n'
                    % (self.service.inflight, self.service.max_queue)
                ).encode("utf-8")
                self._send(200, body)
                _count_request(route, 200)
        elif route == protocol.METRICS_PATH:
            body = _metrics.prometheus().encode("utf-8")
            self._send(200, body, content_type=protocol.CONTENT_TYPE_METRICS)
            _count_request(route, 200)
        else:
            self._send(404, protocol.encode_error(f"no such route: {route}"))
            _count_request("other", 404)

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        route = self.path.split("?", 1)[0]
        if route != protocol.EVALUATE_PATH:
            self._send(404, protocol.encode_error(f"no such route: {route}"))
            _count_request("other", 404)
            return
        t0 = time.perf_counter()
        status = self._evaluate()
        _metrics.REGISTRY.histogram(
            "repro_serve_request_seconds",
            REQUEST_SECONDS_EDGES,
            help="evaluate-request latency (seconds)",
        ).observe(time.perf_counter() - t0)
        if status is not None:
            _count_request(route, status)

    def _evaluate(self) -> Optional[int]:
        """Handle one /evaluate request; returns the status sent (None
        when the connection was severed without a response)."""
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length <= 0:
            self._send(411, protocol.encode_error("Content-Length required"))
            return 411
        if length > protocol.MAX_REQUEST_BYTES:
            self._send(413, protocol.encode_error(
                f"request too large ({length} bytes)"
            ))
            return 413
        try:
            body = self.rfile.read(length)
            request = protocol.decode_request(body)
        except protocol.ProtocolError as exc:
            self._send(400, protocol.encode_error(str(exc)))
            return 400
        except OSError:
            return None  # client went away mid-body; nothing to answer
        point0 = request["points"][0] if request["points"] else None
        try:
            faults.check("serve_request", point0, self.service.replica_id)
        except faults.Refused:
            self._refuse()
            return None
        except Exception as exc:
            self._send(500, protocol.encode_error(
                f"{type(exc).__name__}: {exc}"
            ))
            return 500

        slot = self.service.admit()
        if slot == "draining":
            self._send(503, protocol.encode_error("server is draining"),
                       extra_headers={"Retry-After": "5"})
            return 503
        if slot == "overloaded":
            self._send(
                429,
                protocol.encode_error(
                    f"work queue full ({self.service.max_queue} in flight); "
                    "retry later"
                ),
                extra_headers={"Retry-After": f"{RETRY_AFTER_SECONDS:g}"},
            )
            return 429
        try:
            evaluations, stats = self.service.evaluate(
                request["kernel"], request["width"], request["points"]
            )
            payload = protocol.encode_response(evaluations, stats)
        except ValueError as exc:
            # Bad spec (unknown kernel/dimension): the client's fault.
            self._send(400, protocol.encode_error(str(exc)))
            return 400
        except Exception as exc:
            self._send(500, protocol.encode_error(
                f"{type(exc).__name__}: {exc}"
            ))
            return 500
        finally:
            self.service.finish()
        try:
            faults.check("serve_response", point0, self.service.replica_id)
        except faults.Refused:
            self._refuse()
            return None
        # A torn-response fault truncates the bytes on the wire while the
        # declared Content-Length still promises the full body — exactly
        # what a connection cut mid-flight looks like to the client.
        sent = faults.mangle(
            "serve_response", point0, payload.decode("utf-8"),
            self.service.replica_id,
        )
        self._send(
            200, sent.encode("utf-8"), declared_length=len(payload)
        )
        if len(sent.encode("utf-8")) != len(payload):
            self.close_connection = True
        return 200


class ExploreServer:
    """The HTTP listener around an :class:`ExploreService`.

    Binds immediately (``port=0`` picks a free port — see
    :attr:`address`); :meth:`serve_forever` blocks, or
    :meth:`start_background` runs the accept loop in a daemon thread
    (what the tests and the in-process client harness use).
    """

    def __init__(
        self,
        service: ExploreService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        handler = type("BoundHandler", (_Handler,), {"service": service})
        self.httpd = ThreadingHTTPServer((host, port), handler)
        self.httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port) — resolved even when ``port=0``."""
        return self.httpd.server_address[0], self.httpd.server_address[1]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def serve_forever(self) -> None:
        self.httpd.serve_forever(poll_interval=0.1)

    def start_background(self) -> threading.Thread:
        thread = threading.Thread(
            target=self.serve_forever, name="repro-serve", daemon=True
        )
        thread.start()
        self._thread = thread
        return thread

    def shutdown(self, drain_timeout: Optional[float] = 30.0) -> bool:
        """Drain in-flight evaluations, then stop the listener.

        Returns True when the drain completed within ``drain_timeout``
        (leases are force-released either way).
        """
        drained = self.service.drain(drain_timeout)
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        return drained
