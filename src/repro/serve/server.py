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
  Admitted requests serialize on the service's work lock; for
  evaluation in parallel processes, run several replicas
  (:class:`~repro.serve.pool.ReplicaSet`) over one store.
* **Graceful shutdown.** :meth:`ExploreServer.shutdown` flips the
  service into draining (readyz 503, new evaluate requests 503),
  waits for in-flight evaluations to land — their results are
  persisted and their leases released by the evaluator's own batch
  teardown — then force-releases any lease still held and stops the
  listener. A ``kill -9`` instead of a drain leaves leases behind by
  construction; peers reclaim them after the lease TTL.
* **One simulation per point.** Concurrent ``/evaluate`` requests
  whose point sets overlap simulate each shared point once: the work
  lock serializes them, so the later request reads the point the
  earlier one just stored as a cache hit. Across replicas (and a
  client's hedged duplicates) the store's lease protocol arbitrates.
  Without a store every request simulates.
* **Injectable failures.** The handler announces the
  ``serve_request`` / ``serve_response`` / ``serve_probe`` fault
  stages (:mod:`repro.testing.faults`), scoped to this process's
  ``replica_id``, so the whole client failure matrix — connection
  refused, response hang, torn body, 5xx burst, a flapping or
  SIGKILL'd fleet member — is exercised by the same harness that
  poisons and hangs evaluations.
"""

from __future__ import annotations

import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Sequence, Tuple

from repro.explore.evaluator import Evaluation, Evaluator
from repro.explore.store import ResultStore
from repro.obs import metrics as _metrics
from repro.obs.metrics import REQUEST_SECONDS_EDGES
from repro.obs.trace import span as _span
from repro.serve import protocol
from repro.testing import faults

#: Seconds a shedding response suggests the client wait before retrying.
RETRY_AFTER_SECONDS = 1.0


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
        retries: Per-point retry budget forwarded to the evaluators.
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
        retries: int = 2,
        max_queue: int = 8,
        replica_id: Optional[str] = None,
    ) -> None:
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self.store = store
        self._retries = retries
        self.max_queue = max_queue
        self.replica_id = replica_id
        self._evaluators: Dict[Tuple[str, int], Evaluator] = {}
        self._evaluators_lock = threading.Lock()
        self._work_lock = threading.Lock()
        self._admission = threading.Condition()
        self._inflight = 0
        self._draining = False
        _metrics.counter(
            "repro_serve_shed_total",
            help="evaluate requests shed with 429 (queue full)",
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
                    store=self.store,
                    retries=self._retries,
                )
                self._evaluators[key] = evaluator
            return evaluator

    def evaluate(
        self, kernel: str, width: int, points: Sequence[Dict[str, object]]
    ) -> Tuple[List[Evaluation], Dict[str, int]]:
        """Evaluate one admitted batch; returns (evaluations, stat deltas).

        Serialized on the work lock: one warm evaluator works at a time,
        so a point an overlapping request has just simulated is a store
        hit here, and a point a peer replica is simulating is awaited on
        its lease. Raises ValueError on an unknown spec or a malformed
        point (the caller's 400).
        """
        with self._work_lock:
            evaluator = self.evaluator_for(kernel, width)
            before = evaluator.stats()
            with _span("serve.evaluate", points=len(points)):
                evaluations = evaluator.evaluate(points)
            after = evaluator.stats()
            return evaluations, {name: after[name] - before[name] for name in after}


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
