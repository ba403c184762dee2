"""repro.serve — the design space as a crash-tolerant network service.

The ROADMAP's "many evaluators, one store" story, completed over HTTP:
``repro serve`` exposes warm :class:`~repro.explore.evaluator.Evaluator`
instances behind a stdlib ``ThreadingHTTPServer``
(:class:`ExploreServer` / :class:`ExploreService`), and
:class:`Client` / :class:`RemoteEvaluator` let any exploration run
against it — with per-request deadlines, full-jitter retry, 429
backpressure handling, and graceful degradation to local evaluation
when the server stays unreachable. Served and local evaluations are
bit-identical; the shared content-addressed store plus the lease
protocol keep N clients from ever simulating the same point twice.

A fleet of replicas is one step up: point N ``repro serve`` processes
at one ``--cache-dir`` and hand :class:`ReplicaSet` the URL list — it
adds per-replica circuit breakers, failover with deadline propagation,
optional hedged requests, and ``/readyz`` probes that un-degrade a
fallen-back exploration when a replica returns
(:mod:`repro.serve.pool`). Within one replica, the work lock
serializes overlapping requests, so a point one request simulated is a
store hit for the next.

Replica-set quickstart::

    # terminals 1 and 2 (one shared store)
    python -m repro serve --port 8642 --cache-dir .repro_cache
    python -m repro serve --port 8643 --cache-dir .repro_cache

    # terminal 3: failover client over both replicas
    python -m repro explore qcla-32 \\
        --server http://127.0.0.1:8642 --server http://127.0.0.1:8643

See the README "Serving" section for the endpoint table and the
failure-mode matrix.
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".client": (
        "Client", "RemoteEvaluator", "RequestError", "ServeError",
        "ServerOverloaded", "ServerUnavailable", "TransportError",
    ),
    ".pool": ("AllReplicasUnavailable", "CircuitBreaker", "ReplicaSet"),
    ".protocol": (
        "EVALUATE_PATH", "HEALTH_PATH", "METRICS_PATH", "READY_PATH",
        "ProtocolError",
    ),
    ".server": ("ExploreServer", "ExploreService"),
})
