"""Unit tests for the exploration server and its client.

One warm in-process server (module scope) backs the happy-path tests;
drain/shutdown behavior gets dedicated short-lived servers so the
shared one stays up.
"""

import http.client
import json

import pytest

from repro.explore import Evaluator, ResultStore, ServeDegradedWarning
from repro.serve import (
    Client,
    ExploreServer,
    ExploreService,
    RemoteEvaluator,
    RequestError,
    ServerUnavailable,
)
from repro.util.backoff import Backoff

POINTS = [
    {"arch": "qla", "factory_area": area}
    for area in (40.0, 80.0, 120.0, 160.0)
]


@pytest.fixture(scope="module")
def reference():
    return Evaluator(kernel="qrca", width=8).evaluate(POINTS)


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    store = ResultStore(tmp_path_factory.mktemp("serve-store"))
    service = ExploreService(store=store, max_queue=4)
    server = ExploreServer(service)
    server.start_background()
    yield server
    server.shutdown(drain_timeout=5.0)


@pytest.fixture
def client(server):
    return Client(server.url, timeout=30.0, retries=2,
                  backoff=Backoff(base=0.0))


def assert_identical(got, ref):
    for have, want in zip(got, ref):
        assert have.ok
        assert have.result == want.result
        assert have.total_area == want.total_area


class TestEvaluate:
    def test_served_evaluations_match_local(self, client, reference):
        evaluations, stats = client.evaluate("qrca", 8, POINTS)
        assert_identical(evaluations, reference)
        assert stats["simulations_run"] + stats["cache_hits"] == len(POINTS)

    def test_warm_second_request_simulates_nothing(self, client, reference):
        client.evaluate("qrca", 8, POINTS)  # warm the store
        evaluations, stats = client.evaluate("qrca", 8, POINTS)
        assert stats["simulations_run"] == 0
        assert stats["cache_hits"] == len(POINTS)
        assert all(e.from_cache for e in evaluations)
        assert_identical(evaluations, reference)

    def test_unknown_kernel_is_terminal_400(self, client):
        with pytest.raises(RequestError) as excinfo:
            client.evaluate("nosuchkernel", 8, POINTS[:1])
        assert excinfo.value.status == 400

    def test_out_of_range_point_is_terminal_400(self, client, out_of_range_point):
        with pytest.raises(RequestError) as excinfo:
            client.evaluate("qrca", 8, [out_of_range_point])
        assert excinfo.value.status == 400

    def test_legacy_engine_field_answered_identically(self, client, reference):
        """An older client's ``"engine": "legacy"`` is ignored: the answer
        is bit-identical to the same request without the field."""
        from repro.serve import protocol

        def post(document):
            _, payload, _ = client.request(
                "POST", protocol.EVALUATE_PATH,
                body=json.dumps(document).encode(),
            )
            return protocol.decode_response(payload)[0]

        plain = {"kernel": "qrca", "width": 8, "points": POINTS}
        legacy = post({**plain, "engine": "legacy"})
        assert legacy == post(plain)
        assert_identical(legacy, reference)


class TestEndpoints:
    def test_healthz(self, client):
        assert client.health()

    def test_readyz_reports_queue(self, server, client):
        status, payload, _ = client.request("GET", "/readyz")
        assert status == 200
        body = json.loads(payload)
        assert body["status"] == "ready"
        assert body["max_queue"] == server.service.max_queue

    def test_metrics_exposes_serve_counters(self, client):
        client.evaluate("qrca", 8, POINTS[:1])
        text = client.metrics()
        assert "repro_serve_requests_total" in text
        assert "repro_serve_request_seconds" in text
        # Prometheus text: every non-comment line is `name{labels} value`.
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            name_part, _, value = line.rpartition(" ")
            assert name_part
            float(value)

    def test_unknown_route_404(self, client):
        with pytest.raises(RequestError) as excinfo:
            client.request("GET", "/nope")
        assert excinfo.value.status == 404
        with pytest.raises(RequestError) as excinfo:
            client.request("POST", "/nope", body=b"{}")
        assert excinfo.value.status == 404

    def test_post_without_body_is_411(self, server):
        connection = http.client.HTTPConnection(*server.address, timeout=10)
        try:
            connection.request("POST", "/evaluate")
            assert connection.getresponse().status == 411
        finally:
            connection.close()

    def test_malformed_json_is_400(self, client):
        with pytest.raises(RequestError) as excinfo:
            client.request("POST", "/evaluate", body=b"{not json")
        assert excinfo.value.status == 400


class TestBackpressure:
    def test_full_queue_sheds_with_retry_after(self, server, client):
        service = server.service
        admitted = 0
        while service.admit() == "ok":
            admitted += 1
        try:
            assert admitted == service.max_queue
            assert service.admit() == "overloaded"
            status, payload, headers = client._attempt(
                "POST", "/evaluate",
                body=b'{"kernel":"qrca","width":8,'
                     b'"points":[{"arch":"qla","factory_area":40.0}]}',
                timeout=10.0,
            )
            assert status == 429
            assert float(headers["Retry-After"]) > 0
            assert "queue full" in json.loads(payload)["error"]
        finally:
            for _ in range(admitted):
                service.finish()

    def test_shed_request_fails_cleanly_at_deadline(self, server):
        service = server.service
        admitted = 0
        while service.admit() == "ok":
            admitted += 1
        try:
            capped = Client(server.url, timeout=5.0, retries=0,
                            deadline=0.3, backoff=Backoff(base=0.0))
            with pytest.raises(ServerUnavailable, match="exhausted"):
                capped.evaluate("qrca", 8, POINTS[:1])
        finally:
            for _ in range(admitted):
                service.finish()


class TestDrainAndShutdown:
    def test_drain_refuses_new_work_and_releases(self, tmp_path):
        store = ResultStore(tmp_path)
        service = ExploreService(store=store)
        server = ExploreServer(service)
        server.start_background()
        client = Client(server.url, timeout=10.0, retries=0,
                        backoff=Backoff(base=0.0))
        client.evaluate("qrca", 8, POINTS[:1])
        assert service.drain(timeout=5.0)
        assert not client.ready()  # readyz 503 while draining
        assert client.health()  # liveness stays green
        status, _, headers = client._attempt(
            "POST", "/evaluate",
            body=b'{"kernel":"qrca","width":8,'
                 b'"points":[{"arch":"qla","factory_area":40.0}]}',
            timeout=10.0,
        )
        assert status == 503
        assert "Retry-After" in headers
        assert server.shutdown(drain_timeout=1.0)
        assert list(store.leases()) == []

    def test_max_queue_validated(self):
        with pytest.raises(ValueError, match="max_queue"):
            ExploreService(max_queue=0)

    def test_retries_validated(self):
        with pytest.raises(ValueError, match="retries"):
            ExploreService(retries=-1)


class TestRemoteEvaluator:
    def test_explore_through_server_matches_local(self, server, tmp_path):
        from repro.explore import (
            AdcrObjective, GridStrategy, architecture_space, explore,
        )
        from repro.kernels import analyze_kernel

        analysis = analyze_kernel("qrca", 8)
        space = architecture_space(analysis)
        budget = min(8, space.grid_size())

        local = explore(
            space, AdcrObjective(), GridStrategy(space),
            evaluator=Evaluator(kernel="qrca", width=8,
                                store=ResultStore(tmp_path / "local")),
            budget=budget,
        )
        remote_eval = RemoteEvaluator(
            Client(server.url, timeout=30.0, retries=2,
                   backoff=Backoff(base=0.0)),
            kernel="qrca", width=8,
        )
        remote = explore(
            space, AdcrObjective(), GridStrategy(space),
            evaluator=remote_eval, budget=budget,
        )
        assert not remote_eval.degraded
        assert remote_eval.remote_batches > 0
        assert remote.best_score == local.best_score
        assert remote.best.point == local.best.point
        assert remote.best.result == local.best.result

    def test_dead_server_degrades_to_local(self, reference, tmp_path):
        # A port from the ephemeral range with no listener: every
        # connect is refused, so the retry budget drains instantly.
        dead = Client("http://127.0.0.1:9", timeout=0.5, retries=1,
                      backoff=Backoff(base=0.0))
        evaluator = RemoteEvaluator(
            dead, kernel="qrca", width=8, store=ResultStore(tmp_path)
        )
        with pytest.warns(ServeDegradedWarning, match="degrading to"):
            evaluations = evaluator.evaluate(POINTS)
        assert evaluator.degraded
        assert evaluator.fallback_batches == 1
        assert_identical(evaluations, reference)
        # Degraded is sticky: the next batch goes straight to local.
        evaluator.evaluate(POINTS)
        assert evaluator.fallback_batches == 2
        stats = evaluator.stats()
        assert stats["degraded"] == 1
        assert stats["remote_batches"] == 0

    def test_stats_merge_remote_deltas(self, server, tmp_path):
        evaluator = RemoteEvaluator(
            Client(server.url, timeout=30.0, retries=2,
                   backoff=Backoff(base=0.0)),
            kernel="qrca", width=8, store=ResultStore(tmp_path),
        )
        evaluator.evaluate(POINTS[:2])
        stats = evaluator.stats()
        assert stats["simulations_run"] + stats["cache_hits"] == 2
        assert stats["remote_batches"] == 1
        # Local and server-free:
        assert evaluator.canonicalize(POINTS[0]).key
        assert evaluator.label == "qrca-8"

    def test_short_response_degrades_to_local(self, server, reference, tmp_path):
        """A response one evaluation short is unavailability, not data: a
        misaligned round must never reach the exploration."""
        from repro.serve import ReplicaSet, protocol

        class ShortAnswer(Client):
            def _attempt(self, method, path, body, timeout):
                count = len(json.loads(body)["points"])
                return 200, protocol.encode_response(
                    reference[: count - 1], {}
                ), {}

        client = ShortAnswer("http://127.0.0.1:9", retries=0)
        with pytest.raises(ServerUnavailable, match="3 evaluation"):
            client.evaluate("qrca", 8, POINTS)
        evaluator = RemoteEvaluator(
            client, kernel="qrca", width=8, store=ResultStore(tmp_path)
        )
        with pytest.warns(ServeDegradedWarning, match="degrading to"):
            evaluations = evaluator.evaluate(POINTS)
        assert evaluator.degraded
        assert len(evaluations) == len(POINTS)
        assert_identical(evaluations, reference)
        # A fleet fails over from the short replica to a whole answer.
        pool = ReplicaSet([client, Client(server.url, retries=0)])
        evaluations, _ = pool.evaluate("qrca", 8, POINTS)
        assert len(evaluations) == len(POINTS)
        assert_identical(evaluations, reference)

    @pytest.mark.parametrize("reachable", [True, False],
                             ids=["served", "degraded"])
    def test_explore_canonicalizes_each_proposed_point_once(
        self, server, tmp_path, reachable, canonicalize_counter
    ):
        """On the client side a served (or degraded) exploration
        canonicalizes each proposed point once."""
        import warnings

        from repro.explore import (
            AdaptiveStrategy, AdcrObjective, architecture_space, explore,
        )
        from repro.kernels import analyze_kernel

        space = architecture_space(analyze_kernel("qrca", 8))
        evaluator = RemoteEvaluator(
            Client(server.url if reachable else "http://127.0.0.1:9",
                   timeout=30.0, retries=0, backoff=Backoff(base=0.0)),
            kernel="qrca", width=8, store=ResultStore(tmp_path),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ServeDegradedWarning)
            result = explore(
                space, AdcrObjective(),
                canonicalize_counter.watch(AdaptiveStrategy(space, seed=1)),
                evaluator=evaluator, budget=24,
            )
        assert evaluator.degraded is not reachable
        assert result.evaluated == 24
        assert canonicalize_counter.proposed > result.evaluated
        assert canonicalize_counter.calls == canonicalize_counter.proposed


class TestClientValidation:
    def test_bad_url_rejected(self):
        with pytest.raises(ValueError, match="URL"):
            Client("http://")

    def test_https_rejected(self):
        with pytest.raises(ValueError, match="http"):
            Client("https://example.com")

    def test_bare_host_port_accepted(self):
        client = Client("127.0.0.1:8642")
        assert client.base_url == "http://127.0.0.1:8642"

    @pytest.mark.parametrize(
        "kwargs", [{"timeout": 0}, {"retries": -1}, {"deadline": 0.0}]
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Client("http://127.0.0.1:1", **kwargs)


class TestOverlappingRequests:
    """Concurrent requests that share points: the work lock serializes
    them, so with a store each distinct point is simulated once."""

    def test_duplicate_points_in_one_batch_simulate_once(self, tmp_path):
        service = ExploreService(store=ResultStore(tmp_path / "store"))
        point = dict(POINTS[2])
        evaluations, delta = service.evaluate(
            "qrca", 8, [point, dict(point)]
        )
        assert len(evaluations) == 2
        assert evaluations[0].result == evaluations[1].result
        assert delta["simulations_run"] == 1
        assert delta["dedup_hits"] == 1

    @staticmethod
    def _race(service, batches):
        """Send ``batches`` to ``service`` from one thread each, released
        together; returns each batch's stat deltas."""
        import threading

        barrier = threading.Barrier(len(batches))
        deltas = [None] * len(batches)

        def send(index):
            barrier.wait(timeout=30)
            _, deltas[index] = service.evaluate("qrca", 8, batches[index])

        threads = [
            threading.Thread(target=send, args=(i,)) for i in range(len(batches))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        return deltas

    def test_overlapping_batches_simulate_each_point_once(self, tmp_path):
        batches = [POINTS[:3], POINTS[1:]]  # two points in common
        hits = set()
        for repeat in range(5):
            store = ResultStore(tmp_path / f"store-{repeat}")
            deltas = self._race(ExploreService(store=store), batches)
            assert sum(d["simulations_run"] for d in deltas) == len(POINTS)
            hits.add(sum(d["cache_hits"] for d in deltas))
        # Whichever request takes the work lock first, the other reads
        # the two shared points from the store.
        assert hits == {2}

    def test_without_a_store_every_request_simulates(self):
        batches = [POINTS[:3], POINTS[1:]]
        deltas = self._race(ExploreService(), batches)
        assert [d["simulations_run"] for d in deltas] == [3, 3]
