"""Network fault plans against the exploration server.

The same environment-armed harness that poisons design points drives
the client failure matrix here: connection refused, response hang, torn
body, 5xx burst — each with a bounded fire budget so the retry that
follows must succeed, plus the unbounded variants that force the client
into graceful local degradation. A real ``kill -9`` of a served
subprocess closes the loop.
"""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.explore import Evaluator, ResultStore, ServeDegradedWarning
from repro.serve import (
    Client,
    ExploreServer,
    ExploreService,
    RemoteEvaluator,
    ServerUnavailable,
)
from repro.testing.faults import FaultRule
from repro.util.backoff import Backoff


@pytest.fixture
def serve_stack(tmp_path):
    """An in-process server over a fresh store; always shut down."""
    store = ResultStore(tmp_path / "server-store")
    service = ExploreService(store=store, max_queue=4)
    server = ExploreServer(service)
    server.start_background()
    yield server, store
    server.shutdown(drain_timeout=5.0)


def _client(server, *, retries=3, timeout=30.0, deadline=None):
    """A fast-retrying client: no backoff sleeps, the plan does the timing."""
    return Client(server.url, timeout=timeout, retries=retries,
                  deadline=deadline, backoff=Backoff(base=0.0))


class TestNetworkFaultPlans:
    def test_refused_connections_retried(
        self, serve_stack, arm, points, reference, assert_identical
    ):
        server, _ = serve_stack
        arm([FaultRule(mode="refuse", stage="serve_request", times=2)])
        evaluations, stats = _client(server).evaluate("qrca", 8, points)
        assert_identical(evaluations, reference)
        assert stats["simulations_run"] == len(points)

    def test_hang_times_out_then_retry_succeeds(
        self, serve_stack, arm, points, reference, assert_identical
    ):
        server, _ = serve_stack
        arm([FaultRule(mode="hang", stage="serve_request",
                       seconds=2.0, times=1)])
        client = _client(server, timeout=0.5)
        evaluations, _ = client.evaluate("qrca", 8, points)
        assert_identical(evaluations, reference)

    def test_torn_response_is_retried_never_data(
        self, serve_stack, arm, points, reference, assert_identical
    ):
        server, _ = serve_stack
        arm([FaultRule(mode="torn", stage="serve_response", times=1)])
        evaluations, stats = _client(server).evaluate("qrca", 8, points)
        assert_identical(evaluations, reference)
        # The torn first attempt already simulated and persisted; the
        # retry must be answered from the warm store, not recomputed.
        assert stats["simulations_run"] == 0
        assert stats["cache_hits"] == len(points)
        assert all(e.from_cache for e in evaluations)

    def test_5xx_burst_retried_to_success(
        self, serve_stack, arm, points, reference, assert_identical
    ):
        server, _ = serve_stack
        arm([FaultRule(mode="raise", stage="serve_request", times=3,
                       exc="RuntimeError", message="injected 500")])
        evaluations, _ = _client(server, retries=3).evaluate(
            "qrca", 8, points
        )
        assert_identical(evaluations, reference)

    def test_5xx_burst_deeper_than_budget_fails_cleanly(
        self, serve_stack, arm, points
    ):
        server, _ = serve_stack
        arm([FaultRule(mode="raise", stage="serve_request", times=None,
                       message="injected 500")])
        with pytest.raises(ServerUnavailable, match="500"):
            _client(server, retries=2).evaluate("qrca", 8, points)


class TestGracefulDegradation:
    def test_unreachable_server_degrades_bit_identically(
        self, serve_stack, arm, tmp_path, points, reference, assert_identical
    ):
        server, _ = serve_stack
        arm([FaultRule(mode="refuse", stage="serve_request", times=None)])
        evaluator = RemoteEvaluator(
            _client(server, retries=2),
            kernel="qrca", width=8,
            store=ResultStore(tmp_path / "local-store"),
        )
        with pytest.warns(ServeDegradedWarning, match="unreachable"):
            evaluations = evaluator.evaluate(points)
        assert evaluator.degraded
        assert evaluator.stats()["fallback_batches"] == 1
        assert_identical(evaluations, reference)

    def test_client_honors_retry_after_without_burning_retries(
        self, serve_stack, points, reference, assert_identical
    ):
        server, _ = serve_stack
        service = server.service
        admitted = 0
        while service.admit() == "ok":
            admitted += 1
        # Free the queue while the shed client sleeps out Retry-After.
        releases = [threading.Timer(
            0.3, lambda: [service.finish() for _ in range(admitted)]
        )]
        releases[0].start()
        try:
            client = _client(server, retries=0, deadline=30.0)
            evaluations, _ = client.evaluate("qrca", 8, points)
            assert_identical(evaluations, reference)
        finally:
            releases[0].join()


class TestConcurrentClients:
    def test_two_clients_never_double_simulate(
        self, serve_stack, points, reference, assert_identical
    ):
        server, _ = serve_stack
        outcomes = {}

        def run(name):
            evaluations, stats = _client(server).evaluate("qrca", 8, points)
            outcomes[name] = (evaluations, stats)

        threads = [
            threading.Thread(target=run, args=(name,)) for name in ("a", "b")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert set(outcomes) == {"a", "b"}
        total_simulated = sum(
            stats["simulations_run"] for _, stats in outcomes.values()
        )
        assert total_simulated == len(points)  # each point computed once
        for evaluations, _ in outcomes.values():
            assert_identical(evaluations, reference)


class TestServerKilledMidExplore:
    def test_kill_dash_nine_degrades_to_local_cold_equivalent(
        self, tmp_path, points, reference, assert_identical
    ):
        """SIGKILL the serving process mid-run: the client finishes
        locally with exactly the evaluations a cold local run produces."""
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0",
                "--cache-dir", str(tmp_path / "server-cache"),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            banner = process.stdout.readline()
            assert "listening on http://" in banner, banner
            url = banner.split("listening on ", 1)[1].split()[0]
            evaluator = RemoteEvaluator(
                Client(url, timeout=5.0, retries=1, backoff=Backoff(base=0.0)),
                kernel="qrca", width=8,
                store=ResultStore(tmp_path / "client-cache"),
            )
            first = evaluator.evaluate(points[:3])
            assert not evaluator.degraded
            assert evaluator.remote_batches == 1

            process.send_signal(signal.SIGKILL)
            process.wait(timeout=30)

            with pytest.warns(ServeDegradedWarning):
                second = evaluator.evaluate(points[3:])
            assert evaluator.degraded
            assert_identical(first + second, reference)
            cold = Evaluator(kernel="qrca", width=8).evaluate(points)
            assert [e.result for e in first + second] == [
                e.result for e in cold
            ]
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=30)

    def test_graceful_sigterm_drains(self, tmp_path):
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0",
                "--cache-dir", str(tmp_path / "server-cache"),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            banner = process.stdout.readline()
            assert "listening on http://" in banner, banner
            url = banner.split("listening on ", 1)[1].split()[0]
            assert Client(url, timeout=5.0, retries=3).ready()
            process.send_signal(signal.SIGTERM)
            out, _ = process.communicate(timeout=30)
            assert process.returncode == 0
            assert "drained and stopped" in out
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=30)
