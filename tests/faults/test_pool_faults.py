"""Replica-fleet fault plans: kill-one, flapping, and fleet death.

The acceptance scenario from the failure-mode matrix: N ``repro serve``
replicas share one store, one is SIGKILL'd (``os._exit`` via a
replica-scoped fault rule) mid-explore, and the exploration completes
bit-identically to a cold local run with no point simulated twice and
exactly the killed replica's breaker recording an open.
"""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.explore import (
    ResultStore,
    ServeDegradedWarning,
    ServeRecoveredWarning,
)
from repro.obs import metrics as _metrics
from repro.serve import (
    ExploreServer,
    ExploreService,
    RemoteEvaluator,
    ReplicaSet,
)
from repro.testing.faults import FaultRule, replica_plan
from repro.util.backoff import Backoff


def _result_lines(out):
    """The exploration result block, minus the run-dependent header
    counters (new-vs-cached simulation counts differ on a warm store)."""
    return [
        line for line in out.split("evaluator:")[0].splitlines()
        if "simulation" not in line
    ]


def _pool(urls, **kwargs):
    kwargs.setdefault("retries", 0)
    kwargs.setdefault("timeout", 10.0)
    kwargs.setdefault("backoff", Backoff(base=0.0))
    return ReplicaSet(urls, **kwargs)


class TestConcurrentReplicaSetClients:
    def test_three_clients_two_replicas_never_double_simulate(
        self, tmp_path, points, reference, assert_identical
    ):
        """Three concurrent ReplicaSet clients over two replicas on one
        store: coalescing + the lease protocol keep every point to one
        simulation pass fleet-wide."""
        store = ResultStore(tmp_path / "fleet-store")
        servers = []
        try:
            for _ in range(2):
                service = ExploreService(store=store, max_queue=8)
                server = ExploreServer(service)
                server.start_background()
                servers.append(server)
            urls = [server.url for server in servers]
            outcomes = {}

            def run(name):
                evaluations, stats = _pool(list(urls)).evaluate(
                    "qrca", 8, points
                )
                outcomes[name] = (evaluations, stats)

            threads = [
                threading.Thread(target=run, args=(name,))
                for name in ("a", "b", "c")
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            assert set(outcomes) == {"a", "b", "c"}
            total_simulated = sum(
                stats["simulations_run"] for _, stats in outcomes.values()
            )
            assert total_simulated == len(points)
            for evaluations, _ in outcomes.values():
                assert_identical(evaluations, reference)
        finally:
            for server in servers:
                server.shutdown(drain_timeout=5.0)


class TestFleetDegradeRecover:
    def test_fleet_death_degrades_then_probe_recovery_returns_to_served(
        self, tmp_path, arm, points, reference, assert_identical
    ):
        """Every breaker open -> local fallback; a successful /readyz
        probe un-degrades and the next batch is served again."""
        store = ResultStore(tmp_path / "server-store")
        service = ExploreService(store=store, max_queue=4, replica_id="r1")
        server = ExploreServer(service)
        server.start_background()
        try:
            arm([FaultRule(mode="refuse", stage="serve_request",
                           replica="r1", times=None)])
            pool = _pool(
                [server.url], failure_threshold=1, cooldown=0.05
            )
            evaluator = RemoteEvaluator(
                pool, kernel="qrca", width=8,
                store=ResultStore(tmp_path / "client-store"),
            )
            with pytest.warns(ServeDegradedWarning, match="unreachable"):
                first = evaluator.evaluate(points[:3])
            assert evaluator.degraded
            assert evaluator.stats()["fallback_batches"] == 1

            arm([])  # the fleet comes back
            time.sleep(0.1)  # let the breaker cooldown elapse
            with pytest.warns(ServeRecoveredWarning):
                second = evaluator.evaluate(points[3:])
            assert not evaluator.degraded
            stats = evaluator.stats()
            assert stats["recoveries"] == 1
            assert stats["remote_batches"] == 1
            assert_identical(first + second, reference)
        finally:
            server.shutdown(drain_timeout=5.0)


class TestKillOneReplicaMidExplore:
    def test_kill_one_of_three_bit_identical_no_double_simulation(
        self, tmp_path, capsys
    ):
        """The fault-matrix acceptance scenario, end to end."""
        src = Path(__file__).resolve().parents[2] / "src"
        state = tmp_path / "fault-state"
        state.mkdir()
        plan = replica_plan("kill-one", "a")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        env["REPRO_FAULTS"] = plan.to_json()
        env["REPRO_FAULTS_DIR"] = str(state)

        processes = {}
        urls = {}
        try:
            for replica in ("a", "b", "c"):
                port_file = tmp_path / f"port-{replica}"
                processes[replica] = subprocess.Popen(
                    [
                        sys.executable, "-m", "repro", "serve",
                        "--port", "0",
                        "--port-file", str(port_file),
                        "--replica-id", replica,
                        "--cache-dir", str(tmp_path / "fleet-store"),
                    ],
                    env=env,
                    stdout=subprocess.PIPE,
                    stderr=subprocess.STDOUT,
                    text=True,
                )
                banner = processes[replica].stdout.readline()
                assert "listening on http://" in banner, banner
                url = banner.split("listening on ", 1)[1].split()[0]
                # --port 0: banner and --port-file agree on the real port.
                assert port_file.read_text().strip() == url.rsplit(":", 1)[1]
                assert f"replica: {replica}" in banner
                urls[replica] = url

            code = main([
                "explore", "qrca-8", "--budget", "6",
                "--server", ",".join(urls.values()),
                "--server-timeout", "10", "--server-retries", "0",
                "--breaker-threshold", "1",
                "--cache-dir", str(tmp_path / "client-store"),
            ])
            out = capsys.readouterr().out
            assert code == 0
            assert "best" in out

            # Replica a died mid-explore (the rule's os._exit).
            assert processes["a"].wait(timeout=30) == 17

            # Exactly the killed replica's breaker recorded an open.
            opens = {
                sample["labels"]["replica"]
                for sample in _metrics.snapshot()
                .get("repro_pool_breaker_opens_total", {})
                .get("samples", [])
                if sample["labels"]["replica"] in urls.values()
            }
            assert opens == {urls["a"]}

            # Bit-identical to a cold local run of the same exploration.
            assert main([
                "explore", "qrca-8", "--budget", "6",
                "--cache-dir", str(tmp_path / "cold-store"),
            ]) == 0
            cold = capsys.readouterr().out
            assert _result_lines(out) == _result_lines(cold)

            # Warm re-run against the surviving replicas, fresh client
            # store: every point answered from the fleet store, zero new
            # simulations.
            assert main([
                "explore", "qrca-8", "--budget", "6",
                "--server", f"{urls['b']},{urls['c']}",
                "--server-timeout", "10", "--server-retries", "0",
                "--cache-dir", str(tmp_path / "warm-client-store"),
            ]) == 0
            warm = capsys.readouterr().out
            assert "simulations_run=0" in warm
            assert _result_lines(warm) == _result_lines(cold)
        finally:
            for process in processes.values():
                if process.poll() is None:
                    process.kill()
                    process.wait(timeout=30)
