"""CLI tests for `repro serve` and the serve/lease knobs on `repro explore`."""

import socket

import pytest

from repro.__main__ import build_parser, main
from repro.explore import ServeDegradedWarning


class TestServeParser:
    def test_help_exits_zero(self, capsys):
        assert main(["serve", "--help"]) == 0
        out = capsys.readouterr().out
        for flag in ("--host", "--port", "--max-queue", "--drain-timeout",
                     "--lease-ttl"):
            assert flag in out

    def test_defaults(self):
        ns = build_parser().parse_args(["serve"])
        assert ns.host == "127.0.0.1"
        assert ns.port == 8642
        assert ns.max_queue == 8
        assert ns.drain_timeout == 30.0
        assert ns.lease_ttl is None

    def test_port_in_use_exits_2(self, tmp_path, capsys):
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        _, port = blocker.getsockname()
        try:
            code = main([
                "serve", "--port", str(port),
                "--cache-dir", str(tmp_path),
            ])
        finally:
            blocker.close()
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_bad_max_queue_exits_2(self, tmp_path, capsys):
        code = main([
            "serve", "--max-queue", "0", "--cache-dir", str(tmp_path),
        ])
        assert code == 2
        assert "max_queue" in capsys.readouterr().err


class TestLeaseKnobs:
    @pytest.mark.parametrize("command", ["explore", "serve"])
    def test_nonpositive_ttl_rejected(self, command, tmp_path, capsys):
        argv = [command, "--lease-ttl", "0", "--cache-dir", str(tmp_path)]
        if command == "explore":
            argv.insert(1, "qrca-8")
        assert main(argv) == 2
        assert "--lease-ttl" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["explore", "serve"])
    def test_negative_retries_rejected(self, command, tmp_path, capsys):
        argv = [command, "--retries", "-1", "--cache-dir", str(tmp_path)]
        if command == "explore":
            argv.insert(1, "qrca-8")
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "error: --retries must be >= 0" in err
        assert "Traceback" not in err

    def test_valid_knobs_accepted(self, tmp_path, capsys):
        code = main([
            "explore", "qrca-8", "--budget", "2",
            "--lease-ttl", "60",
            "--cache-dir", str(tmp_path),
        ])
        assert code == 0
        assert "best" in capsys.readouterr().out


class TestExploreServerFlag:
    def test_explore_help_lists_server_knobs(self, capsys):
        assert main(["explore", "--help"]) == 0
        out = capsys.readouterr().out
        for flag in ("--server", "--server-timeout", "--server-retries",
                     "--server-deadline"):
            assert flag in out

    def test_bad_server_url_exits_2(self, tmp_path, capsys):
        assert main([
            "explore", "qrca-8", "--server", "https://example.com",
            "--cache-dir", str(tmp_path),
        ]) == 2
        assert "http" in capsys.readouterr().err

    def test_dead_server_degrades_and_completes(self, tmp_path, capsys):
        """explore --server against a dead URL finishes locally, exit 0."""
        with pytest.warns(ServeDegradedWarning):
            code = main([
                "explore", "qrca-8", "--budget", "2",
                "--server", "http://127.0.0.1:9",
                "--server-timeout", "0.5",
                "--server-retries", "0",
                "--cache-dir", str(tmp_path),
            ])
        assert code == 0
        out = capsys.readouterr().out
        assert "best" in out
        assert "degraded=1" in out  # the evaluator stats line


class TestReplicaSetFlags:
    def test_explore_help_lists_pool_knobs(self, capsys):
        assert main(["explore", "--help"]) == 0
        out = capsys.readouterr().out
        for flag in ("--breaker-threshold", "--breaker-cooldown",
                     "--hedge-after"):
            assert flag in out

    def test_serve_help_lists_fleet_knobs(self, capsys):
        assert main(["serve", "--help"]) == 0
        out = capsys.readouterr().out
        for flag in ("--replica-id", "--port-file"):
            assert flag in out

    def test_server_flag_repeats_and_splits_commas(self):
        ns = build_parser().parse_args([
            "explore", "qrca-8",
            "--server", "http://a:1,http://b:2",
            "--server", "http://c:3",
        ])
        assert ns.server == ["http://a:1,http://b:2", "http://c:3"]

    def test_serve_defaults(self):
        ns = build_parser().parse_args(["serve"])
        assert ns.replica_id is None
        assert ns.port_file is None

    def test_breaker_defaults(self):
        ns = build_parser().parse_args(["explore", "qrca-8"])
        assert ns.breaker_threshold == 3
        assert ns.breaker_cooldown == 5.0
        assert ns.hedge_after is None

    def test_duplicate_replica_urls_exit_2(self, tmp_path, capsys):
        assert main([
            "explore", "qrca-8",
            "--server", "http://127.0.0.1:9,http://127.0.0.1:9",
            "--cache-dir", str(tmp_path),
        ]) == 2
        assert "duplicate" in capsys.readouterr().err

    def test_dead_fleet_degrades_and_completes(self, tmp_path, capsys):
        """Two dead replicas: the whole fleet is down, the exploration
        still completes locally with exit 0."""
        with pytest.warns(ServeDegradedWarning):
            code = main([
                "explore", "qrca-8", "--budget", "2",
                "--server", "http://127.0.0.1:9",
                "--server", "http://127.0.0.1:10",
                "--server-timeout", "0.5",
                "--server-retries", "0",
                "--breaker-threshold", "1",
                "--cache-dir", str(tmp_path),
            ])
        assert code == 0
        out = capsys.readouterr().out
        assert "best" in out
        assert "degraded=1" in out
