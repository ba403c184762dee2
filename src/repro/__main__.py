"""Command-line entry point: regenerate paper artifacts, explore designs.

Usage::

    python -m repro list                  # list reproducible artifacts
    python -m repro table3                # print one table/figure
    python -m repro run fig15             # same, spelled out
    python -m repro all                   # print everything (runs the
                                          # Monte Carlo and the sweeps)
    python -m repro explore qcla-32 --objective adcr --strategy adaptive \\
        --budget 30                       # ADCR-driven design-space search
    python -m repro serve --port 8642     # evaluation service (terminal 1)
    python -m repro explore qcla-32 --server http://127.0.0.1:8642
                                          # served exploration (terminal 2)
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Tuple

from repro.reporting import EXPERIMENTS, run_experiment

_DEFAULT_WIDTH = 32


def _parse_kernel(spec: str) -> Tuple[str, int]:
    """``"qcla-32"`` -> ("qcla", 32); a bare name defaults to width 32."""
    name, sep, width = spec.partition("-")
    if not sep:
        return name.lower(), _DEFAULT_WIDTH
    try:
        return name.lower(), int(width)
    except ValueError:
        raise ValueError(
            f"bad kernel spec {spec!r}; expected <name> or <name>-<width> "
            "(e.g. qcla-32)"
        ) from None


# ----------------------------------------------------------------------
# Subcommand handlers


def _cmd_list(ns: argparse.Namespace) -> int:
    width = max(len(key) for key in EXPERIMENTS)
    for key in sorted(EXPERIMENTS):
        exp = EXPERIMENTS[key]
        print(f"  {key:<{width}}  {exp.paper_ref:<22} {exp.description}")
    return 0


def _cmd_all(ns: argparse.Namespace) -> int:
    for key in sorted(EXPERIMENTS):
        print(f"=== {key} ({EXPERIMENTS[key].paper_ref}) ===")
        print(run_experiment(key))
        print()
    return 0


def _cmd_run(ns: argparse.Namespace) -> int:
    try:
        print(run_experiment(ns.experiment))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _obs_export(trace_path: Optional[str], metrics_path: Optional[str]) -> None:
    """Write the requested trace/metrics files and turn tracing off.

    ``metrics_path`` gets Prometheus text, or a JSON snapshot when it
    ends in ``.json``.
    """
    import json
    from pathlib import Path

    from repro import obs
    from repro.obs import metrics as obs_metrics

    tracer = obs.tracer()
    if tracer is not None and trace_path:
        tracer.export_chrome(trace_path)
        print(f"trace: {trace_path} ({len(tracer.events())} spans)")
    if metrics_path:
        if metrics_path.endswith(".json"):
            payload = (
                json.dumps(obs_metrics.snapshot(), indent=1, sort_keys=True)
                + "\n"
            )
        else:
            payload = obs_metrics.prometheus()
        Path(metrics_path).write_text(payload, encoding="utf-8")
        print(f"metrics: {metrics_path}")
    obs.disable()


def _lease_knob_error(ns: argparse.Namespace) -> Optional[str]:
    """Validate --lease-ttl and --retries."""
    if ns.lease_ttl is not None and ns.lease_ttl <= 0:
        return f"--lease-ttl must be positive, got {ns.lease_ttl}"
    if ns.retries < 0:
        return f"--retries must be >= 0, got {ns.retries}"
    return None


def _make_store(ns: argparse.Namespace):
    from repro.explore import ResultStore
    from repro.explore.store import DEFAULT_LEASE_TTL

    if getattr(ns, "no_cache", False):
        return None
    ttl = ns.lease_ttl if ns.lease_ttl is not None else DEFAULT_LEASE_TTL
    return ResultStore(ns.cache_dir, lease_ttl=ttl)


def _cmd_explore(ns: argparse.Namespace) -> int:
    from repro.explore import (
        Evaluator,
        ResultStore,
        architecture_space,
        explore,
        format_exploration,
        get_objective,
        get_strategy,
    )

    error = _lease_knob_error(ns)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    store = _make_store(ns)
    if ns.clear_cache:
        removed = ResultStore(ns.cache_dir).clear()
        print(f"cleared {removed} cached evaluations from the result store")
        if ns.kernel is None:
            return 0
    if ns.kernel is None:
        print("error: a kernel to explore is required (e.g. qcla-32)",
              file=sys.stderr)
        return 2
    # Tracing goes on before the kernel is analyzed, so compile/analyze
    # spans land in the trace.
    traced = bool(ns.trace or ns.metrics)
    if traced:
        from repro import obs

        obs.enable()
    evaluator = None
    try:
        try:
            kernel, width = _parse_kernel(ns.kernel)
            from repro.kernels import analyze_kernel

            analysis = analyze_kernel(kernel, width)
            space = architecture_space(analysis, code_levels=ns.code_level)
            objective = get_objective(
                ns.objective,
                max_total_area=ns.max_area,
                max_makespan_ms=ns.max_latency_ms,
                max_pi8_error_rate=ns.max_pi8_error,
                tech=analysis.tech,
                mc_trials=ns.mc_trials,
                store=store,
            )
            strategy = get_strategy(ns.strategy, space, seed=ns.seed)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if ns.server:
            from repro.serve import RemoteEvaluator, ReplicaSet

            servers = [
                url.strip()
                for entry in ns.server
                for url in entry.split(",")
                if url.strip()
            ]
            try:
                client = ReplicaSet(
                    servers,
                    timeout=ns.server_timeout,
                    retries=ns.server_retries,
                    deadline=ns.server_deadline,
                    failure_threshold=ns.breaker_threshold,
                    cooldown=ns.breaker_cooldown,
                    hedge_after=ns.hedge_after,
                )
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            evaluator = RemoteEvaluator(
                client,
                kernel=kernel,
                width=width,
                store=store,
                retries=ns.retries,
            )
        else:
            evaluator = Evaluator(
                kernel=kernel,
                width=width,
                store=store,
                retries=ns.retries,
            )
        budget = ns.budget if ns.budget is not None else space.grid_size()
        journal = store.journal_path() if store is not None else None
        if ns.resume and journal is None:
            print("error: --resume needs the result store (drop --no-cache)",
                  file=sys.stderr)
            return 2
        try:
            result = explore(
                space, objective, strategy, evaluator=evaluator,
                budget=budget, journal=journal, resume=ns.resume,
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(format_exploration(result))
        return 0
    finally:
        # Stats (and any requested trace/metrics) are reported even when
        # the exploration fails or quarantines points — the failure path
        # is exactly when the counters matter most.
        if evaluator is not None:
            stats = evaluator.stats()
            print(
                "evaluator: "
                + ", ".join(f"{name}={value}" for name, value in stats.items())
            )
        if traced:
            _obs_export(ns.trace, ns.metrics)


def _cmd_profile(ns: argparse.Namespace) -> int:
    import time

    from repro import obs
    from repro.obs.report import format_phase_table

    tracer = obs.enable()
    t0 = time.perf_counter()
    try:
        output = run_experiment(ns.experiment)
        wall = time.perf_counter() - t0
        events = tracer.events()
        if ns.show_output:
            print(output)
            print()
        print(
            format_phase_table(
                events,
                title=f"{ns.experiment}: per-phase breakdown",
                wall_s=wall,
            )
        )
        if ns.trace:
            tracer.export_chrome(ns.trace)
            print(f"trace: {ns.trace} ({len(events)} spans)")
        return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        obs.disable()


def _cmd_cache(ns: argparse.Namespace) -> int:
    from repro.explore import ResultStore

    store = ResultStore(ns.cache_dir)
    if ns.action == "clear":
        removed = store.clear()
        print(f"cleared {removed} cached evaluations from the result store")
        return 0
    if ns.action == "stats":
        print(f"store root: {store.root}")
        print(f"valid records: {len(store)}")
        size = store.log.stat().st_size if store.log.exists() else 0
        print(f"record log: {size} bytes")
        leases = list(store.leases())
        stale = sum(1 for _, _, _, is_stale in leases if is_stale)
        print(f"leases: {len(leases)} ({stale} stale)")
        journal = store.journal_path()
        if journal.exists():
            print(f"journal: {journal} ({journal.stat().st_size} bytes)")
        else:
            print("journal: none")
        return 0
    # fsck
    report = store.fsck(remove=ns.remove)
    print(f"ok: {report.ok}")
    print(f"corrupt: {len(report.corrupt)}"
          + (f" ({', '.join(report.corrupt[:5])})" if report.corrupt else ""))
    print(f"stale schema: {len(report.stale_schema)}")
    print(f"foreign (digest mismatch): {len(report.foreign)}"
          + (f" ({', '.join(report.foreign[:5])})" if report.foreign else ""))
    print(f"torn tails: {len(report.torn)}")
    print(f"stale leases: {len(report.stale_leases)}")
    print(f"stale owner tokens: {len(report.stale_tokens)}")
    print(f"legacy per-record files: {len(report.legacy)}")
    if ns.remove:
        print(f"log compacted: {'yes' if report.compacted else 'no'}")
        print(f"removed: {report.removed}")
    elif (report.bad or report.stale_leases or report.stale_tokens
          or report.legacy):
        print("run `repro cache fsck --remove` to delete the entries above")
    return 1 if report.bad and not ns.remove else 0


def _cmd_serve(ns: argparse.Namespace) -> int:
    import signal
    import threading

    error = _lease_knob_error(ns)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    from repro.serve import ExploreServer, ExploreService

    store = _make_store(ns)
    try:
        service = ExploreService(
            store=store,
            retries=ns.retries,
            max_queue=ns.max_queue,
            replica_id=ns.replica_id,
        )
        server = ExploreServer(service, host=ns.host, port=ns.port)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # The bound port, not the requested one: with --port 0 the kernel
    # picks a free port, and the banner (plus --port-file) is how
    # callers learn which.
    host, port = server.address
    if ns.port_file:
        try:
            with open(ns.port_file, "w", encoding="utf-8") as handle:
                handle.write(f"{port}\n")
        except OSError as exc:
            print(f"error: cannot write --port-file: {exc}", file=sys.stderr)
            return 2
    cache = "disabled" if store is None else str(store.root)
    replica = f", replica: {ns.replica_id}" if ns.replica_id else ""
    print(
        f"repro serve: listening on http://{host}:{port} "
        f"(store: {cache}, max queue: {ns.max_queue}{replica})",
        flush=True,
    )

    def _graceful(signum, frame) -> None:
        # shutdown() must not run on the thread blocked in serve_forever.
        print(
            f"received signal {signum}; draining in-flight evaluations...",
            flush=True,
        )
        threading.Thread(
            target=server.shutdown,
            kwargs={"drain_timeout": ns.drain_timeout},
            daemon=True,
        ).start()

    signal.signal(signal.SIGINT, _graceful)
    signal.signal(signal.SIGTERM, _graceful)
    server.serve_forever()
    print("repro serve: drained and stopped", flush=True)
    return 0


# ----------------------------------------------------------------------


def _add_lease_ttl_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--lease-ttl", type=float, default=None, metavar="S",
        help=(
            "seconds without a heartbeat before a result-store lease "
            "counts as stale and peers may reclaim it (default: 300)"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Reproduce the paper's tables and figures, or explore the "
            "architecture design space. A bare experiment key (e.g. "
            "'table3') is shorthand for 'run table3'."
        ),
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    p_list = sub.add_parser("list", help="list reproducible artifacts")
    p_list.set_defaults(func=_cmd_list)

    p_all = sub.add_parser(
        "all", help="print every artifact (runs the Monte Carlo and the sweeps)"
    )
    p_all.set_defaults(func=_cmd_all)

    p_run = sub.add_parser("run", help="print one table/figure by key")
    p_run.add_argument(
        "experiment", metavar="experiment",
        help=f"one of: {', '.join(sorted(EXPERIMENTS))}",
    )
    p_run.set_defaults(func=_cmd_run)

    p_explore = sub.add_parser(
        "explore",
        help="search the design space for an objective-optimal architecture",
        description=(
            "ADCR-driven design-space exploration over architecture kind "
            "and factory-area budget. Every evaluation is persisted in a "
            "content-addressed result store under .repro_cache/, so "
            "re-runs and refined searches are incremental."
        ),
    )
    p_explore.add_argument(
        "kernel", nargs="?", default=None,
        help="kernel to explore, as <name>[-<width>] (e.g. qcla-32)",
    )
    p_explore.add_argument(
        "--objective", default="adcr",
        choices=("adcr", "latency", "area", "ancilla_quality"),
        help=(
            "figure of merit to minimize (default: adcr; ancilla_quality "
            "is the Monte-Carlo pi/8 ancilla error rate)"
        ),
    )
    p_explore.add_argument(
        "--strategy", default="grid", choices=("grid", "random", "adaptive"),
        help="search strategy (default: grid)",
    )
    p_explore.add_argument(
        "--budget", type=int, default=None, metavar="N",
        help="max design points to evaluate (default: the full grid)",
    )
    p_explore.add_argument(
        "--code-level", type=int, nargs="+", default=None, metavar="L",
        help=(
            "add the code-concatenation-level axis with these levels "
            "(e.g. --code-level 1 2; default: level 1 only, the paper's "
            "single Steane layer). Level-L points re-characterize the "
            "kernel under tech.at_level(L)"
        ),
    )
    p_explore.add_argument(
        "--seed", type=int, default=0,
        help="RNG seed for random/adaptive strategies (default: 0)",
    )
    p_explore.add_argument(
        "--max-area", type=float, default=None, metavar="MB",
        help="constraint: reject points above this total area",
    )
    p_explore.add_argument(
        "--max-latency-ms", type=float, default=None, metavar="MS",
        help="constraint: reject points above this execution time",
    )
    p_explore.add_argument(
        "--max-pi8-error", type=float, default=None, metavar="P",
        help=(
            "constraint: reject designs whose technology's pi/8 ancilla "
            "error rate (batched Monte Carlo) exceeds P"
        ),
    )
    p_explore.add_argument(
        "--mc-trials", type=int, default=100_000, metavar="N",
        help=(
            "Monte Carlo trials behind ancilla_quality / --max-pi8-error "
            "(default: 100000; results are cached in the result store)"
        ),
    )
    p_explore.add_argument(
        "--retries", type=int, default=2, metavar="N",
        help=(
            "retry a failing design point N times (with backoff) before "
            "quarantining it as a structured failure (default: 2)"
        ),
    )
    p_explore.add_argument(
        "--resume", action="store_true",
        help=(
            "resume an interrupted exploration from the round journal "
            "(journal.jsonl beside the result store): completed rounds "
            "replay from the warm store with zero new simulations"
        ),
    )
    p_explore.add_argument(
        "--server", action="append", default=None, metavar="URL",
        help=(
            "evaluate through running `repro serve` instance(s) instead "
            "of simulating locally; repeat the flag (or comma-separate "
            "URLs) to form a replica set with per-replica circuit "
            "breakers and failover. If every replica stays unreachable "
            "the exploration degrades to local evaluation, still "
            "completes, and returns to the fleet when a probe succeeds"
        ),
    )
    p_explore.add_argument(
        "--server-timeout", type=float, default=30.0, metavar="S",
        help="per-attempt HTTP timeout against --server (default: 30)",
    )
    p_explore.add_argument(
        "--server-retries", type=int, default=5, metavar="N",
        help=(
            "retryable server failures (refused/timeout/5xx/torn body) "
            "tolerated per request before degrading to local evaluation "
            "(default: 5)"
        ),
    )
    p_explore.add_argument(
        "--server-deadline", type=float, default=None, metavar="S",
        help=(
            "overall wall-clock budget per server request, covering "
            "retries, backoff sleeps, and failover across replicas "
            "(default: none)"
        ),
    )
    p_explore.add_argument(
        "--breaker-threshold", type=int, default=3, metavar="N",
        help=(
            "consecutive failures that open a replica's circuit "
            "breaker (default: 3)"
        ),
    )
    p_explore.add_argument(
        "--breaker-cooldown", type=float, default=5.0, metavar="S",
        help=(
            "seconds an open breaker waits before admitting a "
            "half-open probe (default: 5)"
        ),
    )
    p_explore.add_argument(
        "--hedge-after", type=float, default=None, metavar="S",
        help=(
            "hedge a request against a second healthy replica after S "
            "seconds of silence; the store's lease protocol arbitrates "
            "duplicates (default: off)"
        ),
    )
    p_explore.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result-store root (default: .repro_cache, or $REPRO_CACHE_DIR)",
    )
    p_explore.add_argument(
        "--no-cache", action="store_true",
        help="do not read or write the result store",
    )
    p_explore.add_argument(
        "--clear-cache", action="store_true",
        help="wipe the result store first (alone: wipe and exit)",
    )
    p_explore.add_argument(
        "--trace", default=None, metavar="FILE",
        help="write a Chrome/Perfetto trace of the exploration to FILE",
    )
    p_explore.add_argument(
        "--metrics", default=None, metavar="FILE",
        help=(
            "write a metrics snapshot to FILE: Prometheus text format, "
            "or a JSON snapshot when FILE ends in .json"
        ),
    )
    _add_lease_ttl_option(p_explore)
    p_explore.set_defaults(func=_cmd_explore)

    p_serve = sub.add_parser(
        "serve",
        help="serve design-point evaluations over HTTP (see explore --server)",
        description=(
            "Expose warm evaluators over HTTP: POST /evaluate answers "
            "design-point batches (cache hits with zero simulation), "
            "GET /healthz //readyz report liveness/readiness, and "
            "GET /metrics exposes the repro.obs registry as Prometheus "
            "text. The work queue is bounded: excess load is shed with "
            "429 + Retry-After, and SIGINT/SIGTERM drain in-flight "
            "evaluations before stopping."
        ),
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1", metavar="ADDR",
        help="bind address (default: 127.0.0.1)",
    )
    p_serve.add_argument(
        "--port", type=int, default=8642, metavar="PORT",
        help=(
            "bind port; 0 picks a free one — the startup banner (and "
            "--port-file) report the actually-bound port (default: 8642)"
        ),
    )
    p_serve.add_argument(
        "--port-file", default=None, metavar="FILE",
        help=(
            "write the actually-bound port to FILE after binding "
            "(scripting aid for --port 0)"
        ),
    )
    p_serve.add_argument(
        "--replica-id", default=None, metavar="NAME",
        help=(
            "identity of this replica in a fleet; replica-scoped fault "
            "rules (testing) match against it"
        ),
    )
    p_serve.add_argument(
        "--max-queue", type=int, default=8, metavar="N",
        help=(
            "most evaluate requests admitted at once (working + queued); "
            "the excess is shed with 429 (default: 8)"
        ),
    )
    p_serve.add_argument(
        "--drain-timeout", type=float, default=30.0, metavar="S",
        help=(
            "seconds a graceful shutdown waits for in-flight evaluations "
            "before releasing leases and stopping anyway (default: 30)"
        ),
    )
    p_serve.add_argument(
        "--retries", type=int, default=2, metavar="N",
        help="per-point retry budget of the serving evaluators (default: 2)",
    )
    p_serve.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result-store root (default: .repro_cache, or $REPRO_CACHE_DIR)",
    )
    p_serve.add_argument(
        "--no-cache", action="store_true",
        help="serve without a result store (every request simulates)",
    )
    _add_lease_ttl_option(p_serve)
    p_serve.set_defaults(func=_cmd_serve)

    p_profile = sub.add_parser(
        "profile",
        help="run one experiment with tracing on and print where time went",
        description=(
            "Run an experiment with span tracing enabled and print a "
            "per-phase time breakdown (compile, ready-vector builds, "
            "level walks, Monte Carlo frames, ...). Use --trace to also "
            "keep the full Chrome/Perfetto timeline."
        ),
    )
    p_profile.add_argument(
        "experiment", metavar="experiment",
        help=f"one of: {', '.join(sorted(EXPERIMENTS))}",
    )
    p_profile.add_argument(
        "--trace", default=None, metavar="FILE",
        help="also write the Chrome/Perfetto trace to FILE",
    )
    p_profile.add_argument(
        "--show-output", action="store_true",
        help="print the experiment's own output above the breakdown",
    )
    p_profile.set_defaults(func=_cmd_profile)

    p_cache = sub.add_parser(
        "cache",
        help="inspect or repair the result store",
        description=(
            "Maintenance for the content-addressed result store: fsck "
            "reports (and with --remove deletes, rewriting the record "
            "log) damaged records, stale leases and legacy files; "
            "stats summarizes the store; clear wipes it."
        ),
    )
    p_cache.add_argument(
        "action", choices=("fsck", "stats", "clear"),
        help="what to do to the store",
    )
    p_cache.add_argument(
        "--remove", action="store_true",
        help="fsck only: delete the unhealthy entries it finds",
    )
    p_cache.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result-store root (default: .repro_cache, or $REPRO_CACHE_DIR)",
    )
    p_cache.set_defaults(func=_cmd_cache)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if args and args[0] in EXPERIMENTS:
        args = ["run"] + args
    parser = build_parser()
    if not args:
        parser.print_help()
        return 0
    try:
        ns = parser.parse_args(args)
    except SystemExit as exc:  # argparse exits for --help (0) and errors (2)
        return int(exc.code or 0)
    if getattr(ns, "func", None) is None:
        parser.print_help()
        return 0
    return ns.func(ns)


if __name__ == "__main__":
    raise SystemExit(main())
