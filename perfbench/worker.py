"""One benchmark process: set up, report readiness, run one workload.

Started by ``run.py`` (never by hand). It prints ``READY`` on its own
line once set-up is done — ``run.py`` times set-up from the spawn to that
line — and, unless it is a set-up probe, prints its results as one JSON
object on the last line of its output.

Untraced runs measure the end-to-end metrics for ``--seconds``. Traced
runs (``--trace 1``) install the layer wrappers before set-up, run a
fixed amount of work so that counts repeat exactly, then repeat the same
work with the wrappers removed to measure the tracing overhead.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

#: Units of work in a traced run: artifact passes, explore cycles. The
#: first unit may fill lazy caches, so counts are compared from the
#: second unit on.
TRACED_UNITS = {"artifacts": 3, "explore": 3}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def count_snapshot(totals):
    """Every count the tracer keeps (calls and extra counts), flattened."""
    return {
        f"{layer}.{key}": value
        for layer, row in totals.items()
        for key, value in row.items()
        if key not in ("self_s", "incl_s")
    }


def layer_metrics(totals, tally, expected):
    """Flatten per-layer totals; fail the run for expected-but-silent layers."""
    out = {}
    for layer, row in totals.items():
        for key, value in row.items():
            if layer == "serve.client" and key == "self_s":
                continue  # reported as serve.wire_s
            out[f"{layer}.{key}"] = value
    for layer in expected:
        if totals.get(layer, {}).get("calls", 0) == 0:
            tally.fail(f"wrapper {layer} recorded no calls: a call site was missed")
    return out


def self_sum(totals):
    return sum(
        row["self_s"] for layer, row in totals.items() if layer != "serve.client"
    )


def run_local(args, workload, tally, import_s, tracer):
    """artifacts / explore."""
    if not args.trace:
        workload.run_timed(args.seconds, tally)
        return {"metrics": workload.metrics(), "summary": workload.summary()}
    units = TRACED_UNITS[workload.name]
    snapshots = []
    for _ in range(units):
        workload.run_fixed(1, tally)
        snapshots.append(count_snapshot(tracer.totals()))
    traced_end = time.perf_counter()
    totals = tracer.totals()
    tracer.uninstall()
    artifact_s = dict(getattr(workload, "artifact_s", {}))
    deltas = [
        {k: after[k] - before.get(k, 0) for k in after}
        for before, after in zip([{}] + snapshots, snapshots)
    ]
    if any(delta != deltas[1] for delta in deltas[2:]):
        tally.fail("per-unit counts differ between identical units of work")
    workload.run_fixed(units, tally)
    # Both halves at reference speed, so host drift between them cancels.
    unit_seconds = workload.unit_seconds()
    wall = traced_end - T_START
    metrics = layer_metrics(totals, tally, workload.expected)
    metrics["startup.import_s"] = import_s
    for key, seconds in artifact_s.items():
        metrics[f"reporting.artifact.{key}_s"] = seconds
    metrics["traced_wall_s"] = wall
    metrics["untraced_s"] = wall - import_s - self_sum(totals)
    metrics["trace_overhead"] = sum(unit_seconds[:units]) / sum(unit_seconds[units:])
    return {"metrics": metrics, "summary": {"traced_units": units}}


def run_serve(args, workload, tally, import_s, spawn_s, tracer, t_ready):
    from tracer import merge_totals

    t0 = time.perf_counter()
    workload.prefill()
    prefill_s = time.perf_counter() - t0
    run = workload.run()
    totals_server = workload.stop()
    result = {"peak_rss_mb": totals_server["peak_rss_mb"]}
    if not args.trace:
        run.check(workload.warmup, tally)
        result["metrics"] = run.metrics()
        result["summary"] = run.summary()
        return result
    client = tracer.totals()
    tracer.uninstall()
    server = totals_server.get("layers", {})
    totals = merge_totals(client, server)
    wire = client["serve.client"]["self_s"] - self_sum(server)
    counts = run.check(workload.warmup, tally)
    # The same schedule again against a fresh untraced server and store:
    # the overhead baseline, and a repeat of every count.
    workload.start(trace=False)
    workload.prefill()
    repeat = workload.run()
    workload.stop()
    repeat_counts = repeat.check(workload.warmup, tally)
    if repeat_counts != counts:
        tally.fail(f"serve counts did not repeat: {counts} vs {repeat_counts}")
    basis = (t_ready - T_START) + prefill_s + run.busy_s
    metrics = layer_metrics(totals, tally, workload.expected)
    metrics["startup.import_s"] = import_s
    metrics["serve.spawn_s"] = spawn_s
    metrics["serve.wire_s"] = wire
    metrics["serve.simulations"] = counts["simulations"]
    metrics["serve.coalesced_points"] = counts["coalesced_points"]
    metrics["serve.double_simulations"] = counts["double_simulations"]
    metrics["traced_wall_s"] = basis
    metrics["untraced_s"] = basis - import_s - spawn_s - wire - self_sum(totals)
    metrics["trace_overhead"] = run.pair_seconds() / repeat.pair_seconds()
    result["metrics"] = metrics
    result["summary"] = {"requests": len(run.requests)}
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--probe", action="store_true",
                        help="set up, report READY, tear down and exit")
    args = parser.parse_args()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

    import repro  # noqa: F401
    import repro.explore  # noqa: F401
    import repro.reporting  # noqa: F401
    import repro.serve  # noqa: F401

    import_s = time.perf_counter() - T_START
    from tracer import Tracer
    from workloads import (
        ArtifactsWorkload,
        ExploreWorkload,
        ServeWorkload,
        Tally,
        serve_pairs,
        setup_kernels,
    )

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    workdir = Path(args.workdir)
    setup_kernels()
    spawn_s = 0.0
    if args.workload == "artifacts":
        workload = ArtifactsWorkload(args.seed, workdir)
    elif args.workload == "explore":
        workload = ExploreWorkload(args.seed, workdir)
    else:
        workload = ServeWorkload(
            args.seed, workdir, serve_pairs(args.seconds, bool(args.trace))
        )
        spawn_s = workload.start(trace=bool(args.trace))
    t_ready = time.perf_counter()
    print("READY", flush=True)
    if args.probe:
        if args.workload == "serve":
            workload.stop()
        return 0

    tally = Tally()
    try:
        if args.workload == "serve":
            result = run_serve(
                args, workload, tally, import_s, spawn_s, tracer, t_ready
            )
        else:
            result = run_local(args, workload, tally, import_s, tracer)
            result["peak_rss_mb"] = peak_rss_mb()
    finally:
        if args.workload == "serve":
            workload.stop()
    result.update(
        attempted=tally.attempted, failed=tally.failed, reasons=tally.reasons
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
