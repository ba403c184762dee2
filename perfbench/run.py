"""End-to-end benchmark of the ``repro`` package, split by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {artifacts,explore,serve} \\
        --seed N --seconds S --trace {0,1}

Prints a summary line (the workload's own metric names, the error rate
and the machine facts the run depended on) and, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics.

End-to-end metrics, the same names on every workload (the summary line
repeats them under the workload's own names, given in brackets):

* ``primary_ms`` — artifacts: one pass over every artifact
  [artifacts_s]; explore: one cold pass of the nine explorations
  [explore_cold_s]; serve: ``/evaluate`` round trip, p50
  [request_p50_ms].
* ``secondary_ms`` — artifacts: the same pass without ``fig4``, i.e. the
  artifacts Monte Carlo does not dominate [artifacts_non_mc_s]; explore:
  one warm pass [explore_warm_s]; serve: round trip, p99
  [request_p99_ms].
* ``rate_per_s`` — artifacts per median pass second, and design points
  per median cold-pass second (``primary_ms`` as a throughput: the two
  workloads have no other one); serve: design points answered per
  second of request time [points_per_s].
* ``setup_s`` — process start to the first timed operation: imports,
  analysis of the three 32-bit kernels and compilation; for serve also
  server spawn until ``/readyz`` answers and one request per kernel,
  which makes the server analyze it.
  Median over ``SETUP_SAMPLES`` fresh processes.
* ``peak_rss_mb`` — peak resident memory of the process doing the work
  (serve: the server process).

Every time is taken at *reference speed*: scaled by 1 ms over the median
of the calibration samples taken alongside it, which cancels the host's
CPU-speed drift (see ``workloads.calibrate``); the summary line carries
the raw times. Timings are medians over the run. ``error_rate`` (failed /
attempted operations) is carried by ``attempted`` and ``failed`` and
printed in the summary line, since it is 0 when all is well.

The workloads, why each was chosen and what each bypasses are described
in ``workloads.py``; the per-layer split in ``tracer.py`` and
``worker.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import at_reference, calibrate  # noqa: E402

WORKLOADS = ("artifacts", "explore", "serve")
#: Fresh processes whose set-up time is measured (the working process
#: included); ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: Hard wall-clock budget of one benchmark invocation: ``BUDGET_S``, or
#: ``BUDGET_PER_SECOND`` per second of ``--seconds`` if that is more
#: (runs hold work in proportion to ``--seconds``, a traced serve run
#: twice over). Either way 170 s at the benchmark's 20 s.
BUDGET_S = 170.0
BUDGET_PER_SECOND = 8.5


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def filesystem_of(path: Path) -> str:
    """The filesystem type of the mount holding ``path`` (from /proc/mounts)."""
    best, fstype = "", "unknown"
    resolved = str(path.resolve())
    try:
        with open("/proc/mounts", encoding="utf-8") as handle:
            for line in handle:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                inside = resolved == mount or resolved.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


class Worker:
    """A ``worker.py`` subprocess in its own session (killed as a group)."""

    def __init__(self, argv: List[str], env: Dict[str, str]) -> None:
        # Machine speed right before the spawn, to put set-up time at
        # reference speed (see ``workloads.calibrate``).
        self.samples = [calibrate() for _ in range(5)]
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")] + argv,
            stdout=subprocess.PIPE,
            env=env,
            text=True,
            start_new_session=True,
        )
        self.lines: List[str] = []

    def _readline(self) -> Optional[str]:
        line = self.proc.stdout.readline()
        if not line:
            return None
        self.lines.append(line.rstrip("\n"))
        return self.lines[-1]

    def wait_ready(self) -> Tuple[float, float]:
        """Seconds from spawn to the worker's ``READY`` line: raw, and at
        reference speed."""
        while True:
            line = self._readline()
            if line is None:
                raise RuntimeError("worker exited before finishing set-up")
            if line == "READY":
                raw = time.perf_counter() - self.spawned
                return raw, at_reference(raw, self.samples)

    def finish(self) -> List[str]:
        while self._readline() is not None:
            pass
        self.proc.wait()
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with code {self.proc.returncode}")
        return self.lines

    def kill(self) -> None:
        if self.proc.poll() is None:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.proc.wait()


def run(args, spec, root: Path) -> Tuple[Dict, Dict]:
    workdir = root / ".perfbench_run" / str(os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    common = [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    workers: List[Worker] = []
    budget_s = max(BUDGET_S, BUDGET_PER_SECOND * args.seconds)

    def start(extra: List[str]) -> Worker:
        worker = Worker(common + extra, env)
        workers.append(worker)
        return worker

    def on_alarm(signum, frame):
        raise TimeoutError(f"benchmark exceeded {budget_s:.0f} s")

    def on_term(signum, frame):
        raise RuntimeError(f"stopped by signal {signum}")

    # Either way the ``finally`` below kills and reaps every worker.
    signal.signal(signal.SIGALRM, on_alarm)
    signal.signal(signal.SIGTERM, on_term)
    signal.alarm(int(budget_s))
    try:
        # Byte-compile first, so no set-up sample pays for it.
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", str(root / "src"), str(HERE)],
            check=True, stdout=subprocess.DEVNULL, env=env,
        )
        setups: List[Tuple[float, float]] = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                probe = start(["--probe"])
                setups.append(probe.wait_ready())
                probe.finish()
        worker = start([])
        setups.append(worker.wait_ready())
        lines = worker.finish()
    finally:
        signal.alarm(0)
        for worker in workers:
            worker.kill()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (root / ".perfbench_run").rmdir()
        except OSError:
            pass
    result = json.loads(lines[-1])
    summary = dict(result.get("summary", {}))
    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(ref for _, ref in setups)
        metrics["peak_rss_mb"] = result["peak_rss_mb"]
        summary["setup_raw_s"] = [raw for raw, _ in setups]
        summary["peak_rss_mb"] = result["peak_rss_mb"]
    summary.update(
        workload=args.workload,
        seed=args.seed,
        error_rate=result["failed"] / max(1, result["attempted"]),
        failures=result.get("reasons", []),
        machine={
            "nproc": os.cpu_count(),
            "store_filesystem": filesystem_of(root),
            "python": platform.python_version(),
        },
    )
    if args.trace:
        # A layer the workload does not reach (serve.* outside serve,
        # reporting.artifact.* outside artifacts) reads 0.
        out = {
            m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    else:
        missing = [m["name"] for m in spec["end_to_end"] if m["name"] not in metrics]
        if missing:
            raise KeyError(f"end-to-end metrics not measured: {missing}")
        out = {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    final = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": out,
    }
    return summary, final


def main() -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the repro package, split by layer."
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        return fail("run from the root of a repro checkout (src/repro not found)")
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    try:
        summary, final = run(args, spec, root)
    except (RuntimeError, TimeoutError, subprocess.CalledProcessError,
            ValueError, KeyError, IndexError) as exc:
        return fail(f"{type(exc).__name__}: {exc}")
    print(json.dumps({"summary": summary}))
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
