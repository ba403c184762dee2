"""The benchmark's workloads: what each runs, why, and how it is checked.

Every workload drives the ``repro`` package through its public API from
one process, the way a user's script or the ``repro`` CLI would. Inputs
are generated here from the benchmark's ``--seed``; the package only
ever sees the generated design points and strategy seeds.

The three workloads stress different layers on purpose, so that a change
to one layer has a workload that exercises it and one that bypasses it
(where the prediction is "no change"):

============  =========================  ==================================
workload      exercises                  bypasses
============  =========================  ==================================
artifacts     scalar Monte Carlo (~90%), result store, leases, wire,
              sweeps, reporting          server; batched MC (fig4 runs
                                         the scalar engine at this commit)
explore       store writes and reads,    Monte Carlo, reporting, wire,
              leases, dataflow at both   server admission and flights;
              batch shapes, evaluator    round journal (``explore()`` is
                                         called without ``journal=``)
serve         wire, admission, work      Monte Carlo, reporting, strategy
              lock, single-flight        loop; worker pools (one serial
              table, store hits/misses   evaluator per kernel)
============  =========================  ==================================
"""

from __future__ import annotations

import json
import math
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Sequence, Tuple

KERNELS = ("qrca", "qcla", "qft")
WIDTH = 32
HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"


def setup_kernels() -> None:
    """The set-up every workload pays before its first timed operation:
    analysis of the three 32-bit kernels, their compilation, and the
    speed-of-data schedule (which builds the dataflow metadata)."""
    from repro.kernels import analyze_kernel

    for kernel in KERNELS:
        analysis = analyze_kernel(kernel, WIDTH)
        analysis.compiled_circuit()
        analysis.zero_bandwidth_per_ms


#: Iterations of the calibration loop: about 1 ms on an unloaded core.
CALIBRATION_LOOPS = 6000
#: The speed reported times are scaled to: a calibration sample of 1 ms.
REFERENCE_S = 0.001


def calibrate() -> float:
    """Seconds one run of a fixed pure-Python loop takes right now.

    The CPU speed of a shared host drifts — by up to 1.7x over seconds
    to minutes on the 2-core machine this benchmark was tuned on (another
    tenant on the same cores) — far beyond any useful bound. So a sample
    is taken right before every timed operation, and end-to-end times are
    reported at *reference speed*: scaled by ``REFERENCE_S`` over the
    median sample of the unit they belong to (:func:`at_reference`),
    which cancels the drift. Raw times go to the summary line. The loop
    is the benchmark's own code: no change to ``repro`` can move it.
    """
    t0 = time.perf_counter()
    table: Dict[int, int] = {}
    for i in range(CALIBRATION_LOOPS):
        table[i & 1023] = table.get(i & 1023, 0) + i * 3
    return time.perf_counter() - t0


def at_reference(seconds: float, samples: Sequence[float]) -> float:
    """``seconds`` scaled to a machine on which a calibration sample takes
    ``REFERENCE_S``; ``samples`` were taken alongside the timed work."""
    return seconds * REFERENCE_S / median(samples)


def wilson(bad: int, n: int, z: float = 1.96) -> Tuple[float, float]:
    """Wilson score interval of a binomial rate.

    The same formula as ``MonteCarloResult.error_rate_interval``, kept
    here so that no change to the program can loosen its own check.
    """
    if n == 0:
        return (0.0, 1.0)
    p = bad / n
    denom = 1 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass
class Tally:
    """Operations attempted and failed, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: List[str] = field(default_factory=list)

    def record(self, error: Optional[str]) -> None:
        self.attempted += 1
        if error is not None:
            self.fail(error)

    def fail(self, error: str) -> None:
        self.failed += 1
        if len(self.reasons) < 10:
            self.reasons.append(error)


# ----------------------------------------------------------------------
# artifacts


#: Per-strategy trial count for Figure 4 (about 1.5 s of scalar Monte
#: Carlo per pass on one 2-core machine).
FIG4_TRIALS = 1000


def parse_fig4(text: str, trials: int) -> Dict[str, Tuple[int, int]]:
    """``{strategy: (bad, accepted)}`` recovered from the Figure 4 table.

    The table prints the error rate to three significant digits and the
    discard rate to 0.01%, which pins both counts exactly at the trial
    counts used here.
    """
    rows: Dict[str, Tuple[int, int]] = {}
    for line in text.splitlines()[3:]:
        fields = line.split()
        if len(fields) < 3:
            continue
        rate = float(fields[1])
        discard = float(fields[2].rstrip("%")) / 100.0
        accepted = round(trials * (1.0 - discard))
        rows[fields[0]] = (round(rate * accepted), accepted)
    return rows


def check_fig4(text: str, golden: Dict[str, object]) -> Optional[str]:
    """Each strategy's rate must overlap the golden's Wilson 95% interval.

    An RNG-stream change moves the rates within their statistical noise
    and passes; a broken error model moves them out of it and fails.
    """
    measured = parse_fig4(text, FIG4_TRIALS)
    expected = golden["strategies"]
    if sorted(measured) != sorted(expected):
        return f"fig4: strategies {sorted(measured)} != golden {sorted(expected)}"
    for strategy, (bad, accepted) in measured.items():
        lo, hi = wilson(bad, accepted)
        glo, ghi = wilson(expected[strategy]["bad"], expected[strategy]["accepted"])
        if hi < glo or ghi < lo:
            return (
                f"fig4 {strategy}: {bad}/{accepted} interval [{lo:.2e}, {hi:.2e}]"
                f" misses golden [{glo:.2e}, {ghi:.2e}]"
            )
    return None


class ArtifactsWorkload:
    """``artifacts``: every registered paper artifact, serial, in sorted
    key order, through ``repro.reporting.run_experiment`` — what
    ``repro all`` does. ``fig4`` runs at ``trials=FIG4_TRIALS``.

    Why: this is the user's "regenerate the paper" path. The scalar Monte
    Carlo engine does about 90% of the work and the dataflow engines
    about 1%, so Monte Carlo consolidation shows here and a dataflow
    change should not move ``primary_ms``; ``secondary_ms`` (every
    artifact except ``fig4``) is where analysis, sweep and reporting
    changes show.

    Bypasses: the result store and its leases (sweeps use store-less
    evaluators), the server and the wire, and the batched Monte Carlo
    engine (``fig4`` uses the scalar engine at this commit, so
    ``error.batched`` records no calls here).

    Inputs do not depend on the seed: the artifacts take none.

    One operation is one artifact; a pass is one run over all of them.
    """

    name = "artifacts"
    #: Wrappers that must record calls on this workload (traced runs).
    expected = (
        "kernels.analyze_kernel",
        "circuits.compile_circuit",
        "circuits.dataflow_metadata",
        "error.estimate",
        "ancilla.evaluate_strategy",
        "arch.simulate_batch",
        "arch.run",
        "explore.evaluate",
        "explore.explore",
        "reporting.run_experiment",
        "reporting.format",
    )

    def __init__(self, seed: int, workdir: Path) -> None:
        from repro.reporting import EXPERIMENTS

        self.keys = sorted(EXPERIMENTS)
        self.golden_text: Dict[str, Optional[str]] = {}
        for key in self.keys:
            path = GOLDEN / "artifacts" / f"{key}.txt"
            self.golden_text[key] = (
                path.read_text(encoding="utf-8") if path.exists() else None
            )
        fig4 = GOLDEN / "fig4.json"
        self.golden_fig4 = (
            json.loads(fig4.read_text(encoding="utf-8")) if fig4.exists() else None
        )
        #: Per pass: (raw seconds, raw seconds without fig4, calibration).
        self.passes: List[Tuple[float, float, List[float]]] = []
        self.artifact_s: Dict[str, float] = {key: 0.0 for key in self.keys}

    def check(self, key: str, text: str) -> Optional[str]:
        if key == "fig4":
            if self.golden_fig4 is None:
                return "fig4: golden missing"
            return check_fig4(text, self.golden_fig4)
        golden = self.golden_text.get(key)
        if golden is None:
            return f"{key}: golden missing"
        if text != golden:
            return f"{key}: output differs from golden"
        return None

    def one_pass(self, tally: Tally) -> None:
        from repro.reporting import run_experiment

        outputs: List[Tuple[str, Optional[str], Optional[str]]] = []
        samples: List[float] = []
        wall = mc = 0.0
        for key in self.keys:
            samples.append(calibrate())
            t0 = time.perf_counter()
            try:
                if key == "fig4":
                    text = run_experiment(key, trials=FIG4_TRIALS)
                else:
                    text = run_experiment(key)
                error = None
            except Exception as exc:  # an artifact that raises is a failed operation
                text, error = None, f"{key}: {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            self.artifact_s[key] += elapsed
            wall += elapsed
            if key == "fig4":
                mc = elapsed
            outputs.append((key, text, error))
        self.passes.append((wall, wall - mc, samples))
        for key, text, error in outputs:
            tally.record(error if error is not None else self.check(key, text))

    def run_timed(self, seconds: float, tally: Tally) -> None:
        deadline = time.perf_counter() + seconds
        while len(self.passes) < 3 or time.perf_counter() < deadline:
            self.one_pass(tally)

    def run_fixed(self, units: int, tally: Tally) -> None:
        for _ in range(units):
            self.one_pass(tally)

    def unit_seconds(self) -> List[float]:
        """Each pass's time at reference speed."""
        return [at_reference(wall, cal) for wall, _, cal in self.passes]

    def metrics(self) -> Dict[str, float]:
        passes = self.unit_seconds()
        return {
            "primary_ms": 1000.0 * median(passes),
            "secondary_ms": 1000.0 * median(
                [at_reference(non_mc, cal) for _, non_mc, cal in self.passes]
            ),
            "rate_per_s": len(self.keys) / median(passes),
        }

    def summary(self) -> Dict[str, float]:
        return {
            "artifacts_s": median([wall for wall, _, _ in self.passes]),
            "artifacts_non_mc_s": median([non_mc for _, non_mc, _ in self.passes]),
            "passes": len(self.passes),
        }


# ----------------------------------------------------------------------
# explore


#: Warm passes timed after each cold pass (a warm pass is ~45 ms, so one
#: sample per cold pass would be mostly noise).
WARM_PASSES = 5


def explorations(plan):
    """Fresh strategies for a plan's explorations, in order:
    ``(kernel, space, strategy name, strategy, budget)``."""
    from repro.explore import AdaptiveStrategy, GridStrategy, RandomStrategy

    for kernel, space, strategy_name, strategy_seed, budget in plan:
        if strategy_name == "grid":
            strategy = GridStrategy(space)
        elif strategy_name == "adaptive":
            strategy = AdaptiveStrategy(space, seed=strategy_seed)
        else:
            strategy = RandomStrategy(space, seed=strategy_seed)
        yield kernel, space, strategy_name, strategy, budget


class ExploreWorkload:
    """``explore``: for each of qrca/qcla/qft-32, ``repro.explore.explore``
    three times — grid over the full 42-point architecture grid, adaptive
    with budget 60 and random with budget 60, strategy seeds drawn from
    the workload seed. Each exploration gets a fresh serial spec-mode
    ``Evaluator`` (no workers) over one ``ResultStore`` in a fresh
    directory under the benchmark's working directory, which sits on the
    checkout's disk as a user's ``.repro_cache/`` would (not tmpfs).
    A cycle is one cold pass of the nine explorations against the empty
    store, then ``WARM_PASSES`` identical passes against the now-warm one.

    Why: the cold pass is store writes, lease claims and dataflow
    simulation at both batch shapes — grid sends one 42-point batch,
    random and adaptive send many small batches (up to 8 points), all
    through ``simulate_batch``; only a batch with a single miss would
    take ``DataflowSimulator.run``, so ``arch.run`` is not required to
    record calls here. The warm pass is pure store
    reads plus evaluator overhead, so a write-path gain that costs reads
    shows in ``secondary_ms``.

    Bypasses: Monte Carlo, reporting, the wire and the server, and the
    round journal (``explore()`` is called without ``journal=``, as the
    library API defaults; ``repro explore`` would also fsync a journal).

    One operation is one exploration.
    """

    name = "explore"
    expected = (
        "kernels.analyze_kernel",
        "circuits.compile_circuit",
        "circuits.dataflow_metadata",
        "arch.simulate_batch",
        "store.get",
        "store.put",
        "store.lease",
        "explore.evaluate",
        "explore.explore",
    )

    def __init__(self, seed: int, workdir: Path) -> None:
        from repro.explore import architecture_space
        from repro.kernels import analyze_kernel

        rng = random.Random(seed)
        self.plan: List[Tuple[str, object, str, int, int]] = []
        for kernel in KERNELS:
            space = architecture_space(analyze_kernel(kernel, WIDTH))
            self.plan.append((kernel, space, "grid", 0, space.grid_size()))
            self.plan.append((kernel, space, "adaptive", rng.randrange(2**31), 60))
            self.plan.append((kernel, space, "random", rng.randrange(2**31), 60))
        self.workdir = workdir
        self.cycles = 0
        #: Per cycle: the cold pass, then its warm passes, each as
        #: (raw seconds, calibration samples).
        self.units: List[List[Tuple[float, List[float]]]] = []
        self.cold_points = 0

    def one_pass(self, store):
        """The nine explorations: (results, raw seconds, calibration)."""
        from repro.explore import AdcrObjective, Evaluator, explore

        results = []
        samples: List[float] = []
        elapsed = 0.0
        for kernel, space, strategy_name, strategy, budget in explorations(self.plan):
            samples.append(calibrate())
            t0 = time.perf_counter()
            try:
                result = explore(
                    space, AdcrObjective(), strategy,
                    evaluator=Evaluator(kernel=kernel, width=WIDTH, store=store),
                    budget=budget,
                )
            except Exception as exc:  # a failed exploration is a failed operation
                result = f"{kernel}/{strategy_name}: {type(exc).__name__}: {exc}"
            elapsed += time.perf_counter() - t0
            results.append(result)
        return results, elapsed, samples

    @staticmethod
    def compare(cold, warm) -> Optional[str]:
        """A warm exploration must equal its cold one exactly."""
        if isinstance(warm, str):
            return warm
        if isinstance(cold, str):
            return f"cold pass failed: {cold}"
        label = f"{cold.kernel}/{cold.strategy_name}"
        if warm.simulations_run != 0:
            return f"{label}: warm pass ran {warm.simulations_run} simulations"
        if warm.evaluations != cold.evaluations or warm.scores != cold.scores:
            return f"{label}: warm evaluations or scores differ from cold"
        if warm.best_index != cold.best_index:
            return f"{label}: warm best point differs from cold"
        return None

    def one_cycle(self, tally: Tally) -> None:
        from repro.explore import ResultStore

        directory = self.workdir / f"explore-store-{self.cycles}"
        self.cycles += 1
        shutil.rmtree(directory, ignore_errors=True)
        store = ResultStore(directory)
        cold, elapsed, samples = self.one_pass(store)
        unit = [(elapsed, samples)]
        for result in cold:
            if isinstance(result, str):
                tally.record(result)
                continue
            self.cold_points += result.evaluated
            failures = result.failures
            tally.record(
                f"{result.kernel}/{result.strategy_name}: "
                f"{len(failures)} failed evaluations" if failures else None
            )
        for _ in range(WARM_PASSES):
            warm, elapsed, samples = self.one_pass(store)
            unit.append((elapsed, samples))
            for cold_result, warm_result in zip(cold, warm):
                tally.record(self.compare(cold_result, warm_result))
        self.units.append(unit)
        shutil.rmtree(directory, ignore_errors=True)

    def run_timed(self, seconds: float, tally: Tally) -> None:
        deadline = time.perf_counter() + seconds
        while self.cycles < 3 or time.perf_counter() < deadline:
            self.one_cycle(tally)

    def run_fixed(self, units: int, tally: Tally) -> None:
        for _ in range(units):
            self.one_cycle(tally)

    def unit_seconds(self) -> List[float]:
        """Each cycle's time (cold and warm passes) at reference speed."""
        return [sum(at_reference(*p) for p in unit) for unit in self.units]

    def metrics(self) -> Dict[str, float]:
        cold = [at_reference(*unit[0]) for unit in self.units]
        warm = [at_reference(*p) for unit in self.units for p in unit[1:]]
        return {
            "primary_ms": 1000.0 * median(cold),
            "secondary_ms": 1000.0 * median(warm),
            "rate_per_s": self.cold_points / len(cold) / median(cold),
        }

    def summary(self) -> Dict[str, float]:
        return {
            "explore_cold_s": median([unit[0][0] for unit in self.units]),
            "explore_warm_s": median(
                [p[0] for unit in self.units for p in unit[1:]]
            ),
            "cycles": self.cycles,
        }


# ----------------------------------------------------------------------
# serve


#: Points per request: ``RandomStrategy``'s default batch size and
#: ``AdaptiveStrategy``'s refinement batch (top_k x children), the size
#: of two thirds of the requests ``traffic_mix.py`` records.
POINTS_PER_REQUEST = 8
#: Shares of the points two clients send when each runs the ``explore``
#: workload's nine explorations through ``RemoteEvaluator`` against one
#: server, one request each in flight: already stored (``hit``), also in
#: the peer's concurrent request (``shared``), or neither (``miss``).
#: Measured by ``traffic_mix.py``; the same for every seed tried, since
#: hits and shared points come from the grid and coarse-grid batches,
#: which do not depend on the seed.
MEASURED_SHARES = {"hit": 0.099, "shared": 0.173, "miss": 0.728}


def split(shares: Dict[str, float], total: int) -> Dict[str, int]:
    """``total`` points divided in proportion to ``shares`` (largest
    remainder), in the order of ``shares``."""
    exact = {name: share * total / sum(shares.values()) for name, share in shares.items()}
    counts = {name: int(value) for name, value in exact.items()}
    by_remainder = sorted(exact, key=lambda name: counts[name] - exact[name])
    for name in by_remainder[: total - sum(counts.values())]:
        counts[name] += 1
    return counts


#: A request's points by class: grid points (store hits, the whole grid
#: being stored before the timed window), fresh samples sent by both clients of a pair
#: (single flight), and fresh samples private to one client (misses).
MIX = split(MEASURED_SHARES, POINTS_PER_REQUEST)
#: Architectures a request's fresh points span (the server simulates
#: one batch per architecture): ``traffic_mix.py`` measures 2.2 on
#: average over the 8-point requests (random batches span all three,
#: adaptive refinements one or two).
ARCHS_PER_REQUEST = 2
#: Request pairs per second of ``--seconds`` (about the rate one 2-core
#: machine sustains), but never fewer than ``MIN_PAIRS``: the schedule is
#: fixed by (seed, seconds), not by the clock, so counts repeat exactly
#: across runs, and it always holds at least 1,000 requests.
PAIRS_PER_SECOND = 8
MIN_PAIRS = 500
#: Request pairs of a traced run, whatever ``--seconds``: it reports no
#: percentiles, and sends its schedule twice (traced, then untraced).
TRACED_PAIRS = 250
CLIENTS = 2


def serve_pairs(seconds: float, trace: bool) -> int:
    """Request pairs in the ``serve`` schedule of one run."""
    if trace:
        return TRACED_PAIRS
    return max(MIN_PAIRS, int(PAIRS_PER_SECOND * seconds))


class ServerProcess:
    """``repro serve`` in a subprocess, started through ``serve_entry.py``.

    The entry script installs the same layer wrappers when traced and
    writes its totals (layer times, peak RSS) to ``totals`` after it
    drains on SIGTERM.
    """

    def __init__(self, workdir: Path, tag: str, trace: bool) -> None:
        self.store_dir = workdir / f"serve-store-{tag}"
        shutil.rmtree(self.store_dir, ignore_errors=True)
        self.port_file = workdir / f"serve-port-{tag}"
        self.totals_path = workdir / f"serve-totals-{tag}.json"
        self.log_path = workdir / f"serve-log-{tag}.txt"
        for path in (self.port_file, self.totals_path):
            if path.exists():
                path.unlink()
        self.log = open(self.log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [
                sys.executable, str(HERE / "serve_entry.py"),
                str(self.totals_path), "1" if trace else "0",
                "serve", "--port", "0", "--port-file", str(self.port_file),
                "--cache-dir", str(self.store_dir),
            ],
            stdout=self.log,
            stderr=subprocess.STDOUT,
        )
        self.url: Optional[str] = None

    def wait_ready(self, timeout: float = 60.0) -> str:
        from repro.serve import Client

        deadline = time.monotonic() + timeout
        while self.url is None:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited early: {self.tail()}")
            if time.monotonic() > deadline:
                raise RuntimeError("server did not report its port in time")
            try:
                text = self.port_file.read_text(encoding="utf-8")
            except OSError:
                text = ""
            if text.endswith("\n"):
                self.url = f"http://127.0.0.1:{int(text)}"
            else:
                time.sleep(0.005)
        probe = Client(self.url, timeout=5.0, retries=0)
        while not probe.probe():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"server never became ready: {self.tail()}")
            time.sleep(0.005)
        return self.url

    def tail(self) -> str:
        self.log.flush()
        try:
            return self.log_path.read_text(encoding="utf-8")[-2000:]
        except OSError:
            return ""

    def stop(self) -> Dict[str, object]:
        """SIGTERM, wait for the drain, and return the server's totals.

        Raises if the server wrote none: its drain failed or took longer
        than 60 s and it was killed. Its peak RSS is an end-to-end
        metric, so a run without it has no result.
        """
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        try:
            return json.loads(self.totals_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            raise RuntimeError(
                f"server (exit code {self.proc.returncode}) wrote no totals: "
                "its drain on SIGTERM failed or took over 60 s"
            ) from None
        finally:
            shutil.rmtree(self.store_dir, ignore_errors=True)


@dataclass
class Request:
    pair: int
    client: int
    kernel: str
    points: List[Dict[str, object]]
    seconds: float = 0.0
    evaluations: Optional[list] = None
    stats: Optional[Dict[str, int]] = None
    error: Optional[str] = None


class ServeWorkload:
    """``serve``: one ``repro serve --port 0 --port-file`` subprocess on
    loopback with its own store (one replica, default settings), and
    ``CLIENTS`` (= 2 = ``nproc`` here) client threads calling
    ``repro.serve.Client.evaluate`` with ``POINTS_PER_REQUEST``-point
    batches, the kernel rotating qrca/qcla/qft per request pair.

    Load model: a closed loop in lockstep pairs. Each client sends its
    next request only after its previous one returned, and both clients
    of pair ``i`` wait on a barrier before sending, so the two requests
    of a pair are always in flight together — as two users' explorations
    through ``RemoteEvaluator`` are. A batch mixes its points in the
    shares ``traffic_mix.py`` measured on such traffic
    (``MEASURED_SHARES``: 9.9% hits, 17.3% shared, 72.8% misses), which
    at 8 points is ``MIX``: 1 grid point drawn from the kernel's 42-point
    grid (a store hit), 1 fresh continuous sample sent by both clients
    of the pair (single-flight coalescing) and 6 fresh samples private
    to the client (misses), the fresh points spanning
    ``ARCHS_PER_REQUEST`` architectures (measured: 2.2 on average). The
    measured traffic carries its hits and shared points in 42- and
    9-point grid batches; here every request has the same size and mix,
    so per-request latency is one population.
    The schedule has ``serve_pairs(seconds, trace)`` pairs: untraced, at
    least 1,000 requests, so at least ten samples lie beyond p99; traced,
    ``TRACED_PAIRS``. Being fixed by (seed, seconds, trace), its counts
    repeat. On a 2-core machine the minimum schedule takes about 60 s.

    Why: this is the only workload with the wire, admission, the work
    lock and the ``_Flight`` table on the path — where flight/lease
    dedup and request tracing changes will show. The work lock
    serializes simulation, so a shorter hold cuts the other client's
    wait and p99 should move more than p50.

    Bypasses: Monte Carlo, reporting and the exploration loop. The
    3-replica case waits for a machine with more than 2 cores: here
    three server processes would measure the scheduler.

    One operation is one request. Set-up includes server spawn until
    ``/readyz`` answers and one single-point request per kernel, so the
    server's lazy kernel analysis is in set-up, not in the timed window.
    After set-up, untimed, one request per kernel carrying its whole
    grid fills the store, so every grid point is a store hit from the
    first request. That also makes the counts exact: whichever client
    of a pair registers its flights first, the owner simulates the
    shared point and its private ones and the follower only its private
    ones.
    """

    name = "serve"
    expected = (
        "kernels.analyze_kernel",
        "circuits.compile_circuit",
        "circuits.dataflow_metadata",
        "arch.simulate_batch",
        "store.get",
        "store.put",
        "store.lease",
        "explore.evaluate",
        "serve.client",
        "serve.protocol",
        "serve.service",
    )

    def __init__(self, seed: int, workdir: Path, pairs: int) -> None:
        from repro.explore import architecture_space
        from repro.kernels import analyze_kernel

        self.workdir = workdir
        rng = random.Random(seed)
        spaces = {k: architecture_space(analyze_kernel(k, WIDTH)) for k in KERNELS}
        grids = {k: spaces[k].grid_points() for k in KERNELS}
        self.warmup = [(k, grids[k]) for k in KERNELS]
        self.schedule: List[List[Tuple[str, List[Dict[str, object]]]]] = [
            [] for _ in range(CLIENTS)
        ]
        archs = spaces[KERNELS[0]].dimension("arch").choices
        for pair in range(pairs):
            kernel = KERNELS[pair % len(KERNELS)]
            space = spaces[kernel]
            # The fresh points of a request take ``ARCHS_PER_REQUEST``
            # architectures in turn (assigned, not drawn, rotating per
            # pair), so every request asks for the same number of
            # simulation batches and every seed for the same mix; only
            # factory areas and grid picks depend on the seed.
            order = [archs[(pair + i) % len(archs)] for i in range(ARCHS_PER_REQUEST)]

            def fresh(arch: str) -> Dict[str, object]:
                return {**space.sample(rng), "arch": arch}

            shared = [fresh(order[i % len(order)]) for i in range(MIX["shared"])]
            for client in range(CLIENTS):
                points = [rng.choice(grids[kernel]) for _ in range(MIX["hit"])]
                points += shared
                points += [
                    fresh(order[(MIX["shared"] + i) % len(order)])
                    for i in range(MIX["miss"])
                ]
                rng.shuffle(points)
                self.schedule[client].append((kernel, points))
        self.server: Optional[ServerProcess] = None
        self.servers = 0
        self.warmup_stats: List[Dict[str, int]] = []

    # -- set-up ---------------------------------------------------------

    def start(self, trace: bool) -> float:
        """Spawn a server, wait for ``/readyz``, and send each kernel's
        first grid point, which makes the server analyze the kernel.

        Returns the spawn-to-ready seconds (``serve.spawn_s``).
        """
        t0 = time.perf_counter()
        self.server = ServerProcess(self.workdir, str(self.servers), trace)
        self.servers += 1
        self.server.wait_ready()
        spawn_s = time.perf_counter() - t0
        self.warmup_stats = []
        self._send_warmup(lambda points: points[:1])
        return spawn_s

    def prefill(self) -> None:
        """Store every grid point: the store state the schedule's hits
        rely on. Untimed, and not set-up: it is the benchmark's input,
        as the earlier explorations that warmed a user's store are."""
        self._send_warmup(lambda points: points)

    def _send_warmup(self, pick) -> None:
        from repro.serve import Client

        client = Client(self.server.url, timeout=60.0, retries=0)
        for kernel, points in self.warmup:
            _, stats = client.evaluate(kernel, WIDTH, pick(points))
            self.warmup_stats.append(stats)

    def stop(self) -> Dict[str, object]:
        server, self.server = self.server, None
        return server.stop() if server is not None else {}

    # -- timed phase ----------------------------------------------------

    def run(self) -> "ServeRun":
        """Send the whole schedule; returns what every request saw."""
        from repro.obs import metrics
        from repro.serve import Client

        shed = metrics.counter("repro_client_backoffs_total")
        shed_before = shed.value
        # The barrier's action runs once per pair, while no request is in
        # flight: the calibration sample for that pair.
        samples: List[float] = []
        barrier = threading.Barrier(
            CLIENTS, action=lambda: samples.append(calibrate()), timeout=120.0
        )
        requests: List[List[Request]] = [[] for _ in range(CLIENTS)]
        busy_s = [0.0] * CLIENTS
        url = self.server.url

        def loop(index: int) -> None:
            client = Client(url, timeout=60.0, retries=0)
            out = requests[index]
            start = time.perf_counter()
            paired = 0.0
            for pair, (kernel, points) in enumerate(self.schedule[index]):
                request = Request(pair, index, kernel, points)
                t0 = time.perf_counter()
                try:
                    barrier.wait()
                except threading.BrokenBarrierError:
                    request.error = "barrier broken (peer client stalled)"
                    out.append(request)
                    continue
                paired += time.perf_counter() - t0
                t0 = time.perf_counter()
                try:
                    request.evaluations, request.stats = client.evaluate(
                        kernel, WIDTH, points
                    )
                except Exception as exc:  # refused, shed past retries, 5xx
                    request.error = f"{type(exc).__name__}: {exc}"
                request.seconds = time.perf_counter() - t0
                out.append(request)
            # Time spent waiting for the peer at the barrier is the
            # benchmark's own pacing, not work: it is left out.
            busy_s[index] = time.perf_counter() - start - paired

        threads = [
            threading.Thread(target=loop, args=(i,), name=f"bench-client-{i}")
            for i in range(CLIENTS)
        ]
        t0 = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - t0
        return ServeRun(
            requests=[r for per_client in requests for r in per_client],
            wall_s=wall,
            busy_s=sum(busy_s),
            shed=int(shed.value - shed_before),
            warmup_stats=list(self.warmup_stats),
            samples=samples,
        )


@dataclass
class ServeRun:
    requests: List[Request]
    wall_s: float
    busy_s: float
    shed: int
    warmup_stats: List[Dict[str, int]]
    #: One calibration sample per pair, taken just before it was sent.
    samples: List[float]

    def counts(self) -> Dict[str, int]:
        """Server-side work from the responses' counter deltas."""
        stats = [r.stats for r in self.requests if r.stats] + self.warmup_stats
        return {
            "simulations": sum(s.get("simulations_run", 0) for s in stats),
            "coalesced_points": sum(s.get("coalesced_points", 0) for s in stats),
        }

    def check(self, warmup: Sequence[Tuple[str, List[Dict]]], tally: Tally) -> Dict[str, int]:
        """Check every served evaluation against a local evaluation.

        Runs after the timed window: each distinct point is evaluated
        locally with ``evaluate_design_points`` and compared exactly.
        Also derives ``double_simulations``: simulations beyond one per
        distinct point (the store starts empty, so each distinct point
        should be simulated exactly once).
        """
        from repro.explore import Evaluator, KernelSummary, evaluate_design_points
        from repro.kernels import analyze_kernel

        canonicalizers = {k: Evaluator(kernel=k, width=WIDTH) for k in KERNELS}
        distinct: Dict[str, Dict[str, Dict[str, object]]] = {k: {} for k in KERNELS}
        keyed: List[Tuple[Request, List[str]]] = []
        for kernel, points in warmup:
            for point in points:
                key = canonicalizers[kernel].canonical_key(point)
                distinct[kernel][key] = canonicalizers[kernel].canonicalize(point)
        for request in self.requests:
            evaluator = canonicalizers[request.kernel]
            keys = []
            for point in request.points:
                key = evaluator.canonical_key(point)
                distinct[request.kernel].setdefault(key, evaluator.canonicalize(point))
                keys.append(key)
            keyed.append((request, keys))
        reference: Dict[Tuple[str, str], object] = {}
        for kernel, points in distinct.items():
            analysis = analyze_kernel(kernel, WIDTH)
            evaluations = evaluate_design_points(
                KernelSummary.from_analysis(analysis),
                list(points.values()),
                analysis.compiled_circuit(),
                "compiled",
            )
            for key, evaluation in zip(points, evaluations):
                reference[(kernel, key)] = evaluation
        for request, keys in keyed:
            if request.error is not None:
                tally.record(f"request {request.pair}/{request.client}: {request.error}")
                continue
            if len(request.evaluations) != len(keys):
                tally.record(f"request {request.pair}/{request.client}: wrong length")
                continue
            mismatch = next(
                (
                    key for key, served in zip(keys, request.evaluations)
                    if served != reference[(request.kernel, key)]
                ),
                None,
            )
            tally.record(
                None if mismatch is None else
                f"request {request.pair}/{request.client}: evaluation of "
                f"{mismatch} differs from local evaluate_design_points"
            )
        if self.shed:
            tally.fail(f"{self.shed} requests shed with 429")
        counts = self.counts()
        expected = sum(len(points) for points in distinct.values())
        counts["double_simulations"] = counts["simulations"] - expected
        if counts["double_simulations"] != 0:
            tally.fail(
                f"{counts['simulations']} simulations for {expected} distinct points"
            )
        return counts

    def _answered(self) -> List[Request]:
        return [r for r in self.requests if r.error is None]

    def _scales(self) -> List[float]:
        """Per pair, the factor to reference speed: from the median of
        the calibration samples of the eleven pairs around it."""
        return [
            REFERENCE_S / median(self.samples[max(0, i - 5):i + 6])
            for i in range(len(self.samples))
        ]

    def pair_seconds(self) -> float:
        """Total time the pairs took (the slower request of each), at
        reference speed."""
        scales = self._scales()
        slowest: Dict[int, float] = {}
        for r in self._answered():
            slowest[r.pair] = max(slowest.get(r.pair, 0.0), r.seconds)
        return sum(seconds * scales[pair] for pair, seconds in slowest.items())

    def metrics(self) -> Dict[str, float]:
        scales = self._scales()
        answered = self._answered()
        latencies = [1000.0 * r.seconds * scales[r.pair] for r in answered]
        cuts = statistics.quantiles(latencies, n=100, method="inclusive")
        points = sum(len(r.points) for r in answered)
        return {
            "primary_ms": median(latencies),
            "secondary_ms": cuts[98],
            "rate_per_s": points / self.pair_seconds(),
        }

    def summary(self) -> Dict[str, float]:
        answered = self._answered()
        latencies = [1000.0 * r.seconds for r in answered]
        return {
            "request_p50_ms": median(latencies),
            "request_p99_ms": statistics.quantiles(
                latencies, n=100, method="inclusive"
            )[98],
            "points_per_s": sum(len(r.points) for r in answered) / self.wall_s,
            "requests": len(self.requests),
        }
