"""Point evaluation: lower a design point to a simulator run.

The :class:`Evaluator` is the bridge between abstract design points
(dicts of dimension name -> value, see :mod:`repro.explore.space`) and
the compiled dataflow engine. It

* canonicalizes points (fills architecture-specific defaults, drops
  irrelevant dimensions) so equivalent configurations collapse to one
  evaluation;
* deduplicates repeated points within a batch;
* consults a :class:`~repro.explore.store.ResultStore` so warm re-runs
  and refined searches perform zero repeat simulations;
* resolves homogeneous miss batches through
  :func:`repro.arch.batched.simulate_batch`: misses sharing a kernel,
  movement discipline, and CQLA configuration — every steady-supply
  point, and every QLA/CQLA/Multiplexed architecture point of one
  configuration — go in one call, which picks per group, from its
  shape alone, between one numpy pass over a ``(points, qubits)`` state
  matrix and N serial :meth:`DataflowSimulator.run` walks,
  bit-identically either way;
* shards cache misses across ``workers=N`` processes, compiling the
  kernel **once per worker** via a ``ProcessPoolExecutor`` initializer —
  tasks are bare point-dict chunks, so nothing heavyweight is re-pickled,
  and each worker batch-resolves its shard of the points axis;
* **survives worker failure**: each chunk is its own future with a
  configurable ``timeout``; a crashed worker (``BrokenProcessPool`` —
  SIGKILL, OOM, segfault) rebuilds the pool and re-enqueues the lost
  chunks; a failing chunk is *bisected* until the offending point is
  isolated, retried ``retries`` times with exponential backoff, and
  finally **quarantined** — returned as a structured failed
  :class:`Evaluation` (``error`` set, score ``inf`` downstream) instead
  of sinking its chunk-mates or the whole exploration. If the pool
  proves unrecoverable, evaluation degrades to serial in-process runs.
  Successful results stay bit-identical to the serial path throughout;
* **coordinates with concurrent evaluators** sharing one result store
  through the store's lease protocol: misses are claimed before
  simulation, contested points are awaited (the other evaluator's
  result arrives as a cache hit), and stale leases from dead evaluators
  are reclaimed — so N explorers over one keyspace simulate each unique
  point at most once.

Two construction modes:

* ``Evaluator(analysis=ka)`` — evaluate against a prebuilt
  :class:`~repro.kernels.analysis.KernelAnalysis` (what the sweeps use);
* ``Evaluator(kernel="qcla", width=32)`` — evaluate against a kernel
  *specification*; workers rebuild the (memoized) analysis themselves,
  and the ``tech_scale`` and ``code_level`` dimensions become available
  because the evaluator can re-characterize the kernel under scaled
  technology or at a higher code-concatenation level
  (``tech.at_level(L)``). Misses are grouped per (scale, level), so a
  ``code_level`` sweep still resolves through the point-batched engine
  one level at a time.
"""

from __future__ import annotations

import math
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch.architectures import (
    ArchitectureKind,
    CqlaConfig,
    MultiplexedConfig,
    QlaConfig,
)
from repro.arch.simulator import DataflowSimulator, SimulationResult
from repro.arch.supply import PI8, ZERO, SteadyRateSupply
from repro.circuits.compiled import CompiledCircuit, compile_circuit
from repro.explore.store import ResultStore, StoreKey, canonical_json
from repro.layout.region import data_qubit_area
from repro.obs import metrics as _metrics
from repro.obs.trace import flush_worker, span as _span, worker_init_from_env
from repro.tech import ION_TRAP, TechnologyParams
from repro.testing import faults
from repro.util.backoff import Backoff

#: Dimension names the lowering understands.
KNOWN_DIMENSIONS = frozenset(
    {
        "arch",
        "factory_area",
        "cqla_cache_fraction",
        "cqla_ports",
        "region_span",
        "zero_rate",
        "pi8_ratio",
        "tech_scale",
        "code_level",
    }
)


@dataclass(frozen=True)
class KernelSummary:
    """The slice of a kernel analysis the lowering needs (picklable)."""

    name: str
    circuit: object
    tech: TechnologyParams
    data_qubits: int
    zero_bandwidth_per_ms: float
    pi8_bandwidth_per_ms: float

    @classmethod
    def from_analysis(cls, analysis) -> "KernelSummary":
        return cls(
            name=analysis.name,
            circuit=analysis.circuit,
            tech=analysis.tech,
            data_qubits=analysis.data_qubits,
            zero_bandwidth_per_ms=analysis.zero_bandwidth_per_ms,
            pi8_bandwidth_per_ms=analysis.pi8_bandwidth_per_ms,
        )


@dataclass(frozen=True)
class Evaluation:
    """One evaluated design point: simulation outcome plus area accounting.

    A *failed* evaluation (a quarantined poison point) carries
    ``result=None`` and a human-readable ``error``; it scores ``inf``
    under every objective and is excluded from Pareto fronts and
    per-dimension winners. Check :attr:`ok` before touching ``result``.
    """

    point: Tuple[Tuple[str, object], ...]
    result: Optional[SimulationResult]
    factory_area: float
    data_area: float
    total_area: float
    from_cache: bool = field(default=False, compare=False)
    error: Optional[str] = None

    @classmethod
    def failure(cls, point: Dict[str, object], error: str) -> "Evaluation":
        """A structured evaluation failure for a quarantined point."""
        return cls(
            point=tuple(sorted(point.items())),
            result=None,
            factory_area=0.0,
            data_area=0.0,
            total_area=0.0,
            error=error,
        )

    @property
    def ok(self) -> bool:
        return self.error is None and self.result is not None

    @property
    def point_dict(self) -> Dict[str, object]:
        return dict(self.point)

    @property
    def makespan_ms(self) -> float:
        return math.inf if self.result is None else self.result.makespan_ms


def tech_fingerprint(tech: TechnologyParams) -> Dict[str, object]:
    """Every field that shapes simulation, for content-addressed keys."""
    return {
        "name": tech.name,
        "t_1q": tech.t_1q,
        "t_2q": tech.t_2q,
        "t_meas": tech.t_meas,
        "t_prep": tech.t_prep,
        "t_move": tech.t_move,
        "t_turn": tech.t_turn,
        "errors": asdict(tech.errors),
    }


# ----------------------------------------------------------------------
# Lowering


def _canonicalize(
    point: Dict[str, object],
    cqla: Optional[CqlaConfig],
    allow_recharacterize: bool,
) -> Dict[str, object]:
    """Resolve defaults and drop irrelevant dimensions.

    Equivalent configurations (a QLA point annotated with CQLA cache
    dims, an explicit default region span, ``tech_scale == 1``,
    ``code_level == 1``) collapse to one canonical dict, which is what
    the dedupe pass and the result store key on.
    """
    unknown = set(point) - KNOWN_DIMENSIONS
    if unknown:
        raise ValueError(
            f"unknown dimensions {sorted(unknown)}; "
            f"supported: {sorted(KNOWN_DIMENSIONS)}"
        )
    canonical: Dict[str, object] = {}
    scale = float(point.get("tech_scale", 1.0))
    if scale != 1.0:
        if not allow_recharacterize:
            raise ValueError(
                "tech_scale requires a kernel specification "
                "(Evaluator(kernel=..., width=...)); an evaluator built "
                "from a fixed analysis cannot re-characterize the kernel"
            )
        if scale <= 0:
            raise ValueError(f"tech_scale must be positive, got {scale}")
        canonical["tech_scale"] = scale
    raw_level = point.get("code_level", 1)
    if float(raw_level) != int(raw_level):
        raise ValueError(f"code_level must be an integer, got {raw_level!r}")
    level = int(raw_level)
    if level != 1:
        if level < 1:
            raise ValueError(f"code_level must be >= 1, got {level}")
        if not allow_recharacterize:
            raise ValueError(
                "code_level requires a kernel specification "
                "(Evaluator(kernel=..., width=...)); an evaluator built "
                "from a fixed analysis cannot re-characterize the kernel "
                "at another concatenation level"
            )
        canonical["code_level"] = level

    if "zero_rate" in point:
        if "arch" in point or "factory_area" in point:
            raise ValueError(
                "a point is either a steady-supply point (zero_rate) or an "
                f"architecture point (arch/factory_area), not both: {point}"
            )
        canonical["zero_rate"] = float(point["zero_rate"])
        canonical["pi8_ratio"] = float(point.get("pi8_ratio", 0.0))
        return canonical

    if "arch" not in point or "factory_area" not in point:
        raise ValueError(
            f"an architecture point needs 'arch' and 'factory_area': {point}"
        )
    kind = point["arch"]
    kind = kind.value if isinstance(kind, ArchitectureKind) else str(kind)
    ArchitectureKind(kind)  # validates
    canonical["arch"] = kind
    canonical["factory_area"] = float(point["factory_area"])
    if kind == ArchitectureKind.CQLA.value:
        default = cqla or CqlaConfig()
        canonical["cqla_cache_fraction"] = float(
            point.get("cqla_cache_fraction", default.cache_fraction)
        )
        canonical["cqla_ports"] = int(point.get("cqla_ports", default.ports))
    elif kind == ArchitectureKind.MULTIPLEXED.value:
        canonical["region_span"] = int(
            point.get("region_span", MultiplexedConfig().region_span)
        )
    return canonical


@dataclass(frozen=True)
class _LoweredPoint:
    """A canonical point resolved to concrete simulator inputs."""

    supply: object
    move_1q: float
    move_2q: float
    cqla: Optional[CqlaConfig]
    factory_area: float


def _lower_point(summary: KernelSummary, point: Dict[str, object]) -> _LoweredPoint:
    """Resolve one *canonical* design point to supply + movement + area."""
    tech = summary.tech
    circuit = summary.circuit
    if "zero_rate" in point:
        rate = point["zero_rate"]
        ratio = point["pi8_ratio"]
        from repro.arch.provisioning import factory_area_for_rates

        return _LoweredPoint(
            supply=SteadyRateSupply({ZERO: rate, PI8: rate * ratio}),
            move_1q=0.0,
            move_2q=0.0,
            cqla=None,
            factory_area=factory_area_for_rates(rate, rate * ratio, tech),
        )
    kind = ArchitectureKind(point["arch"])
    cache: Optional[CqlaConfig] = None
    if kind is ArchitectureKind.QLA:
        config = QlaConfig()
    elif kind is ArchitectureKind.CQLA:
        config = CqlaConfig(
            cache_fraction=point["cqla_cache_fraction"],
            ports=point["cqla_ports"],
        )
        cache = config
    else:
        config = MultiplexedConfig(region_span=point["region_span"])
    factory_area = float(point["factory_area"])
    supply = config.build_supply(
        factory_area,
        circuit.num_qubits,
        summary.zero_bandwidth_per_ms,
        summary.pi8_bandwidth_per_ms,
        tech,
    )
    return _LoweredPoint(
        supply=supply,
        move_1q=config.movement_penalty(False, tech),
        move_2q=config.movement_penalty(True, tech),
        cqla=cache,
        factory_area=factory_area,
    )


def _run_lowered(
    summary: KernelSummary,
    lowered: _LoweredPoint,
    compiled: Optional[CompiledCircuit],
) -> SimulationResult:
    """One serial simulator run of an already-lowered point."""
    return DataflowSimulator(
        summary.circuit,
        summary.tech,
        supply=lowered.supply,
        movement_penalty_us=lowered.move_1q,
        two_qubit_movement_penalty_us=lowered.move_2q,
        cqla=lowered.cqla,
        compiled=compiled,
    ).run()


def _evaluation(
    summary: KernelSummary,
    point: Dict[str, object],
    lowered: _LoweredPoint,
    result: SimulationResult,
) -> Evaluation:
    data_area = float(data_qubit_area(summary.data_qubits))
    return Evaluation(
        point=tuple(sorted(point.items())),
        result=result,
        factory_area=lowered.factory_area,
        data_area=data_area,
        total_area=lowered.factory_area + data_area,
    )


def evaluate_design_point(
    summary: KernelSummary,
    point: Dict[str, object],
    compiled: Optional[CompiledCircuit],
) -> Evaluation:
    """Run one *canonical* design point through the dataflow simulator."""
    lowered = _lower_point(summary, point)
    result = _run_lowered(summary, lowered, compiled)
    return _evaluation(summary, point, lowered, result)


def evaluate_design_points(
    summary: KernelSummary,
    points: Sequence[Dict[str, object]],
    compiled: Optional[CompiledCircuit],
    engine: str = "compiled",
) -> List[Evaluation]:
    """Evaluate many *canonical* points, batching homogeneous runs.

    Points sharing a movement discipline and CQLA configuration (all
    steady-supply points; all architecture points of one
    kind/configuration, cache modes included) resolve through one
    :func:`repro.arch.batched.simulate_batch` call, which chooses from
    the group's shape between a single vectorized pass and per-point
    ``run()`` walks. Results are bit-identical to per-point evaluation
    either way.

    ``engine`` accepts only ``"compiled"`` (anything else raises
    ``ValueError``): it survives solely so existing four-argument
    callers keep working, and a later benchmark change removes it.
    """
    if engine != "compiled":
        raise ValueError(
            f"unknown engine {engine!r}; the only dataflow engine is 'compiled'"
        )
    lowered = [_lower_point(summary, point) for point in points]
    out: List[Optional[Evaluation]] = [None] * len(points)
    groups: Dict[
        Tuple[float, float, Optional[CqlaConfig]], List[int]
    ] = {}
    for i, lp in enumerate(lowered):
        groups.setdefault((lp.move_1q, lp.move_2q, lp.cqla), []).append(i)
    from repro.arch.batched import simulate_batch

    for (move_1q, move_2q, cqla), indices in groups.items():
        results = simulate_batch(
            summary.circuit,
            [lowered[i].supply for i in indices],
            summary.tech,
            movement_penalty_us=move_1q,
            two_qubit_movement_penalty_us=move_2q,
            cqla=cqla,
            compiled=compiled,
        )
        for i, result in zip(indices, results):
            out[i] = _evaluation(summary, points[i], lowered[i], result)
    return out


# ----------------------------------------------------------------------
# Worker-process plumbing: compile once per worker, reference per task.

_WORKER: Dict[str, object] = {}


def _init_worker_summary(summary: KernelSummary) -> None:
    """Pool initializer (analysis mode): one compilation per worker."""
    worker_init_from_env()
    _WORKER.clear()
    _WORKER["mode"] = "summary"
    _WORKER["summary"] = summary
    _WORKER["compiled"] = compile_circuit(summary.circuit, summary.tech)


def _init_worker_spec(kernel: str, width: int, tech: TechnologyParams) -> None:
    """Pool initializer (spec mode): workers re-derive analyses lazily."""
    worker_init_from_env()
    _WORKER.clear()
    _WORKER["mode"] = "spec"
    _WORKER["spec"] = (kernel, width, tech)
    _WORKER["scales"] = {}


def _summary_for_spec(
    kernel: str,
    width: int,
    tech: TechnologyParams,
    scale: float,
    level: int = 1,
) -> Tuple[KernelSummary, CompiledCircuit]:
    from repro.kernels.analysis import analyze_kernel

    scaled = tech if scale == 1.0 else tech.scaled(scale)
    analysis = analyze_kernel(kernel, width, scaled, code_level=level)
    return KernelSummary.from_analysis(analysis), analysis.compiled_circuit()


def _recharacterize_key(point: Dict[str, object]) -> Tuple[float, int]:
    """(tech_scale, code_level) — the re-characterization group key."""
    return (
        float(point.get("tech_scale", 1.0)),
        int(point.get("code_level", 1)),
    )


def _evaluate_grouped(
    context, points: Sequence[Dict[str, object]]
) -> List[Evaluation]:
    """Evaluate ``points``, batching per (tech_scale, code_level) group.

    Points sharing a technology scale and a concatenation level share a
    summary/compiled context from ``context(point)``; each group then
    resolves through :func:`evaluate_design_points`, so a sweep over
    ``code_level`` runs each level's homogeneous points through the
    point-batched engine. Output order matches input order.
    """
    for point in points:
        faults.check("evaluate", point)
    out: List[Optional[Evaluation]] = [None] * len(points)
    by_key: Dict[Tuple[float, int], List[int]] = {}
    for i, point in enumerate(points):
        by_key.setdefault(_recharacterize_key(point), []).append(i)
    for indices in by_key.values():
        summary, compiled = context(points[indices[0]])
        evaluations = evaluate_design_points(
            summary, [points[i] for i in indices], compiled
        )
        for i, evaluation in zip(indices, evaluations):
            out[i] = evaluation
    return out


def _worker_context(point: Dict[str, object]):
    """Resolve (summary, compiled) for one point from worker state."""
    if _WORKER["mode"] == "summary":
        return _WORKER["summary"], _WORKER["compiled"]
    kernel, width, tech = _WORKER["spec"]
    scale, level = _recharacterize_key(point)
    cached = _WORKER["scales"].get((scale, level))
    if cached is None:
        cached = _summary_for_spec(kernel, width, tech, scale, level)
        _WORKER["scales"][(scale, level)] = cached
    return cached


def _worker_evaluate_chunk(points: List[Dict[str, object]]) -> List[Evaluation]:
    """One worker's shard of the points axis, batch-resolved in-process.

    Traced as ``evaluate.chunk``; when the parent armed a spool directory
    (:data:`repro.obs.trace.SPOOL_ENV`), completed events are flushed to
    this worker's spool file after every chunk so a crash loses at most
    one chunk's spans.
    """
    try:
        with _span("evaluate.chunk", points=len(points)):
            return _evaluate_grouped(_worker_context, points)
    finally:
        flush_worker()


# ----------------------------------------------------------------------


class Evaluator:
    """Batches design points through the dataflow engine.

    Args:
        analysis: Prebuilt kernel analysis (analysis mode). Mutually
            exclusive with ``kernel``/``width``.
        kernel: Kernel name (spec mode, e.g. ``"qcla"``); enables the
            ``tech_scale`` and ``code_level`` dimensions and
            kernel-identity store keys.
        width: Kernel bit width (spec mode).
        tech: Technology parameters (spec mode; analysis mode inherits
            the analysis's).
        workers: When > 1, shard store misses across this many worker
            processes (each worker batch-resolves its contiguous slice
            of the points axis). The kernel is compiled once per worker
            by the pool initializer; results are identical to a serial
            run.
        compiled: Optional prebuilt compiled circuit (serial runs).
        cqla: Default CQLA configuration for points that do not pin
            ``cqla_cache_fraction`` / ``cqla_ports`` explicitly.
        store: Optional :class:`ResultStore`; every evaluation is
            persisted and repeat points are served from disk.
        retries: How many times a failing point is retried (after
            bisection has isolated it) before being quarantined.
        timeout: Per-chunk wall-clock budget in seconds for pooled
            evaluation; an overdue chunk's workers are killed, the pool
            rebuilt and the chunk retried/bisected. ``None`` disables.
        retry_backoff: Base of the shared full-jitter exponential
            backoff policy (:class:`repro.util.backoff.Backoff`, capped
            at 2 s) slept between retries and pool rebuilds; 0 disables
            sleeping.
        leases: Coordinate with concurrent evaluators sharing ``store``
            via its lease protocol (claim misses, await contested
            points, reclaim stale leases). Ignored without a store.
        heartbeat_interval: Seconds between lease-heartbeat refreshes at
            batch boundaries; must be smaller than the store's
            ``lease_ttl`` (a heartbeat slower than the TTL would let a
            *live* evaluator's lease be reclaimed). Default: a quarter
            of the TTL, capped at 5 s.

    Counters (reset never; read via :meth:`stats` after a run):

    * ``simulations_run`` — fresh, successful simulator evaluations;
    * ``cache_hits`` — points served from the result store;
    * ``dedup_hits`` — points collapsed onto an identical batch-mate;
    * ``retries`` — point/chunk re-executions after a failure;
    * ``worker_crashes`` — pool breakages and timeout kills survived;
    * ``quarantined`` — points that kept failing and were isolated.
    """

    def __init__(
        self,
        analysis=None,
        *,
        kernel: Optional[str] = None,
        width: Optional[int] = None,
        tech: TechnologyParams = ION_TRAP,
        workers: Optional[int] = None,
        compiled: Optional[CompiledCircuit] = None,
        cqla: Optional[CqlaConfig] = None,
        store: Optional[ResultStore] = None,
        retries: int = 2,
        timeout: Optional[float] = None,
        retry_backoff: float = 0.1,
        leases: bool = True,
        heartbeat_interval: Optional[float] = None,
    ) -> None:
        if (analysis is None) == (kernel is None):
            raise ValueError("pass exactly one of analysis= or kernel=/width=")
        if kernel is not None and width is None:
            raise ValueError("spec mode needs width= alongside kernel=")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        if heartbeat_interval is not None:
            if heartbeat_interval <= 0:
                raise ValueError(
                    f"heartbeat_interval must be positive, got {heartbeat_interval}"
                )
            if store is not None and heartbeat_interval >= store.lease_ttl:
                raise ValueError(
                    f"heartbeat_interval ({heartbeat_interval}s) must be "
                    f"smaller than the store's lease_ttl ({store.lease_ttl}s); "
                    "a live lease must be refreshed before it can go stale"
                )
        self._analysis = analysis
        self._kernel = kernel
        self._width = width
        self._tech = analysis.tech if analysis is not None else tech
        self._workers = workers
        self._cqla = cqla
        self.store = store
        self._retries = retries
        self._timeout = timeout
        self._backoff = Backoff(base=retry_backoff, cap=2.0)
        self._leases = leases
        self._heartbeat_interval = heartbeat_interval
        self._lease_poll = 0.05
        self._quarantine: Dict[str, str] = {}
        self._active_leases: List[StoreKey] = []
        self._last_heartbeat = 0.0
        self.simulations_run = 0
        self.cache_hits = 0
        self.dedup_hits = 0
        self.retries = 0
        self.worker_crashes = 0
        self.quarantined = 0
        # Pre-register the registry mirrors so a metrics snapshot always
        # carries every evaluator counter, zero-valued ones included.
        for name in ("simulations_run", "cache_hits", "dedup_hits",
                     "retries", "worker_crashes", "quarantined"):
            _metrics.counter(f"repro_{name}_total")
        self._summary: Optional[KernelSummary] = (
            KernelSummary.from_analysis(analysis) if analysis is not None else None
        )
        self._compiled = compiled
        self._scales: Dict[
            Tuple[float, int], Tuple[KernelSummary, CompiledCircuit]
        ] = {}
        self._gates: Optional[int] = None
        self._key_base: Optional[Dict[str, object]] = None

    # ------------------------------------------------------------------

    def canonicalize(self, point: Dict[str, object]) -> Dict[str, object]:
        return _canonicalize(
            point, self._cqla, allow_recharacterize=self._analysis is None
        )

    def canonical_key(self, point: Dict[str, object]) -> str:
        """Stable identity string for dedupe across batches."""
        return canonical_json(self.canonicalize(point))

    def _serial_context(
        self, point: Dict[str, object]
    ) -> Tuple[KernelSummary, CompiledCircuit]:
        if self._summary is not None:
            if self._compiled is None:
                self._compiled = compile_circuit(
                    self._summary.circuit, self._summary.tech
                )
            return self._summary, self._compiled
        scale, level = _recharacterize_key(point)
        cached = self._scales.get((scale, level))
        if cached is None:
            cached = _summary_for_spec(
                self._kernel, self._width, self._tech, scale, level
            )
            self._scales[(scale, level)] = cached
        return cached

    def _gate_count(self) -> int:
        """Decomposed gate count (circuit fingerprint) — no compilation.

        Spec mode reads it off the (memoized) kernel analysis directly so
        fully-warm runs never pay the array-form lowering.
        """
        if self._summary is not None:
            return len(self._summary.circuit)
        if self._gates is None:
            from repro.kernels.analysis import analyze_kernel

            self._gates = len(
                analyze_kernel(self._kernel, self._width, self._tech).circuit
            )
        return self._gates

    def _store_key(self, canonical: Dict[str, object]) -> Dict[str, object]:
        if self._key_base is None:
            # Everything but the point is fixed for this evaluator (the
            # tech is immutable), so it is built on first use only.
            if self._kernel is not None:
                identity: Dict[str, object] = {
                    "kernel": self._kernel,
                    "width": self._width,
                }
            else:
                identity = {"kernel": self._summary.name, "width": None}
            self._key_base = {
                **identity,
                "gates": self._gate_count(),
                "tech": tech_fingerprint(self._tech),
                # A constant now that there is one engine; kept in the
                # key so stores and journals written before it stay warm.
                "engine": "compiled",
            }
        return {**self._key_base, "point": canonical}

    # ------------------------------------------------------------------
    # Store (de)serialization

    @staticmethod
    def _to_record(evaluation: Evaluation) -> Dict[str, object]:
        return {
            "result": asdict(evaluation.result),
            "areas": {
                "factory": evaluation.factory_area,
                "data": evaluation.data_area,
                "total": evaluation.total_area,
            },
            "point": dict(evaluation.point),
        }

    @staticmethod
    def _from_record(
        record: Dict[str, object], canonical: Dict[str, object]
    ) -> Optional[Evaluation]:
        try:
            result = SimulationResult(**record["result"])
            areas = record["areas"]
            return Evaluation(
                point=tuple(sorted(canonical.items())),
                result=result,
                factory_area=float(areas["factory"]),
                data_area=float(areas["data"]),
                total_area=float(areas["total"]),
                from_cache=True,
            )
        except (KeyError, TypeError, ValueError):
            return None

    # ------------------------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        """Bump a health counter and mirror it into the metrics registry.

        The per-instance ints stay authoritative for :meth:`stats` (and
        for tests asserting exact values on one evaluator); the global
        ``repro_<name>_total`` counters aggregate across every evaluator
        in the process for the Prometheus/JSON exports.
        """
        if amount:
            setattr(self, name, getattr(self, name) + amount)
            _metrics.counter(f"repro_{name}_total").inc(amount)

    def stats(self) -> Dict[str, int]:
        """Health counters accumulated over this evaluator's lifetime."""
        return {
            "simulations_run": self.simulations_run,
            "cache_hits": self.cache_hits,
            "dedup_hits": self.dedup_hits,
            "retries": self.retries,
            "worker_crashes": self.worker_crashes,
            "quarantined": self.quarantined,
        }

    def evaluate(self, points: Sequence[Dict[str, object]]) -> List[Evaluation]:
        """Evaluate ``points``, returning evaluations aligned with them.

        Within the batch, identical canonical points are simulated once;
        store hits are served from disk; the remaining misses resolve in
        homogeneous point-batched groups, serially or sharded across
        ``workers`` processes (deterministic and bit-identical to
        point-by-point runs either way). When a store with leases is
        attached, misses are claimed first; points another evaluator is
        already simulating are awaited rather than recomputed. Points
        that fail persistently come back as failed evaluations
        (``Evaluation.ok == False``) and are quarantined: later batches
        get the failure back without touching the simulator.
        """
        with _span("evaluate.batch", points=len(points)) as sp:
            return self._evaluate_batch(points, sp)

    def _evaluate_batch(
        self, points: Sequence[Dict[str, object]], sp
    ) -> List[Evaluation]:
        canonical = [self.canonicalize(p) for p in points]
        keys = [canonical_json(c) for c in canonical]
        unique: Dict[str, Dict[str, object]] = {}
        for key, cpoint in zip(keys, canonical):
            if key not in unique:
                unique[key] = cpoint
        self._count("dedup_hits", len(keys) - len(unique))

        resolved: Dict[str, Evaluation] = {}
        misses: List[Tuple[str, Dict[str, object]]] = []
        # One store key (and digest) per unique point, shared by its get,
        # claim, heartbeats, put and release.
        store_keys: Dict[str, StoreKey] = {}
        for key, cpoint in unique.items():
            if key in self._quarantine:
                resolved[key] = Evaluation.failure(cpoint, self._quarantine[key])
                continue
            hit = None
            if self.store is not None:
                store_key = store_keys[key] = StoreKey.of(self._store_key(cpoint))
                record = self.store.get(store_key)
                if record is not None:
                    hit = self._from_record(record, cpoint)
            if hit is not None:
                resolved[key] = hit
                self._count("cache_hits")
            else:
                misses.append((key, cpoint))

        use_leases = self.store is not None and self._leases
        owned, contested = misses, []
        if use_leases and misses:
            owned, contested = [], []
            for key, cpoint in misses:
                if self.store.claim(store_keys[key]):
                    owned.append((key, cpoint))
                else:
                    contested.append((key, cpoint))

        if owned:
            if use_leases:
                self._active_leases = [store_keys[key] for key, _ in owned]
            try:
                fresh = self._run(owned)
            finally:
                self._active_leases = []
            self._count("simulations_run", sum(1 for e in fresh if e.ok))
            for (key, cpoint), evaluation in zip(owned, fresh):
                resolved[key] = evaluation
                if evaluation.ok:
                    if self.store is not None:
                        self.store.put(store_keys[key], self._to_record(evaluation))
                else:
                    self._quarantine[key] = evaluation.error
                if use_leases:
                    self.store.release(store_keys[key])
        for key, cpoint in contested:
            resolved[key] = self._await_contested(key, cpoint, store_keys[key])
        sp.set(
            unique=len(unique),
            misses=len(misses),
            contested=len(contested),
        )
        return [resolved[key] for key in keys]

    # ------------------------------------------------------------------
    # Fault-tolerant execution

    def _sleep_backoff(self, attempt: int) -> None:
        self._backoff.sleep(attempt)

    def _heartbeat_leases(self) -> None:
        """Refresh owned leases (throttled) so they never look stale."""
        if self.store is None or not self._active_leases:
            return
        interval = (
            self._heartbeat_interval
            if self._heartbeat_interval is not None
            else min(5.0, self.store.lease_ttl / 4)
        )
        now = time.monotonic()
        if now - self._last_heartbeat < interval:
            return
        self._last_heartbeat = now
        for key in self._active_leases:
            self.store.heartbeat(key)

    def release_leases(self) -> int:
        """Release any store leases this evaluator still holds.

        The normal batch path releases each lease as its point resolves;
        this is the shutdown path — a server draining with an evaluation
        cut short must not make peers wait out the lease TTL. Returns
        the number of leases released.
        """
        held = self._active_leases
        self._active_leases = []
        if self.store is None:
            return 0
        for key in held:
            self.store.release(key)
        return len(held)

    def _evaluate_one_serial(self, cpoint: Dict[str, object]) -> Evaluation:
        """One point, in-process, retried with backoff, then quarantined."""
        failures = 0
        while True:
            try:
                return _evaluate_grouped(self._serial_context, [cpoint])[0]
            except Exception as exc:
                failures += 1
                if failures > self._retries:
                    self._count("quarantined")
                    return Evaluation.failure(
                        cpoint, f"{type(exc).__name__}: {exc}"
                    )
                self._count("retries")
                self._sleep_backoff(failures)

    def _run_serial(self, tasks: List[Dict[str, object]]) -> List[Evaluation]:
        """Serial path: batch-resolve; isolate per point on failure."""
        try:
            return _evaluate_grouped(self._serial_context, tasks)
        except Exception:
            # A poison point sank the batch: evaluate point by point so
            # only the offender is quarantined, not its batch-mates.
            self._count("retries")
            return [self._evaluate_one_serial(cpoint) for cpoint in tasks]

    def _await_contested(
        self, key: str, cpoint: Dict[str, object], store_key: StoreKey
    ) -> Evaluation:
        """Wait out another evaluator's lease on ``cpoint``.

        The happy path is the other evaluator landing the record (we
        serve it as a cache hit). If its lease goes stale — the process
        died — we reclaim and simulate the point ourselves.
        """
        with _span("evaluate.lease_wait"):
            return self._await_contested_loop(key, cpoint, store_key)

    def _await_contested_loop(
        self, key: str, cpoint: Dict[str, object], store_key: StoreKey
    ) -> Evaluation:
        while True:
            record = self.store.get(store_key)
            if record is not None:
                hit = self._from_record(record, cpoint)
                if hit is not None:
                    self._count("cache_hits")
                    return hit
            if self.store.claim(store_key):
                try:
                    # The owner may have landed the record between our
                    # miss above and the claim.
                    record = self.store.get(store_key)
                    if record is not None:
                        hit = self._from_record(record, cpoint)
                        if hit is not None:
                            self._count("cache_hits")
                            return hit
                    evaluation = self._evaluate_one_serial(cpoint)
                    if evaluation.ok:
                        self._count("simulations_run")
                        self.store.put(store_key, self._to_record(evaluation))
                    else:
                        self._quarantine[key] = evaluation.error
                    return evaluation
                finally:
                    self.store.release(store_key)
            time.sleep(self._lease_poll)

    def _make_pool(self, max_workers: int) -> ProcessPoolExecutor:
        if self._kernel is not None:
            initializer, initargs = _init_worker_spec, (
                self._kernel,
                self._width,
                self._tech,
            )
        else:
            initializer, initargs = _init_worker_summary, (self._summary,)
        return ProcessPoolExecutor(
            max_workers=max_workers,
            initializer=initializer,
            initargs=initargs,
        )

    @staticmethod
    def _kill_pool(pool: Optional[ProcessPoolExecutor]) -> None:
        """Tear a pool down hard — hung workers get SIGKILL, not a join."""
        if pool is None:
            return
        try:
            for proc in list(getattr(pool, "_processes", {}).values()):
                proc.kill()
        except Exception:
            pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass

    def _run(
        self, misses: List[Tuple[str, Dict[str, object]]]
    ) -> List[Evaluation]:
        tasks = [cpoint for _, cpoint in misses]
        workers = self._workers
        if workers is None or workers <= 1 or len(tasks) <= 1:
            return self._run_serial(tasks)
        return self._run_pool(tasks, min(workers, len(tasks)))

    def _run_pool(
        self, tasks: List[Dict[str, object]], max_workers: int
    ) -> List[Evaluation]:
        """Shard ``tasks`` across a worker pool, surviving its failures.

        Each chunk is one future. Chunk failure (worker crash, raised
        exception, timeout) bisects multi-point chunks to isolate the
        poison; singleton failures retry with backoff up to ``retries``
        times, then quarantine. A broken pool fails every in-flight
        future alike, so when several chunks were in flight none is
        charged: each re-runs alone until a crash has one suspect.
        Pool breakage rebuilds the pool (with
        backoff, up to a rebuild budget); beyond the budget the
        remaining work degrades to serial in-process evaluation.
        Successful results are bit-identical to a serial, fault-free
        run — chunk boundaries only affect scheduling, never values.
        """
        chunksize = math.ceil(len(tasks) / max_workers)
        queue = deque(
            list(range(start, min(start + chunksize, len(tasks))))
            for start in range(0, len(tasks), chunksize)
        )
        out: List[Optional[Evaluation]] = [None] * len(tasks)
        failures: Dict[int, int] = {}
        # Chunks in flight together when the pool broke; each re-runs
        # alone (``solo``: one is in flight, submit nothing else).
        suspects: deque = deque()
        solo = False
        rebuilds = 0
        max_rebuilds = 8 + 2 * self._retries + len(tasks)

        def fail_chunk(indices: List[int], label: str) -> None:
            if len(indices) > 1:
                mid = len(indices) // 2
                queue.append(indices[:mid])
                queue.append(indices[mid:])
                return
            idx = indices[0]
            failures[idx] = failures.get(idx, 0) + 1
            if failures[idx] > self._retries:
                self._count("quarantined")
                out[idx] = Evaluation.failure(tasks[idx], label)
            else:
                self._count("retries")
                self._sleep_backoff(failures[idx])
                queue.append(indices)

        def rebuild(pool: Optional[ProcessPoolExecutor]):
            nonlocal rebuilds
            self._kill_pool(pool)
            if rebuilds >= max_rebuilds:
                return None
            rebuilds += 1
            self._sleep_backoff(rebuilds)
            try:
                return self._make_pool(max_workers)
            except Exception:
                return None

        try:
            pool: Optional[ProcessPoolExecutor] = self._make_pool(max_workers)
        except Exception:
            pool = None
        pending: Dict[object, Tuple[List[int], Optional[float]]] = {}
        try:
            while queue or suspects or pending:
                if pool is None and not pending:
                    # Unrecoverable pool: degrade to in-process serial
                    # evaluation of whatever is left.
                    for indices in (*suspects, *queue):
                        for idx in indices:
                            if out[idx] is None:
                                out[idx] = self._evaluate_one_serial(tasks[idx])
                    break
                while (queue or suspects) and pool is not None and not solo:
                    if suspects:
                        if pending:
                            break
                        indices, solo = suspects.popleft(), True
                    else:
                        indices = queue.popleft()
                    deadline = (
                        time.monotonic() + self._timeout
                        if self._timeout is not None
                        else None
                    )
                    try:
                        future = pool.submit(
                            _worker_evaluate_chunk, [tasks[i] for i in indices]
                        )
                    except Exception:
                        (suspects if solo else queue).appendleft(indices)
                        solo = False
                        self._count("worker_crashes")
                        pool = rebuild(pool)
                        break
                    pending[future] = (indices, deadline)
                if not pending:
                    continue
                wait_for = None
                if self._timeout is not None:
                    now = time.monotonic()
                    wait_for = max(
                        0.0,
                        min(d for _, d in pending.values() if d is not None)
                        - now,
                    )
                done, _ = wait(
                    set(pending), timeout=wait_for, return_when=FIRST_COMPLETED
                )
                if not done:
                    # Deadline expired with nothing finished: the pool is
                    # wedged (hung worker). Kill it; overdue chunks count
                    # as failures, in-flight innocents requeue intact.
                    now = time.monotonic()
                    overdue = [
                        f
                        for f, (_, d) in pending.items()
                        if d is not None and now >= d
                    ]
                    if not overdue:
                        continue
                    self._count("worker_crashes")
                    for future, (indices, _) in list(pending.items()):
                        if future in overdue:
                            fail_chunk(
                                indices,
                                f"timeout: chunk exceeded {self._timeout}s",
                            )
                        else:
                            queue.append(indices)
                    pending.clear()
                    solo = False
                    pool = rebuild(pool)
                    continue
                # Handle clean results before pool-breakage casualties so
                # completed work is not requeued alongside the crash.
                for future in sorted(done, key=lambda f: f.exception() is not None):
                    entry = pending.pop(future, None)
                    if entry is None:
                        continue
                    indices, _ = entry
                    solo = False
                    try:
                        evaluations = future.result()
                    except BrokenProcessPool:
                        self._count("worker_crashes")
                        if pending:
                            # Every in-flight future broke with the pool and
                            # any of them may have killed it: charge none.
                            suspects.append(indices)
                            suspects.extend(i for i, _ in pending.values())
                        else:
                            fail_chunk(indices, "worker crashed (pool broken)")
                        pending.clear()
                        pool = rebuild(pool)
                    except Exception as exc:
                        fail_chunk(indices, f"{type(exc).__name__}: {exc}")
                    else:
                        for i, evaluation in zip(indices, evaluations):
                            out[i] = evaluation
                        self._heartbeat_leases()
        finally:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
        return out
