"""Point evaluation: lower a design point to a simulator run.

The :class:`Evaluator` is the bridge between abstract design points
(dicts of dimension name -> value, see :mod:`repro.explore.space`) and
the compiled dataflow engine. It

* canonicalizes points (fills architecture-specific defaults, drops
  irrelevant dimensions) so equivalent configurations collapse to one
  evaluation. The result, a :class:`CanonicalPoint`, is never
  canonicalized again; raw dicts are always fully validated;
* deduplicates repeated points within a batch;
* consults a :class:`~repro.explore.store.ResultStore` so warm re-runs
  and refined searches perform zero repeat simulations;
* resolves homogeneous miss batches through
  :func:`repro.arch.batched.simulate_batch`: misses sharing a kernel,
  movement discipline, and CQLA configuration — every steady-supply
  point, and every QLA/CQLA/Multiplexed architecture point of one
  configuration — go in one call, which picks per group, from its
  shape alone, between one numpy pass over a gate-major
  ``(num_qubits + 1, points)`` state matrix and N serial
  :meth:`~repro.arch.simulator.DataflowSimulator.run` walks,
  bit-identically either way;
* **isolates failures in-process**: a batch that raises is re-run point
  by point, each failing point is retried ``retries`` times with
  exponential backoff and finally **quarantined** — returned as a
  structured failed :class:`Evaluation` (``error`` set, score ``inf``
  downstream) instead of sinking its batch-mates or the whole
  exploration. Successful results stay bit-identical to a fault-free
  run;
* **coordinates with concurrent evaluators** sharing one result store
  through the store's lease protocol: misses are claimed before
  simulation, contested points are awaited (the other evaluator's
  result arrives as a cache hit), owned leases are heartbeat between
  simulation groups, and stale leases from dead evaluators are
  reclaimed — so N explorers over one keyspace simulate each unique
  point at most once.

Two construction modes:

* ``Evaluator(analysis=ka)`` — evaluate against a prebuilt
  :class:`~repro.kernels.analysis.KernelAnalysis` (what the sweeps use);
* ``Evaluator(kernel="qcla", width=32)`` — evaluate against a kernel
  *specification*; the (memoized) analysis is rebuilt on demand, and
  the ``tech_scale`` and ``code_level`` dimensions become available
  because the evaluator can re-characterize the kernel under scaled
  technology or at a higher code-concatenation level
  (``tech.at_level(L)``). Misses are grouped per (scale, level), so a
  ``code_level`` sweep still resolves through the point-batched engine
  one level at a time.

Either way, :func:`~repro.explore.engine.explore` reads only
``canonicalize``, ``evaluate``, ``stats`` and ``label``;
:class:`repro.serve.client.RemoteEvaluator` meets the same four names.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.arch.architectures import (
    ArchitectureKind,
    CqlaConfig,
    MultiplexedConfig,
    QlaConfig,
)
from repro.arch.simulator import SimulationResult
from repro.arch.supply import PI8, ZERO, SteadyRateSupply
from repro.circuits.compiled import CompiledCircuit, compile_circuit
from repro.explore.store import ResultStore, StoreKey, canonical_json, text_digest
from repro.layout.region import data_qubit_area
from repro.obs import metrics as _metrics
from repro.obs.trace import span as _span
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
    """The slice of a kernel analysis the lowering needs."""

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


class CanonicalPoint(dict):
    """A canonical design point (a plain ``dict`` to every reader) whose
    ``key`` is its canonical JSON, encoded once by :func:`_canonicalize`:
    the dedup key and the point's slice of the store key text. Never
    mutate one, or ``key`` goes stale."""

    __slots__ = ("key",)


def _non_negative(point: Dict[str, object], name: str) -> float:
    """``point[name]`` (default 0) as a float, refused unless finite, >= 0;
    ``-0.0`` comes back as ``0.0``, so both share one key."""
    value = float(point.get(name, 0.0))
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
    return value + 0.0


def _whole(point: Dict[str, object], name: str, default: int) -> int:
    """``point[name]`` (default ``default``) as an int, refused unless a
    finite whole number (``2.5`` is refused, not truncated)."""
    value = point.get(name, default)
    if not float(value).is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _canonicalize(
    point: Dict[str, object],
    cqla: Optional[CqlaConfig],
    allow_recharacterize: bool,
) -> CanonicalPoint:
    """Resolve defaults and drop irrelevant dimensions.

    Equivalent configurations (a QLA point annotated with CQLA cache
    dims, an explicit default region span, ``tech_scale == 1``,
    ``code_level == 1``) collapse to one canonical point, which is what
    the dedupe passes and the result store key on. A value the engines
    cannot simulate (a NaN, infinite or negative rate or area, or a bad
    cache or region setting) raises ``ValueError`` before any store I/O.
    """
    unknown = set(point) - KNOWN_DIMENSIONS
    if unknown:
        raise ValueError(
            f"unknown dimensions {sorted(unknown)}; "
            f"supported: {sorted(KNOWN_DIMENSIONS)}"
        )
    canonical = CanonicalPoint()
    scale = float(point.get("tech_scale", 1.0))
    if scale != 1.0:
        if not allow_recharacterize:
            raise ValueError(
                "tech_scale requires a kernel specification "
                "(Evaluator(kernel=..., width=...)); an evaluator built "
                "from a fixed analysis cannot re-characterize the kernel"
            )
        if not (math.isfinite(scale) and scale > 0):
            raise ValueError(f"tech_scale must be finite and positive, got {scale}")
        canonical["tech_scale"] = scale
    raw_level = point.get("code_level", 1)
    if not float(raw_level).is_integer():
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
        canonical["zero_rate"] = _non_negative(point, "zero_rate")
        canonical["pi8_ratio"] = _non_negative(point, "pi8_ratio")
    elif "arch" not in point or "factory_area" not in point:
        raise ValueError(
            f"an architecture point needs 'arch' and 'factory_area': {point}"
        )
    else:
        kind = point["arch"]
        kind = kind.value if isinstance(kind, ArchitectureKind) else str(kind)
        ArchitectureKind(kind)  # validates
        canonical["arch"] = kind
        canonical["factory_area"] = _non_negative(point, "factory_area")
        if kind == ArchitectureKind.CQLA.value:
            default = cqla or CqlaConfig()
            config = CqlaConfig(  # validates
                float(point.get("cqla_cache_fraction", default.cache_fraction)),
                _whole(point, "cqla_ports", default.ports),
            )
            canonical["cqla_cache_fraction"] = config.cache_fraction
            canonical["cqla_ports"] = config.ports
        elif kind == ArchitectureKind.MULTIPLEXED.value:
            canonical["region_span"] = MultiplexedConfig(  # validates
                _whole(point, "region_span", MultiplexedConfig.region_span)
            ).region_span
    canonical.key = canonical_json(canonical)
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


def _simulate_groups(
    summary: KernelSummary, points: Sequence[Dict[str, object]]
) -> Iterator[Tuple[List[int], List[Evaluation]]]:
    """Yield ``(indices, evaluations)`` for each homogeneous group.

    Points sharing a movement discipline and CQLA configuration (all
    steady-supply points; all architecture points of one
    kind/configuration, cache modes included) resolve through one
    :func:`repro.arch.batched.simulate_batch` call, which chooses from
    the group's shape between a single vectorized pass and per-point
    ``run()`` walks. Results are bit-identical to per-point evaluation
    either way.
    """
    lowered = [_lower_point(summary, point) for point in points]
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
        )
        yield indices, [
            _evaluation(summary, points[i], lowered[i], result)
            for i, result in zip(indices, results)
        ]


def evaluate_design_points(
    summary: KernelSummary,
    points: Sequence[Dict[str, object]],
    compiled: Optional[CompiledCircuit],
    engine: str = "compiled",
) -> List[Evaluation]:
    """Evaluate many *canonical* points, batching homogeneous runs.

    Each homogeneous group resolves through one
    :func:`repro.arch.batched.simulate_batch` call (see
    :func:`_simulate_groups`); output order matches input order.

    ``compiled`` and ``engine`` survive solely for existing four-argument
    callers, and a later benchmark change removes them: anything but
    ``None`` or the circuit's memoized :func:`compile_circuit` and
    ``"compiled"`` raises ``ValueError``.
    """
    if engine != "compiled":
        raise ValueError(
            f"unknown engine {engine!r}; the only dataflow engine is 'compiled'"
        )
    if compiled not in (None, compile_circuit(summary.circuit, summary.tech)):
        raise ValueError("compiled must be None or the circuit's memoized compile")
    out: List[Optional[Evaluation]] = [None] * len(points)
    for indices, evaluations in _simulate_groups(summary, points):
        for i, evaluation in zip(indices, evaluations):
            out[i] = evaluation
    return out


def _recharacterize_key(point: Dict[str, object]) -> Tuple[float, int]:
    """(tech_scale, code_level) — the re-characterization group key."""
    return (
        float(point.get("tech_scale", 1.0)),
        int(point.get("code_level", 1)),
    )


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
        cqla: Default CQLA configuration for points that do not pin
            ``cqla_cache_fraction`` / ``cqla_ports`` explicitly.
        store: Optional :class:`ResultStore`; every evaluation is
            persisted and repeat points are served from disk.
        retries: How many times a failing point is retried (after a
            failed batch has been split into single points) before being
            quarantined.
        retry_backoff: Base of the shared full-jitter exponential
            backoff policy (:class:`repro.util.backoff.Backoff`, capped
            at 2 s) slept between retries; 0 disables sleeping.

    Owned leases are heartbeat between simulation groups and between
    retries, at most every ``min(5 s, lease_ttl / 4)``: well inside the
    store's TTL, so a *live* evaluator's lease never looks stale.

    Counters (reset never; read via :meth:`stats` after a run):

    * ``simulations_run`` — fresh, successful simulator evaluations;
    * ``cache_hits`` — points served from the result store;
    * ``dedup_hits`` — points collapsed onto an identical batch-mate;
    * ``retries`` — batch/point re-executions after a failure;
    * ``quarantined`` — points that kept failing and were isolated.
    """

    def __init__(
        self,
        analysis=None,
        *,
        kernel: Optional[str] = None,
        width: Optional[int] = None,
        tech: TechnologyParams = ION_TRAP,
        cqla: Optional[CqlaConfig] = None,
        store: Optional[ResultStore] = None,
        retries: int = 2,
        retry_backoff: float = 0.1,
    ) -> None:
        if (analysis is None) == (kernel is None):
            raise ValueError("pass exactly one of analysis= or kernel=/width=")
        if kernel is not None and width is None:
            raise ValueError("spec mode needs width= alongside kernel=")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self._analysis = analysis
        self._kernel = kernel
        self._width = width
        self._tech = analysis.tech if analysis is not None else tech
        self._cqla = cqla
        self.store = store
        self._retries = retries
        self._backoff = Backoff(base=retry_backoff, cap=2.0)
        self._lease_poll = 0.05
        self._quarantine: Dict[str, str] = {}
        self._active_leases: List[StoreKey] = []
        self._last_heartbeat = 0.0
        self.simulations_run = 0
        self.cache_hits = 0
        self.dedup_hits = 0
        self.retries = 0
        self.quarantined = 0
        # Pre-register the registry mirrors so a metrics snapshot always
        # carries every evaluator counter, zero-valued ones included.
        for name in ("simulations_run", "cache_hits", "dedup_hits",
                     "retries", "quarantined"):
            _metrics.counter(f"repro_{name}_total")
        self._summary: Optional[KernelSummary] = (
            KernelSummary.from_analysis(analysis) if analysis is not None else None
        )
        self._scales: Dict[Tuple[float, int], KernelSummary] = {}
        self._key_base: Optional[Dict[str, object]] = None
        #: The key base's canonical JSON split around the point's slot.
        self._key_affixes: Optional[Tuple[str, str]] = None

    # ------------------------------------------------------------------

    @property
    def label(self) -> str:
        """The kernel evaluated, as an exploration reports it."""
        if self._kernel is not None:
            return f"{self._kernel}-{self._width}"
        return self._summary.name

    def canonicalize(self, point: Dict[str, object]) -> CanonicalPoint:
        """``point`` with defaults resolved and irrelevant dimensions
        dropped; a :class:`CanonicalPoint` comes back unchanged (unless
        it needs re-characterizing, which analysis mode refuses)."""
        if isinstance(point, CanonicalPoint) and (
            self._analysis is None
            or point.keys().isdisjoint(("tech_scale", "code_level"))
        ):
            return point
        return _canonicalize(
            point, self._cqla, allow_recharacterize=self._analysis is None
        )

    def canonical_key(self, point: Dict[str, object]) -> str:
        """Stable identity string for dedupe across batches."""
        return self.canonicalize(point).key

    def _serial_context(self, point: Dict[str, object]) -> KernelSummary:
        """The kernel summary ``point`` simulates against: the analysis's,
        or the spec's re-characterized at its (tech_scale, code_level)."""
        if self._summary is not None:
            return self._summary
        key = _recharacterize_key(point)
        if key not in self._scales:
            from repro.kernels.analysis import analyze_kernel

            scale, level = key
            tech = self._tech if scale == 1.0 else self._tech.scaled(scale)
            self._scales[key] = KernelSummary.from_analysis(
                analyze_kernel(self._kernel, self._width, tech, code_level=level)
            )
        return self._scales[key]

    def _store_key(self, canonical: Dict[str, object]) -> Dict[str, object]:
        if self._key_base is None:
            # Everything but the point is fixed for this evaluator (the
            # tech is immutable), so it is built on first use only. The
            # gate count fingerprints the circuit; spec mode reads it off
            # the memoized analysis, so a warm run never compiles.
            if self._kernel is not None:
                from repro.kernels.analysis import analyze_kernel

                identity: Dict[str, object] = {
                    "kernel": self._kernel,
                    "width": self._width,
                }
                circuit = analyze_kernel(self._kernel, self._width, self._tech).circuit
            else:
                identity = {"kernel": self._summary.name, "width": None}
                circuit = self._summary.circuit
            self._key_base = {
                **identity,
                "gates": len(circuit),
                "tech": tech_fingerprint(self._tech),
                # A constant now that there is one engine; kept in the
                # key so stores and journals written before it stay warm.
                "engine": "compiled",
            }
        return {**self._key_base, "point": canonical}

    def _keyed(self, canonical: CanonicalPoint) -> StoreKey:
        """The store key of ``canonical``. Its text is the fixed key base,
        encoded once per evaluator, spliced around the point's own
        ``key``, so a point pays only for its own digest."""
        if self._key_affixes is None:
            slot = "\x00point"  # a value no key base contains
            encoded = canonical_json(self._store_key(slot))
            prefix, suffix = encoded.split(canonical_json(slot))
            self._key_affixes = (prefix, suffix)
        prefix, suffix = self._key_affixes
        text = f"{prefix}{canonical.key}{suffix}"
        return StoreKey(self._store_key(canonical), text_digest(text))

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
            "quarantined": self.quarantined,
        }

    def evaluate(self, points: Sequence[Dict[str, object]]) -> List[Evaluation]:
        """Evaluate ``points``, returning evaluations aligned with them.

        Within the batch, identical canonical points are simulated once;
        store hits are served from disk; the remaining misses resolve in
        homogeneous point-batched groups (deterministic and
        bit-identical to point-by-point runs). When a store is
        attached, misses are claimed first; points another evaluator is
        already simulating are awaited rather than recomputed. Points
        that fail persistently come back as failed evaluations
        (``Evaluation.ok == False``) and are quarantined: later batches
        get the failure back without touching the simulator.
        """
        with _span("evaluate.batch", points=len(points)) as sp:
            canonical = [self.canonicalize(p) for p in points]
            unique: Dict[str, CanonicalPoint] = {}
            for cpoint in canonical:
                unique.setdefault(cpoint.key, cpoint)
            self._count("dedup_hits", len(canonical) - len(unique))

            resolved: Dict[str, Evaluation] = {}
            misses: List[CanonicalPoint] = []
            # One store key (and digest) per unique point, shared by its
            # get, claim, heartbeats, put and release.
            store_keys: Dict[str, StoreKey] = {}
            hits = 0
            for key, cpoint in unique.items():
                if key in self._quarantine:
                    resolved[key] = Evaluation.failure(cpoint, self._quarantine[key])
                    continue
                hit = None
                if self.store is not None:
                    store_key = store_keys[key] = self._keyed(cpoint)
                    record = self.store.get(store_key)
                    if record is not None:
                        hit = self._from_record(record, cpoint)
                if hit is not None:
                    resolved[key] = hit
                    hits += 1
                else:
                    misses.append(cpoint)
            self._count("cache_hits", hits)

            use_leases = self.store is not None
            owned, contested = misses, []
            if use_leases and misses:
                owned, contested = [], []
                for cpoint in misses:
                    if self.store.claim(store_keys[cpoint.key]):
                        owned.append(cpoint)
                    else:
                        contested.append(cpoint)

            if owned:
                if use_leases:
                    self._active_leases = [store_keys[c.key] for c in owned]
                    # The throttle clock starts at the claim: a batch
                    # shorter than the interval never refreshes its leases.
                    self._last_heartbeat = time.monotonic()
                try:
                    fresh = self._run_serial(owned)
                finally:
                    self._active_leases = []
                self._count("simulations_run", sum(1 for e in fresh if e.ok))
                for cpoint, evaluation in zip(owned, fresh):
                    key = cpoint.key
                    resolved[key] = evaluation
                    if not evaluation.ok:
                        self._quarantine[key] = evaluation.error
                    elif self.store is not None:
                        self.store.put(store_keys[key], self._to_record(evaluation))
                    if use_leases:
                        self.store.release(store_keys[key])
            for cpoint in contested:
                key = cpoint.key
                resolved[key] = self._await_contested(cpoint, store_keys[key])
            sp.set(unique=len(unique), misses=len(misses), contested=len(contested))
            return [resolved[cpoint.key] for cpoint in canonical]

    # ------------------------------------------------------------------
    # Fault-tolerant execution

    def _heartbeat_leases(self) -> None:
        """Refresh owned leases (throttled) so they never look stale."""
        if self.store is None or not self._active_leases:
            return
        now = time.monotonic()
        if now - self._last_heartbeat < min(5.0, self.store.lease_ttl / 4):
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

    def _evaluate_grouped(
        self, points: Sequence[Dict[str, object]]
    ) -> List[Evaluation]:
        """Evaluate ``points``, batching per (tech_scale, code_level) group.

        Points sharing a technology scale and a concatenation level share
        one kernel summary; each group then resolves through
        :func:`_simulate_groups`, so a sweep over ``code_level`` runs each
        level's homogeneous points through the point-batched engine.
        Owned leases are heartbeat after every ``simulate_batch`` group.
        Output order matches input order.
        """
        for point in points:
            faults.check("evaluate", point)
        out: List[Optional[Evaluation]] = [None] * len(points)
        by_key: Dict[Tuple[float, int], List[int]] = {}
        for i, point in enumerate(points):
            by_key.setdefault(_recharacterize_key(point), []).append(i)
        for indices in by_key.values():
            summary = self._serial_context(points[indices[0]])
            subset = [points[i] for i in indices]
            for group, evaluations in _simulate_groups(summary, subset):
                for j, evaluation in zip(group, evaluations):
                    out[indices[j]] = evaluation
                self._heartbeat_leases()
        return out

    def _evaluate_one_serial(self, cpoint: Dict[str, object]) -> Evaluation:
        """One point, in-process, retried with backoff, then quarantined.

        Owned leases are heartbeat before every attempt: between the
        points of the per-point fallback and after each backoff sleep.
        """
        failures = 0
        while True:
            self._heartbeat_leases()
            try:
                return self._evaluate_grouped([cpoint])[0]
            except Exception as exc:
                failures += 1
                if failures > self._retries:
                    self._count("quarantined")
                    return Evaluation.failure(
                        cpoint, f"{type(exc).__name__}: {exc}"
                    )
                self._count("retries")
                self._backoff.sleep(failures)

    def _run_serial(self, tasks: List[Dict[str, object]]) -> List[Evaluation]:
        """Batch-resolve ``tasks``; isolate per point on failure."""
        try:
            return self._evaluate_grouped(tasks)
        except Exception:
            # A poison point sank the batch: evaluate point by point so
            # only the offender is quarantined, not its batch-mates.
            self._count("retries")
            return [self._evaluate_one_serial(cpoint) for cpoint in tasks]

    def _await_contested(
        self, cpoint: CanonicalPoint, store_key: StoreKey
    ) -> Evaluation:
        """Wait out another evaluator's lease on ``cpoint``.

        The happy path is the other evaluator landing the record (we
        serve it as a cache hit). If its lease goes stale — the process
        died — we reclaim and simulate the point ourselves.
        """
        with _span("evaluate.lease_wait"):
            while True:
                record = self.store.get(store_key)
                if record is not None:
                    hit = self._from_record(record, cpoint)
                    if hit is not None:
                        self._count("cache_hits")
                        return hit
                if self.store.claim(store_key):
                    try:
                        # The owner may have landed the record between
                        # our miss above and the claim.
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
                            self._quarantine[cpoint.key] = evaluation.error
                        return evaluation
                    finally:
                        self.store.release(store_key)
                time.sleep(self._lease_poll)
