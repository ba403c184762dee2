"""Metrics registry: counters, gauges and fixed-bucket histograms.

One process-wide :class:`Registry` (:data:`REGISTRY`) collects every
metric the instrumented stack emits — evaluator health counters, store
hit/miss and latency accounting, per-phase timing histograms fed by the
tracer (:mod:`repro.obs.trace`). Two export formats:

* :meth:`Registry.snapshot` — a plain JSON-able dict, for programmatic
  consumption and the ``repro explore --metrics out.json`` path;
* :meth:`Registry.prometheus` — the Prometheus text exposition format
  (``# TYPE`` headers, cumulative ``_bucket{le=...}`` histogram rows),
  so a future ``repro serve`` can expose ``/metrics`` directly and
  one-shot runs can be diffed with standard tooling.

Design constraints, in order:

* **Free when idle.** Creating a metric is a dict lookup under a lock;
  incrementing is one lock acquisition and an add. Nothing here is ever
  called from a per-gate loop — instrumentation sits at phase and batch
  boundaries — so the registry never needs to be lock-free.
* **Deterministic export.** Samples are ordered by (name, labels), and
  histogram bucket edges are fixed at creation, so two identical runs
  produce byte-identical Prometheus text (timestamps excluded).
* **Label-safe.** Metrics are keyed by ``(name, sorted label items)``;
  the same name must keep one metric type for its lifetime (a name
  registered as a counter cannot come back as a histogram).
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Registry",
    "REGISTRY",
    "counter",
    "gauge",
    "histogram",
    "snapshot",
    "prometheus",
    "PHASE_SECONDS",
    "PHASE_SECONDS_EDGES",
    "LATENCY_SECONDS_EDGES",
    "REQUEST_SECONDS_EDGES",
]

#: Histogram of span durations, labeled ``phase=<span name>``; fed by the
#: tracer on every span close.
PHASE_SECONDS = "repro_phase_seconds"

#: Bucket edges for phase timing: 10 µs up to one minute. Spans cover
#: everything from a single compiled-engine run (~100 µs) to a whole
#: Monte Carlo driver (seconds), so the edges are log-spaced.
PHASE_SECONDS_EDGES: Tuple[float, ...] = (
    1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0
)

#: Bucket edges for store / lease I/O latencies (µs to seconds).
LATENCY_SECONDS_EDGES: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0
)

#: Bucket edges for exploration-service request latencies: a cache-hit
#: batch answers in milliseconds, a cold sweep batch can take minutes.
REQUEST_SECONDS_EDGES: Tuple[float, ...] = (
    1e-3, 5e-3, 0.025, 0.1, 0.5, 1.0, 5.0, 15.0, 60.0, 300.0
)

_LabelKey = Tuple[Tuple[str, str], ...]


class Counter:
    """Monotonically increasing value.

    Thread-safe; negative increments are rejected (use a :class:`Gauge`
    for values that go down).
    """

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counters only go up; got inc({amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A value that can be set to anything at any time."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-bucket histogram with Prometheus ``le`` semantics.

    ``edges`` are the finite upper bounds, ascending; an implicit
    ``+Inf`` bucket catches the overflow. An observation ``v`` lands in
    the first bucket whose edge satisfies ``v <= edge`` — exactly the
    boundary rule Prometheus documents, so exported cumulative counts
    match what a promQL ``histogram_quantile`` expects.
    """

    __slots__ = ("edges", "_lock", "_counts", "_sum", "_count")

    def __init__(self, edges: Sequence[float]) -> None:
        cleaned = tuple(float(e) for e in edges)
        if not cleaned:
            raise ValueError("histogram needs at least one bucket edge")
        if any(b <= a for a, b in zip(cleaned, cleaned[1:])):
            raise ValueError(f"bucket edges must be strictly ascending: {edges}")
        if any(math.isinf(e) or math.isnan(e) for e in cleaned):
            raise ValueError("+Inf bucket is implicit; edges must be finite")
        self.edges = cleaned
        self._lock = threading.Lock()
        self._counts = [0] * (len(cleaned) + 1)  # trailing +Inf bucket
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        index = bisect_left(self.edges, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def bucket_counts(self) -> List[int]:
        """Per-bucket (non-cumulative) counts; last entry is ``+Inf``."""
        with self._lock:
            return list(self._counts)

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(le, cumulative count)`` pairs, ending with ``(inf, count)``."""
        out: List[Tuple[float, int]] = []
        running = 0
        with self._lock:
            for edge, n in zip(self.edges, self._counts):
                running += n
                out.append((edge, running))
            out.append((math.inf, running + self._counts[-1]))
        return out


def _label_key(labels: Dict[str, object]) -> _LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_labels(key: _LabelKey, extra: Iterable[Tuple[str, str]] = ()) -> str:
    items = list(key) + list(extra)
    if not items:
        return ""
    body = ",".join(
        f'{name}="{_escape(value)}"' for name, value in items
    )
    return "{" + body + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class Registry:
    """Get-or-create metric store keyed by ``(name, labels)``.

    All accessors are thread-safe and idempotent: asking twice for the
    same (name, labels, type) returns the same object; asking for an
    existing name with a different metric type raises.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[Tuple[str, _LabelKey], object] = {}
        self._types: Dict[str, str] = {}
        self._help: Dict[str, str] = {}

    # ------------------------------------------------------------------

    def _get(self, kind: str, name: str, labels: Dict[str, object],
             factory, help: str):
        key = (name, _label_key(labels))
        with self._lock:
            registered = self._types.get(name)
            if registered is not None and registered != kind:
                raise ValueError(
                    f"metric {name!r} is already registered as a "
                    f"{registered}, not a {kind}"
                )
            metric = self._metrics.get(key)
            if metric is None:
                metric = factory()
                self._metrics[key] = metric
                self._types[name] = kind
                if help and name not in self._help:
                    self._help[name] = help
            return metric

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        """The counter ``name`` with ``labels``, created on first use."""
        return self._get("counter", name, labels, Counter, help)

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        """The gauge ``name`` with ``labels``, created on first use."""
        return self._get("gauge", name, labels, Gauge, help)

    def histogram(
        self,
        name: str,
        edges: Optional[Sequence[float]] = None,
        help: str = "",
        **labels,
    ) -> Histogram:
        """The histogram ``name`` with ``labels``, created on first use.

        ``edges`` applies only at creation (defaults to
        :data:`PHASE_SECONDS_EDGES`); later calls may omit it.
        """
        chosen = tuple(edges) if edges is not None else PHASE_SECONDS_EDGES
        return self._get(
            "histogram", name, labels, lambda: Histogram(chosen), help
        )

    # ------------------------------------------------------------------

    def _sorted_items(self):
        with self._lock:
            items = sorted(self._metrics.items())
            types = dict(self._types)
            helps = dict(self._help)
        return items, types, helps

    def snapshot(self) -> Dict[str, Dict]:
        """JSON-able view: ``{name: {type, help, samples: [...]}}``.

        Counter/gauge samples carry ``value``; histogram samples carry
        ``buckets`` (``[le, count]`` non-cumulative pairs with a final
        ``["+Inf", n]``), ``sum`` and ``count``.
        """
        items, types, helps = self._sorted_items()
        out: Dict[str, Dict] = {}
        for (name, key), metric in items:
            entry = out.setdefault(
                name,
                {"type": types[name], "help": helps.get(name, ""), "samples": []},
            )
            labels = dict(key)
            if isinstance(metric, Histogram):
                buckets = [
                    [edge, n]
                    for edge, n in zip(metric.edges, metric.bucket_counts())
                ]
                buckets.append(["+Inf", metric.bucket_counts()[-1]])
                entry["samples"].append(
                    {
                        "labels": labels,
                        "buckets": buckets,
                        "sum": metric.sum,
                        "count": metric.count,
                    }
                )
            else:
                entry["samples"].append({"labels": labels, "value": metric.value})
        return out

    def prometheus(self) -> str:
        """The registry in Prometheus text exposition format."""
        items, types, helps = self._sorted_items()
        lines: List[str] = []
        seen_header = set()
        for (name, key), metric in items:
            if name not in seen_header:
                seen_header.add(name)
                if helps.get(name):
                    lines.append(f"# HELP {name} {helps[name]}")
                lines.append(f"# TYPE {name} {types[name]}")
            if isinstance(metric, Histogram):
                for le, cumulative in metric.cumulative():
                    labels = _format_labels(
                        key, [("le", _format_value(le))]
                    )
                    lines.append(f"{name}_bucket{labels} {cumulative}")
                labels = _format_labels(key)
                lines.append(f"{name}_sum{labels} {_format_value(metric.sum)}")
                lines.append(f"{name}_count{labels} {metric.count}")
            else:
                labels = _format_labels(key)
                lines.append(f"{name}{labels} {_format_value(metric.value)}")
        return "\n".join(lines) + ("\n" if lines else "")

    def reset(self) -> None:
        """Drop every metric (tests; never called by production code)."""
        with self._lock:
            self._metrics.clear()
            self._types.clear()
            self._help.clear()


#: The process-wide registry every instrumented module reports into.
REGISTRY = Registry()


def counter(name: str, help: str = "", **labels) -> Counter:
    """``REGISTRY.counter`` — the default registry's counter ``name``."""
    return REGISTRY.counter(name, help, **labels)


def gauge(name: str, help: str = "", **labels) -> Gauge:
    """``REGISTRY.gauge`` — the default registry's gauge ``name``."""
    return REGISTRY.gauge(name, help, **labels)


def histogram(
    name: str, edges: Optional[Sequence[float]] = None, help: str = "", **labels
) -> Histogram:
    """``REGISTRY.histogram`` — the default registry's histogram ``name``."""
    return REGISTRY.histogram(name, edges, help, **labels)


def snapshot() -> Dict[str, Dict]:
    """``REGISTRY.snapshot()`` — JSON view of the default registry."""
    return REGISTRY.snapshot()


def prometheus() -> str:
    """``REGISTRY.prometheus()`` — Prometheus text of the default registry."""
    return REGISTRY.prometheus()


def observe_phase(name: str, seconds: float,
                  registry: Optional[Registry] = None) -> None:
    """Record one span duration into the per-phase timing histogram."""
    target = registry if registry is not None else REGISTRY
    target.histogram(
        PHASE_SECONDS,
        PHASE_SECONDS_EDGES,
        help="span durations by phase (seconds)",
        phase=name,
    ).observe(seconds)
