"""repro.obs — tracing, metrics, and profiling for the whole stack.

Three pieces, designed to cost nothing when idle:

* **Tracer** (:mod:`repro.obs.trace`): span-based phase timing with
  JSONL and Chrome trace-event / Perfetto export. Off by default;
  ``obs.span(...)`` is a single global truthiness check when disabled.
* **Metrics** (:mod:`repro.obs.metrics`): a process-wide registry of
  counters, gauges and fixed-bucket histograms with JSON-snapshot and
  Prometheus text export. Span durations feed the
  ``repro_phase_seconds`` histogram automatically.
* **Report** (:mod:`repro.obs.report`): per-phase breakdown tables,
  backing the ``repro profile`` subcommand.

Quick start::

    from repro import obs

    obs.enable()                               # tracing on
    ...run work...
    obs.TRACER.export_chrome("trace.json")     # -> ui.perfetto.dev
    print(obs.prometheus())                    # metrics text
    print(obs.format_phase_table(obs.TRACER.events()))

See the README "Observability" section for the metric name glossary.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    LATENCY_SECONDS_EDGES,
    PHASE_SECONDS,
    PHASE_SECONDS_EDGES,
    REGISTRY,
    REQUEST_SECONDS_EDGES,
    Registry,
    counter,
    gauge,
    histogram,
    prometheus,
    snapshot,
)
from repro.obs.report import PhaseStat, format_phase_table, phase_breakdown
from repro.obs.trace import Span, Tracer, disable, enable, enabled, span


def tracer():
    """The active :class:`Tracer`, or ``None`` when tracing is off.

    Prefer this over importing ``TRACER`` directly: the module global
    is rebound by :func:`enable`/:func:`disable`, so a ``from``-import
    would go stale.
    """
    from repro.obs import trace as _trace

    return _trace.TRACER


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
    "Span",
    "Tracer",
    "span",
    "enable",
    "disable",
    "enabled",
    "tracer",
    "PhaseStat",
    "phase_breakdown",
    "format_phase_table",
]
