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
    obs.tracer().export_chrome("trace.json")   # -> ui.perfetto.dev
    print(obs.prometheus())                    # metrics text
    print(obs.format_phase_table(obs.tracer().events()))

See the README "Observability" section for the metric name glossary.
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".metrics": (
        "Counter", "Gauge", "Histogram", "LATENCY_SECONDS_EDGES",
        "PHASE_SECONDS", "PHASE_SECONDS_EDGES", "REGISTRY",
        "REQUEST_SECONDS_EDGES", "Registry", "counter", "gauge", "histogram",
        "prometheus", "snapshot",
    ),
    ".report": ("PhaseStat", "format_phase_table", "phase_breakdown"),
    ".trace": (
        "Span", "Tracer", "disable", "enable", "enabled", "span", "tracer",
    ),
})
