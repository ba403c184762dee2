"""Span tracer with JSONL / Chrome trace-event export.

The tracer answers "where did this run spend its time?" at *phase*
granularity: lowering a circuit, walking dataflow levels, building a
ready matrix, executing protocol frames, waiting on a lease. It is
**off by default** and free when off:

* the module global :data:`TRACER` is ``None`` when disabled;
* :func:`span` checks it for truthiness and returns the shared no-op
  :data:`_NULL_SPAN` singleton — no allocation, no clock read;
* instrumentation sits at phase boundaries, never inside per-gate or
  per-trial loops, so even the enabled cost is a handful of clock reads
  per simulation.

Timestamps use **both** clocks deliberately: durations come from
``time.perf_counter()`` (monotonic, high resolution), while the event
timestamp is ``time.time()`` in microseconds, so events recorded in
different processes stay comparable on one timeline. Chrome/Perfetto
export rebases all timestamps to the earliest event.

Typical use::

    from repro import obs

    obs.enable()
    with obs.span("simulate.level_walk", gates=1234):
        ...
    obs.TRACER.export_chrome("trace.json") # open in https://ui.perfetto.dev
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.obs import metrics as _metrics

__all__ = [
    "Span",
    "Tracer",
    "TRACER",
    "span",
    "enable",
    "disable",
    "enabled",
]


class Span:
    """One timed region. Use as a context manager via :func:`span`.

    Closing a span appends a Chrome-style complete event (``"ph": "X"``)
    to its tracer and records the duration into the
    ``repro_phase_seconds`` histogram (labeled ``phase=<name>``).
    """

    __slots__ = ("tracer", "name", "args", "_t0", "_wall_us")

    def __init__(self, tracer: "Tracer", name: str, args: Dict[str, object]):
        self.tracer = tracer
        self.name = name
        self.args = args
        self._t0 = 0.0
        self._wall_us = 0.0

    def __enter__(self) -> "Span":
        self._wall_us = time.time() * 1e6
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        duration = time.perf_counter() - self._t0
        self.tracer._record(self.name, self._wall_us, duration, self.args)

    def set(self, **attrs) -> None:
        """Attach attributes discovered mid-span (e.g. result counts)."""
        self.args.update(attrs)


class _NullSpan:
    """Shared do-nothing span returned when tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def set(self, **attrs) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Tracer:
    """Collects completed span events for one process.

    Thread-safe: spans may open and close concurrently from any thread;
    each completed event records its thread id, so per-thread lanes
    render separately in Perfetto.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._events: List[Dict] = []
        self.pid = os.getpid()

    # ------------------------------------------------------------------

    def span(self, name: str, **attrs) -> Span:
        """Open a span named ``name`` with optional attributes."""
        return Span(self, name, attrs)

    def _record(self, name: str, wall_us: float, duration_s: float,
                args: Dict[str, object]) -> None:
        event = {
            "name": name,
            "ph": "X",
            "ts": wall_us,
            "dur": duration_s * 1e6,
            "pid": self.pid,
            "tid": threading.get_ident(),
        }
        if args:
            event["args"] = dict(args)
        with self._lock:
            self._events.append(event)
        _metrics.observe_phase(name, duration_s)

    def events(self) -> List[Dict]:
        """A copy of every recorded event."""
        with self._lock:
            return list(self._events)

    # ------------------------------------------------------------------
    # Export

    def export_jsonl(self, path) -> Path:
        """Write one JSON event per line (raw, unrebased timestamps)."""
        path = Path(path)
        with open(path, "w", encoding="utf-8") as fh:
            for event in self.events():
                fh.write(json.dumps(event) + "\n")
        return path

    def export_chrome(self, path) -> Path:
        """Write Chrome trace-event JSON (open in ``ui.perfetto.dev``).

        Timestamps are rebased so the earliest event starts at 0, and
        the process gets a ``process_name`` metadata event ("repro").
        """
        events = self.events()
        base = min((e["ts"] for e in events), default=0.0)
        trace_events = [{**event, "ts": event["ts"] - base} for event in events]
        metadata = {
            "name": "process_name",
            "ph": "M",
            "pid": self.pid,
            "tid": 0,
            "args": {"name": "repro"},
        }
        doc = {
            "traceEvents": [metadata] + trace_events,
            "displayTimeUnit": "ms",
        }
        path = Path(path)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path


#: The active tracer, or ``None`` when tracing is disabled. Hot paths
#: read this global once per phase; when it is ``None`` the only cost
#: is the truthiness check.
TRACER: Optional[Tracer] = None


def span(name: str, **attrs):
    """A span on the active tracer, or the shared no-op when disabled.

    The fast path — tracing off — is one global read and a truthiness
    check; no object is created.
    """
    tracer = TRACER
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, **attrs)


def enabled() -> bool:
    """Whether a tracer is currently active in this process."""
    return TRACER is not None


def enable() -> Tracer:
    """Turn tracing on; returns the (new) active tracer."""
    global TRACER
    TRACER = Tracer()
    return TRACER


def disable() -> None:
    """Turn tracing off."""
    global TRACER
    TRACER = None


def tracer() -> Optional[Tracer]:
    """The active :class:`Tracer`, or ``None`` when tracing is off.

    Prefer this over importing ``TRACER`` directly: the module global
    is rebound by :func:`enable`/:func:`disable`, so a ``from``-import
    would go stale.
    """
    return TRACER
