"""Wire format of the exploration service: JSON over HTTP.

One request shape and one response shape, shared by the server and the
client so the two can never drift:

* request (``POST /evaluate``)::

      {"kernel": "qcla", "width": 32,
       "points": [{"arch": "qla", "factory_area": 80.0}, ...]}

  An ``"engine"`` field, which older clients still send, is ignored:
  there is one dataflow engine, and the engines it replaced were
  bit-identical to it, so every answer is the same either way.

* response (200)::

      {"evaluations": [<evaluation>, ...],
       "stats": {"simulations_run": 2, "cache_hits": 1, ...}}

where each ``<evaluation>`` is the JSON image of an
:class:`~repro.explore.evaluator.Evaluation` — the same shape the
result store persists, so a served evaluation decodes bit-identically
to one read from a local cache. ``stats`` is the *delta* of the
server-side evaluator's health counters for this request, letting the
client account simulations and cache hits exactly as a local run would.

Everything here raises :class:`ProtocolError` (a ``ValueError``) on
malformed documents; transport-level truncation (a torn response body)
surfaces as ``json.JSONDecodeError`` or ``ProtocolError`` at the caller
and is treated as retryable, never as data.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch.simulator import SimulationResult
from repro.explore.evaluator import Evaluation

#: Routes the server exposes.
EVALUATE_PATH = "/evaluate"
HEALTH_PATH = "/healthz"
READY_PATH = "/readyz"
METRICS_PATH = "/metrics"

#: Largest request body the server will read (a design-point batch is a
#: few KB; anything near this is a client bug, not a workload).
MAX_REQUEST_BYTES = 8 * 1024 * 1024

CONTENT_TYPE_JSON = "application/json"
#: Prometheus text exposition format (what /metrics serves).
CONTENT_TYPE_METRICS = "text/plain; version=0.0.4; charset=utf-8"


class ProtocolError(ValueError):
    """A request or response document does not match the wire format."""


# ----------------------------------------------------------------------
# Requests


def encode_request(
    kernel: str, width: int, points: Sequence[Dict[str, object]]
) -> bytes:
    document = {
        "kernel": kernel,
        "width": width,
        "points": [dict(point) for point in points],
    }
    try:
        return json.dumps(document, sort_keys=True).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"design points are not JSON-serializable: {exc}")


def decode_request(payload: bytes) -> Dict[str, object]:
    """Parse and validate an ``/evaluate`` request body."""
    try:
        document = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"request body is not valid JSON: {exc}")
    if not isinstance(document, dict):
        raise ProtocolError("request body must be a JSON object")
    kernel = document.get("kernel")
    width = document.get("width")
    points = document.get("points")
    if not isinstance(kernel, str) or not kernel:
        raise ProtocolError("request needs a non-empty string 'kernel'")
    if not isinstance(width, int) or isinstance(width, bool) or width < 1:
        raise ProtocolError(f"request needs a positive integer 'width', got {width!r}")
    if not isinstance(points, list) or not points:
        raise ProtocolError("request needs a non-empty 'points' list")
    for point in points:
        if not isinstance(point, dict):
            raise ProtocolError(f"each point must be an object, got {point!r}")
    return {"kernel": kernel, "width": width, "points": points}


# ----------------------------------------------------------------------
# Evaluations


def encode_evaluation(evaluation: Evaluation) -> Dict[str, object]:
    return {
        "point": dict(evaluation.point),
        "result": (
            asdict(evaluation.result) if evaluation.result is not None else None
        ),
        "areas": {
            "factory": evaluation.factory_area,
            "data": evaluation.data_area,
            "total": evaluation.total_area,
        },
        "from_cache": evaluation.from_cache,
        "error": evaluation.error,
    }


def decode_evaluation(raw: object) -> Evaluation:
    if not isinstance(raw, dict):
        raise ProtocolError(f"evaluation must be an object, got {raw!r}")
    try:
        point = raw["point"]
        areas = raw["areas"]
        if not isinstance(point, dict) or not isinstance(areas, dict):
            raise ProtocolError(f"malformed evaluation: {raw!r}")
        result_raw = raw.get("result")
        result: Optional[SimulationResult] = (
            SimulationResult(**result_raw) if result_raw is not None else None
        )
        return Evaluation(
            point=tuple(sorted(point.items())),
            result=result,
            factory_area=float(areas["factory"]),
            data_area=float(areas["data"]),
            total_area=float(areas["total"]),
            from_cache=bool(raw.get("from_cache", False)),
            error=raw.get("error"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed evaluation ({exc}): {raw!r}")


# ----------------------------------------------------------------------
# Responses


def encode_response(
    evaluations: Sequence[Evaluation], stats: Dict[str, int]
) -> bytes:
    document = {
        "evaluations": [encode_evaluation(e) for e in evaluations],
        "stats": dict(stats),
    }
    return json.dumps(document, sort_keys=True).encode("utf-8")


def decode_response(payload: bytes) -> Tuple[List[Evaluation], Dict[str, int]]:
    """Parse an ``/evaluate`` response; torn bodies raise ProtocolError."""
    try:
        document = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"response body is not valid JSON: {exc}")
    if not isinstance(document, dict):
        raise ProtocolError("response body must be a JSON object")
    raw = document.get("evaluations")
    stats = document.get("stats", {})
    if not isinstance(raw, list) or not isinstance(stats, dict):
        raise ProtocolError("response needs 'evaluations' list and 'stats' object")
    return [decode_evaluation(entry) for entry in raw], stats


def encode_error(message: str) -> bytes:
    return json.dumps({"error": message}).encode("utf-8")


def error_message(payload: bytes) -> str:
    """Best-effort extraction of an error body's message."""
    try:
        document = json.loads(payload.decode("utf-8"))
        if isinstance(document, dict) and isinstance(document.get("error"), str):
            return document["error"]
    except (UnicodeDecodeError, json.JSONDecodeError):
        pass
    return payload.decode("utf-8", errors="replace")[:200]
