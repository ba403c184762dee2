"""Per-layer timing from outside the program: wrappers around public calls.

The benchmark does not rely on spans inside ``repro``. Instead, for a
traced run it replaces each public function or method listed in
:data:`LAYERS` with a wrapper that records calls, inclusive time and
*self* time (inclusive time minus the time spent in wrapped calls made
from inside it, on the same thread). Self times of nested wrappers
partition the time of the outermost wrapped call, so the sum of every
self time in a process equals the time spent inside wrapped calls; what
remains of the wall time is reported as ``untraced_s``.

Functions are patched in every ``repro`` module namespace that holds a
reference to them (``from x import f`` copies the reference), because
that is where callers look them up. Methods are patched on their class.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple


def _points(args, kwargs, arg_index: int, name: str) -> int:
    value = kwargs[name] if name in kwargs else args[arg_index]
    return len(value)


def _trials(args, kwargs, result) -> Dict[str, int]:
    trials = kwargs["trials"] if "trials" in kwargs else args[2]
    return {"trials": int(trials)}


def _batch_points(args, kwargs, result) -> Dict[str, int]:
    return {"points": _points(args, kwargs, 1, "supplies")}


def _evaluate_points(args, kwargs, result) -> Dict[str, int]:
    return {"points": _points(args, kwargs, 1, "points")}


def _store_hit(args, kwargs, result) -> Dict[str, int]:
    return {"hits": int(result is not None)}


#: One entry per wrapped call: (metric name, module, attribute path,
#: extra-count hook). ``Class.method`` paths are patched on the class;
#: plain names are patched wherever a ``repro`` module holds them. Several
#: entries may share a metric name (the store's three lease operations).
LAYERS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("kernels.analyze_kernel", "repro.kernels.analysis", "analyze_kernel", None),
    ("circuits.compile_circuit", "repro.circuits.compiled", "compile_circuit", None),
    ("circuits.dataflow_metadata", "repro.circuits.compiled", "dataflow_metadata", None),
    ("error.estimate", "repro.error.montecarlo", "MonteCarloSimulator.estimate", _trials),
    ("error.batched", "repro.error.batched", "BatchedSimulator.run_program", None),
    ("ancilla.evaluate_strategy", "repro.ancilla.evaluation", "evaluate_strategy", None),
    ("arch.simulate_batch", "repro.arch.batched", "simulate_batch", _batch_points),
    ("arch.run", "repro.arch.simulator", "DataflowSimulator.run", None),
    ("store.get", "repro.explore.store", "ResultStore.get", _store_hit),
    ("store.put", "repro.explore.store", "ResultStore.put", None),
    ("store.lease", "repro.explore.store", "ResultStore.claim", None),
    ("store.lease", "repro.explore.store", "ResultStore.release", None),
    ("store.lease", "repro.explore.store", "ResultStore.heartbeat", None),
    ("explore.evaluate", "repro.explore.evaluator", "Evaluator.evaluate", _evaluate_points),
    ("explore.explore", "repro.explore.engine", "explore", None),
    ("serve.client", "repro.serve.client", "Client.evaluate", None),
    ("serve.protocol", "repro.serve.protocol", "encode_request", None),
    ("serve.protocol", "repro.serve.protocol", "decode_request", None),
    ("serve.protocol", "repro.serve.protocol", "encode_response", None),
    ("serve.protocol", "repro.serve.protocol", "decode_response", None),
    ("serve.service", "repro.serve.server", "ExploreService.evaluate", None),
    ("reporting.run_experiment", "repro.reporting.registry", "run_experiment", None),
    ("reporting.format", "repro.reporting.tables", "format_table", None),
    ("reporting.format", "repro.reporting.figures", "ascii_plot", None),
)

#: Extra counters each layer reports beside ``calls``.
EXTRA_COUNTS: Dict[str, Tuple[str, ...]] = {
    "error.estimate": ("trials",),
    "arch.simulate_batch": ("points",),
    "store.get": ("hits",),
    "explore.evaluate": ("points",),
}


def layer_names() -> List[str]:
    return list(dict.fromkeys(name for name, _, _, _ in LAYERS))


class Tracer:
    """Installs the :data:`LAYERS` wrappers and accumulates their totals.

    Each thread keeps its own stack and its own totals table, so the hot
    path takes no lock; :meth:`totals` merges the tables.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._tables: List[Dict[str, List[float]]] = []
        self._tables_lock = threading.Lock()
        self._undo: List[Tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        for name, module_name, path, extra in LAYERS:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                self._set(cls, attr, self._wrap(name, original, extra))
            else:
                original = getattr(module, path)
                wrapper = self._wrap(name, original, extra)
                for holder in [m for n, m in sys.modules.items()
                               if n == "repro" or n.startswith("repro.")]:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self._set(holder, key, wrapper)

    def _set(self, holder, attr: str, value) -> None:
        self._undo.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()

    # -- recording ------------------------------------------------------

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.table = {}
            with self._tables_lock:
                self._tables.append(local.table)
        return local.stack, local.table

    def _wrap(self, name: str, fn: Callable, extra: Optional[Callable]) -> Callable:
        extras = EXTRA_COUNTS.get(name, ())
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, table = self._state()
            stack.append(0.0)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                row = table.get(name)
                if row is None:
                    row = table[name] = [0, 0.0, 0.0] + [0] * len(extras)
                row[0] += 1
                row[1] += elapsed - children
                row[2] += elapsed
                if extra is not None:
                    counts = extra(args, kwargs, result)
                    for i, key in enumerate(extras):
                        row[3 + i] += counts.get(key, 0)

        return wrapper

    def totals(self) -> Dict[str, Dict[str, float]]:
        """``{layer: {"calls", "self_s", "incl_s", <extra counts>}}``."""
        merged: Dict[str, Dict[str, float]] = {}
        with self._tables_lock:
            tables = list(self._tables)
        for name in layer_names():
            extras = EXTRA_COUNTS.get(name, ())
            out = {"calls": 0, "self_s": 0.0, "incl_s": 0.0}
            out.update({key: 0 for key in extras})
            for table in tables:
                row = table.get(name)
                if row is None:
                    continue
                out["calls"] += row[0]
                out["self_s"] += row[1]
                out["incl_s"] += row[2]
                for i, key in enumerate(extras):
                    out[key] += row[3 + i]
            merged[name] = out
        return merged


def merge_totals(*parts: Dict[str, Dict[str, float]]) -> Dict[str, Dict[str, float]]:
    """Sum per-layer totals from several processes (client and server)."""
    merged: Dict[str, Dict[str, float]] = {}
    for part in parts:
        for name, row in part.items():
            into = merged.setdefault(name, {key: 0 for key in row})
            for key, value in row.items():
                into[key] = into.get(key, 0) + value
    return merged
