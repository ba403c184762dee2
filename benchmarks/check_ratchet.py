"""Ratcheting performance gate over the recorded benchmark trajectory.

``BENCH_protocols.json`` accumulates one entry per perf benchmark per
recording session (see :mod:`benchmarks.record`). This script turns that
trajectory into a regression gate: for every gated benchmark, the best
value among the most recent ``--window`` entries must land within
``--tolerance`` (default 10%) of the best value ever recorded. The best
ever recorded is the ratchet — it only moves up, so a perf win raises
the bar for every later change, and a committed history whose newest
entries fall more than the tolerance below the bar fails CI.

Every gated metric is a *ratio of two measurements from the same
session* (compiled-vs-seed speedup, batched-vs-scalar speedup), never a
raw throughput. Raw gates/s numbers vary with the machine that recorded
them; same-session ratios cancel machine speed, so a laptop-recorded
entry and a CI-recorded entry are comparable and the gate is
deterministic given the committed file.

Exit status: 0 when every gated benchmark passes, 1 when any regresses
or has no recorded sample (a gate nobody records would never be
checked).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

#: Default trajectory file — the one benchmarks/record.py appends to.
HISTORY_PATH = Path(__file__).resolve().parent.parent / "BENCH_protocols.json"

#: How far below the best recorded value the recent window may fall.
DEFAULT_TOLERANCE = 0.10

#: Recent entries considered per benchmark; the best of the window is
#: compared against the ratchet, so one noisy recording session does not
#: fail the gate by itself.
DEFAULT_WINDOW = 3


def _ratio(numerator: str, denominator: str) -> Callable[[Dict], Optional[float]]:
    def extract(metrics: Dict) -> Optional[float]:
        try:
            num, den = float(metrics[numerator]), float(metrics[denominator])
        except (KeyError, TypeError, ValueError):
            return None
        return num / den if den > 0 else None

    return extract


def _field(name: str) -> Callable[[Dict], Optional[float]]:
    def extract(metrics: Dict) -> Optional[float]:
        try:
            return float(metrics[name])
        except (KeyError, TypeError, ValueError):
            return None

    return extract


@dataclass(frozen=True)
class Gate:
    """One gated benchmark: where its ratio comes from, and its label.

    ``tolerance`` overrides the run-wide default for this gate. Gates
    whose denominator is a *live* reference engine carry a wide one:
    the scalar protocol loops get optimized over time, so those ratios
    shrink legitimately when the reference improves. The wide bound
    still catches a batched-engine collapse while absorbing reference
    drift. Gates measured against the *frozen seed* engine keep the
    tight default unless their ratio is noisy (the sweep ladders).
    """

    benchmark: str
    label: str
    extract: Callable[[Dict], Optional[float]]
    tolerance: Optional[float] = None


#: The gated benchmarks. Each label names the machine-independent ratio
#: being ratcheted.
GATES: Sequence[Gate] = (
    Gate(
        "dataflow_single_point",
        "compiled/seed gates-per-second",
        _ratio("gates_per_second", "seed_gates_per_second"),
    ),
    Gate("dataflow_area_sweep", "sweep speedup vs seed", _field("speedup_vs_seed")),
    Gate("pi8_protocol", "batched/scalar speedup", _field("speedup"), 0.30),
    Gate("cat7_protocol", "batched/scalar speedup", _field("speedup"), 0.30),
    # The three sweep ladders are against the frozen seed loop, but
    # their ratios spread widely between runs on a 2-core host, so the
    # wide bound stays. Every CQLA point runs through run(), so the CQLA
    # ladder gates the serial engine's ratio.
    Gate("steady_sweep", "batched/seed speedup", _field("speedup_vs_seed"), 0.30),
    Gate("qla_area_sweep", "batched/seed speedup", _field("speedup_vs_seed"), 0.30),
    Gate(
        "cqla_sweep", "serial/seed speedup",
        _field("serial_speedup_vs_seed"), 0.30,
    ),
)


@dataclass(frozen=True)
class RatchetResult:
    """Outcome of one gate: recent-window best vs best ever recorded."""

    benchmark: str
    label: str
    best: Optional[float]  # ratchet: best value ever recorded
    recent: Optional[float]  # best of the most recent window
    samples: int  # history entries carrying this metric
    tolerance: Optional[float] = None  # per-gate override, if any

    @property
    def drop(self) -> Optional[float]:
        """Fractional shortfall of recent vs best (0.0 = at the bar)."""
        if self.best is None or self.recent is None or self.best <= 0:
            return None
        return max(0.0, 1.0 - self.recent / self.best)

    def limit(self, default_tolerance: float) -> float:
        return self.tolerance if self.tolerance is not None else default_tolerance

    def ok(self, default_tolerance: float) -> bool:
        """A drop beyond the gate's tolerance fails, and so does a gate
        with no recorded sample: it would otherwise never be checked."""
        drop = self.drop
        return drop is not None and drop <= self.limit(default_tolerance)


def _entry_key(entry: Dict) -> Optional[tuple]:
    """Identity of an entry for dedupe: name + metrics, ignoring the
    recording timestamp and Python stamp."""
    if not isinstance(entry, dict):
        return None
    return (
        entry.get("name"),
        json.dumps(entry.get("metrics"), sort_keys=True),
    )


def dedupe_trailing_batches(history: List[Dict]) -> List[Dict]:
    """Drop trailing recording batches that exactly repeat the batch
    before them (same names and metrics, timestamps ignored).

    A double flush — e.g. a benchmark session rerun without clearing the
    queue, or a file committed twice — appends an identical block and
    would double-weight its values in the recent window. Repeatedly strip
    the largest trailing block k whose (name, metrics) sequence equals
    the preceding k entries; genuine re-measurements differ in their
    timings and are kept.
    """
    entries = list(history)
    stripped = True
    while stripped:
        stripped = False
        keys = [_entry_key(entry) for entry in entries]
        for k in range(len(entries) // 2, 0, -1):
            if keys[-k:] == keys[-2 * k : -k]:
                del entries[-k:]
                stripped = True
                break
    return entries


def load_history(path: Path) -> List[Dict]:
    """The recorded trajectory, oldest first, with duplicate trailing
    batches collapsed; missing/corrupt is empty."""
    try:
        loaded = json.loads(path.read_text())
    except (OSError, ValueError):
        return []
    return dedupe_trailing_batches(loaded) if isinstance(loaded, list) else []


def check(
    history: Sequence[Dict],
    gates: Sequence[Gate] = GATES,
    window: int = DEFAULT_WINDOW,
) -> List[RatchetResult]:
    """Evaluate every gate against the trajectory."""
    results = []
    for gate in gates:
        values = [
            value
            for entry in history
            if isinstance(entry, dict) and entry.get("name") == gate.benchmark
            for value in [gate.extract(entry.get("metrics") or {})]
            if value is not None
        ]
        results.append(
            RatchetResult(
                benchmark=gate.benchmark,
                label=gate.label,
                best=max(values) if values else None,
                recent=max(values[-window:]) if values else None,
                samples=len(values),
                tolerance=gate.tolerance,
            )
        )
    return results


def format_report(results: Sequence[RatchetResult], tolerance: float) -> str:
    lines = [
        f"perf ratchet: recent window vs best recorded "
        f"(tolerance {tolerance:.0%})"
    ]
    width = max(len(r.benchmark) for r in results) if results else 0
    for r in results:
        if r.best is None:
            lines.append(f"  {r.benchmark:<{width}}  {r.label}: no recorded sample  MISSING")
            continue
        drop = r.drop or 0.0
        verdict = "ok" if r.ok(tolerance) else "REGRESSED"
        limit = r.limit(tolerance)
        note = f" (gate {limit:.0%})" if r.tolerance is not None else ""
        lines.append(
            f"  {r.benchmark:<{width}}  {r.label}: best {r.best:8.2f}  "
            f"recent {r.recent:8.2f}  drop {drop:6.1%}  {verdict}{note}"
        )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--history", type=Path, default=HISTORY_PATH,
        help=f"benchmark trajectory file (default: {HISTORY_PATH.name})",
    )
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE, metavar="F",
        help="allowed fractional drop below the best recorded (default 0.10)",
    )
    parser.add_argument(
        "--window", type=int, default=DEFAULT_WINDOW, metavar="N",
        help="recent entries per benchmark; the window's best is compared "
             "(default 3)",
    )
    ns = parser.parse_args(argv)
    if ns.window < 1:
        parser.error(f"--window must be >= 1, got {ns.window}")
    if not 0 <= ns.tolerance < 1:
        parser.error(f"--tolerance must be in [0, 1), got {ns.tolerance}")
    results = check(load_history(ns.history), window=ns.window)
    print(format_report(results, ns.tolerance))
    failed = [r for r in results if not r.ok(ns.tolerance)]
    if failed:
        names = ", ".join(r.benchmark for r in failed)
        print(
            f"FAIL: {names} regressed beyond the gate tolerance below "
            "the best recorded value, or has no recorded sample",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
