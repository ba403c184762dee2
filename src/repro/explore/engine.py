"""The exploration loop: strategy asks, evaluator answers, budget gates.

:func:`explore` wires a :class:`~repro.explore.space.DesignSpace`, an
objective, a strategy and an :class:`~repro.explore.evaluator.Evaluator`
into one bounded search. The engine canonicalizes each proposed point
once (through the evaluator) and owns cross-batch deduplication (a
strategy re-proposing a seen point costs nothing) and the evaluation
budget (counted in *unique evaluated points*, whether they came from the
simulator or the warm result store).

The returned :class:`ExplorationResult` carries every evaluation, the
best point under the objective, per-architecture winners and the
area-delay Pareto front — the raw material of the paper's Figure 15/16
argument, for arbitrary kernels and spaces.

Checkpoint/resume: pass ``journal=`` (a ``journal.jsonl`` path, by
convention beside the result store — see
:meth:`ResultStore.journal_path`) and every completed round is appended
to it (fsync'd, torn tails tolerated). After an interruption — SIGKILL,
power loss, a crashed machine — ``resume=True`` replays the journaled
rounds against the warm store, restores the strategy's state through
the same ``tell`` feedback, and continues the search where it stopped.
Replay costs zero new simulations after a process crash. Store records
are not fsync'd, so after power loss a replayed point whose record never
reached the disk reads as a miss and is re-simulated, with an identical
result. A journal written by a different exploration
(kernel/objective/strategy fingerprint mismatch) is refused. Failed
evaluations (quarantined poison points) score ``inf`` and are excluded
from Pareto fronts and per-architecture winners, so one bad point never
sinks a search.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.explore.errors import StoreDegradedWarning

from repro.explore.evaluator import Evaluation, Evaluator
from repro.explore.objectives import Objective
from repro.explore.space import DesignSpace
from repro.explore.strategies import Strategy

#: Consecutive all-duplicate asks after which the engine stops waiting
#: for a strategy to produce something new.
_STALL_LIMIT = 3


@dataclass
class ExplorationResult:
    """Everything one exploration learned."""

    kernel: str
    objective_name: str
    strategy_name: str
    evaluations: List[Evaluation] = field(default_factory=list)
    scores: List[float] = field(default_factory=list)
    simulations_run: int = 0
    cache_hits: int = 0

    @property
    def evaluated(self) -> int:
        """Unique design points evaluated (the spent budget)."""
        return len(self.evaluations)

    @property
    def failures(self) -> List[Evaluation]:
        """Evaluations that failed (quarantined poison points)."""
        return [e for e in self.evaluations if not e.ok]

    @property
    def best_index(self) -> int:
        if not self.evaluations:
            raise ValueError("exploration evaluated no points")
        return min(range(len(self.scores)), key=lambda i: self.scores[i])

    @property
    def best(self) -> Evaluation:
        return self.evaluations[self.best_index]

    @property
    def best_score(self) -> float:
        return self.scores[self.best_index]

    def best_per(self, dimension: str) -> Dict[object, Tuple[Evaluation, float]]:
        """Best (evaluation, score) for each value of ``dimension``."""
        winners: Dict[object, Tuple[Evaluation, float]] = {}
        for evaluation, score in zip(self.evaluations, self.scores):
            if not evaluation.ok:
                continue
            value = evaluation.point_dict.get(dimension)
            if value is None:
                continue
            incumbent = winners.get(value)
            if incumbent is None or score < incumbent[1]:
                winners[value] = (evaluation, score)
        return winners

    def pareto_front(self) -> List[Evaluation]:
        """Area-delay nondominated evaluations, ordered by ascending area."""
        return pareto_front(self.evaluations)


def pareto_front(evaluations: List[Evaluation]) -> List[Evaluation]:
    """Evaluations no other point beats on both total area and delay.

    Failed evaluations (no simulation result) are excluded.
    """
    ordered = sorted(
        (e for e in evaluations if e.ok),
        key=lambda e: (e.total_area, e.result.makespan_us),
    )
    front: List[Evaluation] = []
    best_delay = math.inf
    for evaluation in ordered:
        if evaluation.result.makespan_us < best_delay:
            front.append(evaluation)
            best_delay = evaluation.result.makespan_us
    return front


class Journal:
    """Round-level checkpoint log for one exploration.

    One JSON line per completed round (plus a header fingerprinting the
    exploration), appended and fsync'd after the round's evaluations and
    strategy feedback land. A crash between rounds therefore loses at
    most the in-flight round — and even that only costs re-reading the
    warm result store on resume. Journal I/O failures degrade to a
    :class:`StoreDegradedWarning`; checkpointing is never allowed to
    kill the search it protects.
    """

    def __init__(self, path: os.PathLike, fingerprint: Dict[str, object]) -> None:
        self.path = Path(path)
        self.fingerprint = fingerprint
        self._handle = None

    def load_rounds(self) -> List[List[Dict]]:
        """Completed rounds from a previous run (torn tails tolerated)."""
        rounds: List[List[Dict]] = []
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        entry = json.loads(line)
                    except json.JSONDecodeError:
                        break  # torn tail from a crash mid-append
                    if not isinstance(entry, dict):
                        break
                    if entry.get("type") == "header":
                        if entry.get("fingerprint") != self.fingerprint:
                            raise ValueError(
                                f"journal {self.path} was written by a "
                                "different exploration (kernel/objective/"
                                "strategy mismatch); remove it or start "
                                "without resume"
                            )
                    elif entry.get("type") == "round":
                        points = entry.get("points")
                        if isinstance(points, list):
                            rounds.append(points)
        except FileNotFoundError:
            return []
        except OSError as exc:
            warnings.warn(
                f"journal unreadable ({exc}); starting fresh",
                StoreDegradedWarning,
                stacklevel=2,
            )
            return []
        return rounds

    def begin(self, fresh: bool) -> None:
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            existed = self.path.exists() and self.path.stat().st_size > 0
            self._handle = open(
                self.path, "w" if fresh else "a", encoding="utf-8"
            )
            if fresh or not existed:
                self._append({"type": "header", "fingerprint": self.fingerprint})
        except OSError as exc:
            self._handle = None
            warnings.warn(
                f"journal unavailable ({exc}); exploring without checkpoints",
                StoreDegradedWarning,
                stacklevel=2,
            )

    def _append(self, entry: Dict) -> None:
        if self._handle is None:
            return
        try:
            self._handle.write(json.dumps(entry, sort_keys=True) + "\n")
            self._handle.flush()
            os.fsync(self._handle.fileno())
        except (OSError, ValueError) as exc:
            self.close()
            warnings.warn(
                f"journal write failed ({exc}); checkpointing disabled",
                StoreDegradedWarning,
                stacklevel=3,
            )

    def record_round(self, points: List[Dict]) -> None:
        self._append({"type": "round", "points": points})

    def close(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:
                pass
            self._handle = None


def explore(
    space: DesignSpace,
    objective: Objective,
    strategy: Strategy,
    *,
    evaluator: Evaluator,
    budget: int,
    journal: Optional[os.PathLike] = None,
    resume: bool = False,
) -> ExplorationResult:
    """Search ``space`` for the point minimizing ``objective``.

    Args:
        space: The design space (strategies hold it too; passed for
            result metadata and sanity).
        objective: Scoring rule; lower is better.
        strategy: Proposal policy (grid / random / adaptive / custom).
        evaluator: An :class:`Evaluator` or a served
            :class:`~repro.serve.client.RemoteEvaluator`, used through
            ``canonicalize`` (once per proposed point; ``key`` dedupes),
            ``evaluate`` (of those canonical points), ``stats`` and
            ``label``. Its result store makes re-runs incremental.
        budget: Maximum unique design points to evaluate.
        journal: Optional checkpoint path (``journal.jsonl`` beside the
            result store, by convention); completed rounds are logged so
            an interrupted run can resume.
        resume: Replay the journal's completed rounds first — served
            from the warm store with zero new simulations — then keep
            searching. Counts replayed points against ``budget``.

    The loop ends when the budget is spent, the strategy runs dry, or
    the strategy stalls (proposes only already-seen points several asks
    in a row).
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    before = evaluator.stats()
    result = ExplorationResult(
        kernel=evaluator.label,
        objective_name=objective.name,
        strategy_name=type(strategy).__name__,
    )
    log: Optional[Journal] = None
    replayed: List[List[Dict]] = []
    if journal is not None:
        log = Journal(
            journal,
            {
                "kernel": result.kernel,
                "objective": result.objective_name,
                "strategy": result.strategy_name,
            },
        )
        if resume:
            replayed = log.load_rounds()
        log.begin(fresh=not resume)
    seen: set = set()
    replayed_points = 0

    def unseen(points: List[Dict]) -> List[Dict]:
        """Canonical forms of ``points`` not seen yet; marks them seen."""
        fresh: Dict[str, Dict] = {}
        for point in points:
            canonical = evaluator.canonicalize(point)
            if canonical.key not in seen:
                fresh.setdefault(canonical.key, canonical)
        seen.update(fresh)
        return list(fresh.values())

    def run_round(points: List[Dict], checkpoint: bool) -> None:
        from repro.obs.trace import span as _span

        with _span("explore.round", points=len(points)):
            evaluations = evaluator.evaluate(points)
            scored = [
                (e, objective.score(e) if e.ok else math.inf)
                for e in evaluations
            ]
            result.evaluations.extend(e for e, _ in scored)
            result.scores.extend(s for _, s in scored)
            strategy.tell(scored)
            if checkpoint and log is not None:
                log.record_round([e.point_dict for e in evaluations])

    try:
        for points in replayed:
            if result.evaluated >= budget:
                break
            fresh = unseen(points)
            if fresh:
                replayed_points += len(fresh)
                run_round(fresh, checkpoint=False)

        # A resumed grid-style strategy re-proposes the replayed prefix
        # before reaching new ground; allow it that many duplicate asks.
        stall_limit = _STALL_LIMIT + replayed_points
        stalls = 0
        while result.evaluated < budget and stalls < stall_limit:
            asked = strategy.ask(budget - result.evaluated)
            if not asked:
                break
            fresh = unseen(asked)
            if not fresh:
                stalls += 1
                strategy.tell([])
                continue
            stalls = 0
            run_round(fresh, checkpoint=True)
    finally:
        if log is not None:
            log.close()
    after = evaluator.stats()
    result.simulations_run = after["simulations_run"] - before["simulations_run"]
    result.cache_hits = after["cache_hits"] - before["cache_hits"]
    return result


# ----------------------------------------------------------------------
# Reporting


def format_exploration(result: ExplorationResult, pareto_rows: int = 12) -> str:
    """Human-readable exploration report: pick, per-arch bests, Pareto."""
    from repro.reporting.tables import format_table

    lines = [
        f"Exploration of {result.kernel} — objective {result.objective_name}, "
        f"strategy {result.strategy_name}",
        f"  evaluated {result.evaluated} design points "
        f"({result.simulations_run} new simulations, "
        f"{result.cache_hits} served from the result store)",
    ]
    failed = result.failures
    if failed:
        lines.append(
            f"  {len(failed)} point(s) failed evaluation and were "
            f"quarantined (first: {_point_label(failed[0])} — "
            f"{failed[0].error})"
        )
    if not result.evaluations:
        lines.append("  no feasible points evaluated")
        return "\n".join(lines)
    if math.isinf(result.best_score):
        lines.append(
            "  no feasible point found: every evaluated point violates the "
            "objective's constraints (relax --max-area / --max-latency-ms "
            "or widen the space)"
        )
        return "\n".join(lines)
    best = result.best
    lines.append(
        f"  best: {_point_label(best)}  ->  score {result.best_score:.4g}  "
        f"(delay {best.result.makespan_ms:.2f} ms, "
        f"total area {best.total_area:.0f} mb)"
    )
    winners = result.best_per("arch")
    if len(winners) > 1:
        rows = [
            (
                arch,
                _fmt(evaluation.point_dict.get("factory_area")),
                f"{evaluation.result.makespan_ms:.2f}",
                f"{evaluation.total_area:.0f}",
                f"{score:.4g}",
            )
            for arch, (evaluation, score) in sorted(winners.items())
        ]
        lines.append("")
        lines.append(
            format_table(
                ["Architecture", "Factory Area", "Delay (ms)",
                 "Total Area", result.objective_name.upper()],
                rows,
                title="Best point per architecture",
            )
        )
    front = result.pareto_front()
    shown = front[:pareto_rows]
    rows = [
        (
            _point_label(evaluation),
            f"{evaluation.total_area:.0f}",
            f"{evaluation.result.makespan_ms:.2f}",
        )
        for evaluation in shown
    ]
    lines.append("")
    title = f"Area-delay Pareto front ({len(front)} points"
    title += ")" if len(front) <= pareto_rows else f", first {pareto_rows})"
    lines.append(
        format_table(["Design Point", "Total Area (mb)", "Delay (ms)"], rows,
                     title=title)
    )
    return "\n".join(lines)


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _point_label(evaluation: Evaluation) -> str:
    return ", ".join(
        f"{name}={_fmt(value)}" for name, value in evaluation.point
    )
