"""Search strategies: how an exploration spends its evaluation budget.

Strategies follow one ask/tell protocol:

* :meth:`Strategy.ask` proposes up to ``remaining`` design points;
* :meth:`Strategy.tell` feeds back scored evaluations (lower is better).

The engine (:mod:`repro.explore.engine`) owns the loop, the budget and
cross-batch deduplication; strategies only decide *where to look next*.

Three built-ins:

* :class:`GridStrategy` — exhaustive full-factorial enumeration; what
  the paper's Figures 15-16 sweeps do, now as a strategy.
* :class:`RandomStrategy` — seeded uniform sampling, the classic
  baseline for high-dimensional spaces.
* :class:`AdaptiveStrategy` — successive refinement: a coarse grid pass
  to map the terrain, then rounds of local perturbation around the
  incumbent best points with a halving step size — the budget
  concentrates near the Pareto front, so it typically matches or beats
  the full grid's optimum at a fraction of the evaluations (continuous
  axes are refined *between* grid lines, which the grid cannot see).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Protocol, Sequence, Tuple

from repro.explore.space import DesignSpace


class Strategy(Protocol):
    """Pluggable search policy over a design space."""

    def ask(self, remaining: int) -> List[Dict]:
        """Propose up to ``remaining`` points; empty means done."""
        ...

    def tell(self, scored: Sequence[Tuple[object, float]]) -> None:
        """Receive (evaluation, score) pairs for the last proposals."""
        ...


class GridStrategy:
    """Exhaustive enumeration of the space's full-factorial grid."""

    def __init__(self, space: DesignSpace) -> None:
        self.space = space
        self._pending = space.grid_points()
        self._cursor = 0

    def ask(self, remaining: int) -> List[Dict]:
        if remaining <= 0:
            return []
        batch = self._pending[self._cursor : self._cursor + remaining]
        self._cursor += len(batch)
        return batch

    def tell(self, scored: Sequence[Tuple[object, float]]) -> None:
        pass


class RandomStrategy:
    """Seeded uniform random search."""

    def __init__(self, space: DesignSpace, seed: int = 0, batch_size: int = 8) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.space = space
        self._rng = random.Random(seed)
        self._batch_size = batch_size

    def ask(self, remaining: int) -> List[Dict]:
        count = min(self._batch_size, remaining)
        return [self.space.sample(self._rng) for _ in range(max(0, count))]

    def tell(self, scored: Sequence[Tuple[object, float]]) -> None:
        pass


class AdaptiveStrategy:
    """Successive refinement around the best points seen so far.

    Round 0 evaluates a coarse grid (``coarse`` samples per continuous/
    integer axis, every categorical choice). Each later round takes the
    ``top_k`` best evaluations to date and proposes ``children`` local
    perturbations of each, with the perturbation scale halving (times
    ``shrink``) every round — successive-halving of the search radius,
    spending the remaining budget ever closer to the incumbent optimum.

    Args:
        space: The design space.
        seed: RNG seed (the strategy is fully deterministic given it).
        coarse: Per-axis resolution of the round-0 grid.
        top_k: Incumbents refined each round.
        children: Proposals per incumbent per round.
        scale: Initial perturbation scale, as a fraction of each axis span.
        shrink: Multiplicative scale decay per refinement round.
    """

    def __init__(
        self,
        space: DesignSpace,
        seed: int = 0,
        coarse: int = 3,
        top_k: int = 2,
        children: int = 4,
        scale: float = 0.2,
        shrink: float = 0.5,
    ) -> None:
        if coarse < 1:
            raise ValueError(f"coarse must be >= 1, got {coarse}")
        if top_k < 1 or children < 1:
            raise ValueError("top_k and children must be >= 1")
        if not 0.0 < shrink <= 1.0:
            raise ValueError(f"shrink must be in (0, 1], got {shrink}")
        self.space = space
        self._rng = random.Random(seed)
        self._coarse: Optional[List[Dict]] = space.grid_points(coarse)
        self._top_k = top_k
        self._children = children
        self._scale = scale
        self._shrink = shrink
        self._best: List[Tuple[float, int, object]] = []
        self._tick = 0

    def ask(self, remaining: int) -> List[Dict]:
        if remaining <= 0:
            return []
        if self._coarse is not None:
            batch = self._coarse[:remaining]
            self._coarse = self._coarse[remaining:] or None
            if batch:
                return batch
        if not self._best:
            # Nothing scored yet (everything deduped away) — fall back to
            # random sampling so the search cannot stall.
            return [self.space.sample(self._rng) for _ in range(min(remaining, 4))]
        proposals: List[Dict] = []
        for _, _, evaluation in self._best[: self._top_k]:
            parent = evaluation.point_dict
            for _ in range(self._children):
                proposals.append(self.space.neighbor(parent, self._rng, self._scale))
                if len(proposals) >= remaining:
                    break
            if len(proposals) >= remaining:
                break
        self._scale *= self._shrink
        return proposals

    def tell(self, scored: Sequence[Tuple[object, float]]) -> None:
        for evaluation, score in scored:
            self._tick += 1
            self._best.append((score, self._tick, evaluation))
        self._best.sort(key=lambda item: (item[0], item[1]))
        del self._best[max(self._top_k, 8) :]


_STRATEGIES = {
    "grid": GridStrategy,
    "random": RandomStrategy,
    "adaptive": AdaptiveStrategy,
}


def get_strategy(name: str, space: DesignSpace, seed: int = 0) -> Strategy:
    """Strategy by CLI name."""
    if name == "grid":
        return GridStrategy(space)
    try:
        cls = _STRATEGIES[name]
    except KeyError:
        raise ValueError(
            f"unknown strategy {name!r}; choose from {sorted(_STRATEGIES)}"
        ) from None
    return cls(space, seed=seed)
