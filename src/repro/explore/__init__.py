"""Design-space exploration: find ADCR-optimal architectures, not just
replot the paper's.

The paper's Qalypso pick (Figures 15-16) is the optimum of a design-space
search. This package makes that search a subsystem:

* :mod:`repro.explore.space` — declare named dimensions (architecture
  kind, factory area, supply rates, tech scaling) as a
  :class:`DesignSpace`;
* :mod:`repro.explore.objectives` — score evaluations by ADCR, latency
  or area, optionally under constraints;
* :mod:`repro.explore.strategies` — exhaustive grid, random, and
  adaptive successive-refinement search behind one ask/tell protocol;
* :mod:`repro.explore.evaluator` — batch points through the compiled
  dataflow engine in-process, with batch-level dedupe, retry and
  poison-point quarantine;
* :mod:`repro.explore.store` — a content-addressed result store under
  ``.repro_cache/`` making every re-run and refinement incremental;
* :mod:`repro.explore.engine` — the budgeted search loop and
  Pareto-front reporting.

Quickstart::

    from repro.explore import (
        AdcrObjective, Evaluator, GridStrategy, architecture_space, explore,
    )
    from repro.kernels import analyze_kernel

    ka = analyze_kernel("qcla", 32)
    space = architecture_space(ka)
    result = explore(
        space, AdcrObjective(), GridStrategy(space),
        evaluator=Evaluator(analysis=ka), budget=space.grid_size(),
    )
    print(result.best.point_dict, result.best_score)
"""

from repro.explore.engine import (
    ExplorationResult,
    Journal,
    explore,
    format_exploration,
    pareto_front,
)
from repro.explore.errors import (
    EvaluationFailed,
    LeaseHeld,
    PoisonPoint,
    ServeDegradedWarning,
    ServeRecoveredWarning,
    StoreDegradedWarning,
)
from repro.explore.evaluator import (
    Evaluation,
    Evaluator,
    KernelSummary,
    evaluate_design_point,
    evaluate_design_points,
)
from repro.explore.objectives import (
    AdcrObjective,
    AncillaQualityObjective,
    AreaObjective,
    ConstrainedObjective,
    LatencyObjective,
    Objective,
    get_objective,
    objective_names,
    pi8_ancilla_quality,
)
from repro.explore.space import (
    Categorical,
    Continuous,
    DesignSpace,
    Integer,
    architecture_space,
    throughput_space,
)
from repro.explore.store import FsckReport, ResultStore, key_digest
from repro.explore.strategies import (
    AdaptiveStrategy,
    GridStrategy,
    RandomStrategy,
    Strategy,
    get_strategy,
    strategy_names,
)

__all__ = [
    "AdaptiveStrategy",
    "AdcrObjective",
    "AncillaQualityObjective",
    "AreaObjective",
    "Categorical",
    "ConstrainedObjective",
    "Continuous",
    "DesignSpace",
    "Evaluation",
    "EvaluationFailed",
    "Evaluator",
    "ExplorationResult",
    "FsckReport",
    "GridStrategy",
    "Integer",
    "Journal",
    "KernelSummary",
    "LatencyObjective",
    "LeaseHeld",
    "Objective",
    "PoisonPoint",
    "RandomStrategy",
    "ResultStore",
    "ServeDegradedWarning",
    "ServeRecoveredWarning",
    "StoreDegradedWarning",
    "Strategy",
    "architecture_space",
    "evaluate_design_point",
    "evaluate_design_points",
    "explore",
    "format_exploration",
    "get_objective",
    "get_strategy",
    "key_digest",
    "objective_names",
    "pareto_front",
    "pi8_ancilla_quality",
    "strategy_names",
    "throughput_space",
]
