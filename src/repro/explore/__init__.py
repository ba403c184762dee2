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

from repro.util.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".engine": (
        "ExplorationResult", "Journal", "explore", "format_exploration",
        "pareto_front",
    ),
    ".errors": (
        "EvaluationFailed", "LeaseHeld", "PoisonPoint", "ServeDegradedWarning",
        "ServeRecoveredWarning", "StoreDegradedWarning",
    ),
    ".evaluator": (
        "Evaluation", "Evaluator", "KernelSummary", "evaluate_design_point",
        "evaluate_design_points",
    ),
    ".objectives": (
        "AdcrObjective", "AncillaQualityObjective", "AreaObjective",
        "ConstrainedObjective", "LatencyObjective", "Objective",
        "get_objective", "objective_names", "pi8_ancilla_quality",
    ),
    ".space": (
        "Categorical", "Continuous", "DesignSpace", "Integer",
        "architecture_space", "throughput_space",
    ),
    ".store": ("FsckReport", "ResultStore", "key_digest"),
    ".strategies": (
        "AdaptiveStrategy", "GridStrategy", "RandomStrategy", "Strategy",
        "get_strategy", "strategy_names",
    ),
})
