"""Reporting: table formatting, ASCII figures, and the experiment registry.

Every table and figure in the paper's evaluation maps to a registered
experiment here; ``run_experiment("table3")`` (or the benchmark suite)
regenerates the corresponding rows or series.
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".figures": ("ascii_plot",),
    ".registry": ("EXPERIMENTS", "Experiment", "run_experiment"),
    ".tables": ("format_table",),
})
