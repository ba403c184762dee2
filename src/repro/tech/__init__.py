"""Physical technology models.

The paper grounds its symbolic analysis in trapped-ion technology using the
operation latencies of its Tables 1 and 4 and the error rates of Section 2.2.
This package holds those parameter records and makes them pluggable so the
rest of the library can be evaluated under different technology assumptions.

:mod:`repro.tech.levels` adds the concatenation-level axis:
``tech.at_level(L)`` (or :func:`at_level`) re-characterizes a technology
so level-(L-1) logical operations become the physical layer — the knob
that turns ``tech_scale``-style what-ifs into a real code-level study.
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".params": (
        "ERROR_MODEL_PAPER", "ION_TRAP", "ErrorRates", "TechnologyParams",
        "ion_trap_params",
    ),
    ".levels": ("at_level", "level_one_logical_error_rate"),
})
