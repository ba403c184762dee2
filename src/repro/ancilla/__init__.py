"""Encoded-ancilla preparation: circuits, strategies and evaluation.

Implements Section 2 of the paper:

* :mod:`repro.ancilla.cat` — 3- and 7-qubit cat-state preparation;
* :mod:`repro.ancilla.evaluation` — the encoded-zero strategies of Figure 4
  (basic, verify-only, correct-only, verify-and-correct), one table entry
  each, and their Monte Carlo grading on either engine (reproducing
  Figure 4's numbers);
* :mod:`repro.ancilla.t_ancilla` — the encoded pi/8 ancilla circuit of
  Figure 5b and its four-stage decomposition (Table 7);
* :mod:`repro.ancilla.rotations` — Fowler H/T sequence synthesis for
  pi/2^k rotations and the recursive exact construction of Figure 6.
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".cat": (
        "cat_prep_circuit", "evaluate_cat_prep", "evaluate_cat_prep_batched",
    ),
    ".evaluation": (
        "PrepStrategy", "StrategyReport", "evaluate_strategies",
        "evaluate_strategy",
    ),
    ".rotations": (
        "RotationSynthesizer", "SynthesizedRotation",
        "recursive_rotation_expected_latency",
    ),
    ".t_ancilla": (
        "PI8_STAGE_NAMES", "evaluate_pi8_ancilla",
        "evaluate_pi8_ancilla_batched", "pi8_ancilla_circuit",
        "pi8_consumption_circuit",
    ),
})
