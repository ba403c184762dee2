"""Quantum error correcting codes.

The paper works exclusively with the [[7,1,3]] Steane CSS code
(Section 2.1). This package provides a generic CSS-code record plus the
Steane instance with its stabilizers, logical operators, encoding circuit
(Figure 3b), syndrome decoding, and transversal-gate rules — and, beyond
the paper, :class:`ConcatenatedCode`: recursive self-concatenation of the
base code, making concatenation level a first-class design dimension
(``n**L`` physical qubits, distance ``d**L``, a level-L encoder built
from level-(L-1) blocks, and recursive hard-decision decoding).
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".css": ("CssCode",),
    ".concatenated": (
        "ConcatenatedCode", "css_encoder_layout", "css_zero_prep_circuit",
        "propagate_zero_stabilizers", "zero_state_group",
    ),
    ".steane": ("STEANE", "steane_code", "steane_zero_prep_circuit"),
    ".transversal": ("TransversalRule", "transversal_rule"),
})
