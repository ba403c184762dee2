"""Quantum error correcting codes.

The paper works exclusively with the [[7,1,3]] Steane CSS code
(Section 2.1). This package provides a generic CSS-code record plus the
Steane instance with its stabilizers, logical operators, encoding circuit
(Figure 3b) and syndrome decoding. Concatenation
level is studied without building a concatenated code: the technology
is re-characterized per level (:meth:`repro.tech.TechnologyParams.at_level`).
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".css": ("CssCode",),
    ".steane": ("STEANE", "steane_code", "steane_zero_prep_circuit"),
})
