"""Ancilla factories (Section 4): simple and pipelined designs.

An ancilla factory consumes stateless physical qubits and produces a steady
stream of encoded ancillae. This package models:

* :mod:`repro.factory.units` — functional units with symbolic latency,
  bandwidth, pipeline-stage count and area (Tables 5 and 7);
* :mod:`repro.factory.simple` — the non-pipelined Figure 11 factory
  (323us latency, 3.1 ancillae/ms, 90 macroblocks);
* :mod:`repro.factory.pipelined` — the bandwidth-matched pipelined
  encoded-zero factory (Figure 12, Tables 5-6: 298 macroblocks,
  10.5 ancillae/ms);
* :mod:`repro.factory.t_factory` — the encoded pi/8 factory (Tables 7-8:
  403 macroblocks, 18.3 ancillae/ms).
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".pipelined": ("PipelinedZeroFactory", "StageProvision"),
    ".simple": ("SimpleZeroFactory",),
    ".t_factory": ("Pi8Factory",),
    ".units": ("FunctionalUnit", "pi8_units", "zero_factory_units"),
})
