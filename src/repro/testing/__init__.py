"""Test-support utilities shipped with the package.

:mod:`repro.testing.faults` is the fault-injection harness behind the
``tests/faults/`` suite: it lets tests kill serving replicas, poison
individual design points, hang evaluations, and corrupt result-store
I/O — through hooks that are inert (a handful of ``is None`` checks)
unless a fault plan is armed.

:mod:`repro.testing.reference` holds the per-gate reference dataflow
loop (:func:`~repro.testing.reference.run_reference`), the oracle the
production engines are checked against. The other modules are oracles
too: :mod:`~repro.testing.dag` (gate-by-gate dependency and critical
path analysis), :mod:`~repro.testing.classical` (bit-vector evaluation
of the reversible adders) and :mod:`~repro.testing.protocols` (the
stand-alone cat and pi/8 Monte Carlo drivers). Nothing is imported here
until first use, so loading the fault hooks never pulls in the simulator.
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".faults": ("FaultPlan", "FaultRule", "active_plan", "arm", "check"),
})
