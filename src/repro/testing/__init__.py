"""Test-support utilities shipped with the package.

:mod:`repro.testing.faults` is the fault-injection harness behind the
``tests/faults/`` suite: it lets tests kill serving replicas, poison
individual design points, hang evaluations, and corrupt result-store
I/O — through hooks that are inert (a handful of ``is None`` checks)
unless a fault plan is armed.

:mod:`repro.testing.reference` holds the per-gate reference dataflow
loop (:func:`~repro.testing.reference.run_reference`), the oracle the
production engines are checked against. It is not imported here, so
loading the fault hooks never pulls in the simulator.
"""

from repro.testing.faults import FaultPlan, FaultRule, active_plan, arm, check

__all__ = ["FaultPlan", "FaultRule", "active_plan", "arm", "check"]
