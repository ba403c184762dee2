"""Quantum circuit intermediate representation.

This package provides the gate-level IR used throughout the library: a
:class:`~repro.circuits.gate.Gate` record, a :class:`~repro.circuits.circuit.Circuit`
container, and dataflow analyses (dependency DAG, ASAP schedule, critical
path) in :mod:`repro.circuits.dag`.

Circuits are used at two levels:

* *physical* circuits over physical qubits (ancilla preparation, encoding),
  whose latencies come from :class:`repro.tech.TechnologyParams`;
* *logical* circuits over encoded qubits (the benchmark kernels), whose
  per-gate costs come from the fault-tolerant constructions in
  :mod:`repro.codes` and :mod:`repro.ancilla`.
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".circuit": ("Circuit", "CircuitError"),
    ".compiled": ("CompiledCircuit", "compile_circuit"),
    ".dag": ("CircuitDag", "ScheduleEntry", "asap_schedule", "critical_path"),
    ".gate": (
        "CLIFFORD_GATES", "GATE_ARITY", "NON_TRANSVERSAL_GATES",
        "PI8_CONSUMING_GATES", "TRANSVERSAL_GATES", "TWO_QUBIT_GATES", "Gate",
        "GateKind", "GateType",
    ),
    ".latency": (
        "LatencyModel", "LogicalLatencyModel", "PhysicalLatencyModel",
    ),
})
