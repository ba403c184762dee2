"""Quantum circuit intermediate representation.

This package provides the gate-level IR used throughout the library: a
:class:`~repro.circuits.gate.Gate` record, a :class:`~repro.circuits.circuit.Circuit`
container, and its compiled array form (:mod:`repro.circuits.compiled`),
which every engine walks: the serial engine and kernel analysis in
program order, the batched kernel by dependency level.

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
    ".gate": (
        "CLIFFORD_GATES", "GATE_ARITY", "NON_TRANSVERSAL_GATES",
        "PI8_CONSUMING_GATES", "TRANSVERSAL_GATES", "Gate",
        "GateKind", "GateType",
    ),
    ".latency": ("LogicalLatencyModel",),
})
