"""Pauli error modeling and Monte Carlo circuit evaluation (Section 2.2).

The paper evaluates ancilla-preparation circuits by Monte Carlo simulation:
errors are injected at every gate and movement operation (rates 1e-4 and
1e-6) and propagated through the circuit, including the fact that two-qubit
gates spread bit and phase flips between qubits. This package implements
that machinery as a Pauli-frame simulator:

* :mod:`repro.error.pauli` — the frame (X/Z bit vectors per qubit);
* :mod:`repro.error.propagation` — Clifford conjugation rules;
* :mod:`repro.error.montecarlo` — stochastic injection and trial running,
  one trial at a time;
* :mod:`repro.error.batched` — the same model over whole batches of
  trials, for protocols compiled to array form.
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".batched": (
        "BatchFrames", "BatchedSimulator", "CompiledProtocol",
        "ProtocolLoweringError", "compile_protocol",
    ),
    ".montecarlo": ("MonteCarloResult", "MonteCarloSimulator", "TrialOutcome"),
    ".pauli": ("PauliFrame",),
    ".propagation": ("propagate_gate",),
})
