"""The latency model mapping encoded gates to durations in microseconds.

* :class:`LogicalLatencyModel` prices *encoded* gates: a transversal gate
  costs one physical gate of the same kind (all seven physical gates fire in
  parallel), while non-transversal gates cost the data-side interaction
  latency of their ancilla-consumption circuit. QEC interaction latency is
  priced separately so kernel analysis (Table 2) can split the three
  components.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuits.gate import Gate, GateKind
from repro.tech import TechnologyParams


@dataclass(frozen=True)
class LogicalLatencyModel:
    """Prices encoded gates on a CSS code with transversal implementations.

    A transversal encoded gate takes the latency of one physical gate of the
    same kind, since the per-physical-qubit gates run in parallel. Encoded
    measurement takes one physical measurement. Non-transversal one-qubit
    gates (the pi/8 gate) interact transversally with a prepared ancilla:
    the data-side latency is CX + measure + conditional correction
    (Figure 5a), assuming the ancilla is ready.

    Attributes:
        tech: Physical technology parameters.
    """

    tech: TechnologyParams

    def gate_latency(self, gate: Gate) -> float:
        kind = gate.kind
        if kind is GateKind.PREP:
            # Encoded preparation is done offline in factories; from the
            # data's perspective a fresh encoded qubit is swapped in.
            return self.tech.t_prep
        if kind is GateKind.MEASURE:
            return self.tech.t_meas
        if gate.is_non_transversal:
            return self.non_transversal_interaction_latency()
        if kind is GateKind.TWO_QUBIT:
            return self.tech.t_2q
        return self.tech.t_1q

    def non_transversal_interaction_latency(self) -> float:
        """Data-side latency of consuming a pi/8 ancilla (Figure 5a).

        Transversal CX between ancilla and data, transversal measurement of
        the ancilla block, then a classically conditioned transversal
        correction on the data.
        """
        return self.tech.t_2q + self.tech.t_meas + self.tech.t_1q

    def qec_interaction_latency(self) -> float:
        """Data-side latency of one QEC step (Figure 2), ancillae ready.

        Bit correction then phase correction; each is a transversal CX with
        a prepared encoded-zero ancilla, a transversal measurement of the
        ancilla, and a conditional transversal correction on the data
        (Section 2.3: the corrections are fully transversal).
        """
        per_correction = self.tech.t_2q + self.tech.t_meas + self.tech.t_1q
        return 2 * per_correction
