"""Functional units of the pipelined factories (Tables 5 and 7).

Each unit processes batches of physical qubits through an internally
pipelined schedule. Bandwidth follows the paper's convention:

    BW (qubits/ms) = batch_qubits * internal_stages * 1000 / latency_us

i.e. a unit with S internal pipeline stages accepts a new batch every
``latency / S`` microseconds. Output bandwidth differs from input when the
unit consumes qubits (verification measures and recycles the cat; B/P
correction consumes two of three encoded ancillae) or discards failures.

Unit geometry is that of the paper's [[7,1,3]] instantiation: batch
sizes, areas and heights are functions of the code's block size ``n = 7``
and its X-check count ``w = 3`` (the verification cat width), and the
encoder CX stage takes one pipeline stage per parallel CX round of the
Figure 3b encoder. Concatenation level is studied by re-characterizing the
technology (:meth:`repro.tech.TechnologyParams.at_level`), not by
reshaping the units.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.layout.schedules import (
    PI8_FACTORY_SCHEDULES,
    ZERO_FACTORY_SCHEDULES,
)
from repro.tech import ION_TRAP, TechnologyParams

#: Fraction of encoded ancillae passing verification (Section 2.3: the
#: Monte Carlo verification failure rate of the Figure 4a subunit is 0.2%).
VERIFICATION_SURVIVAL = 0.998

#: The paper's [[7,1,3]] block: physical qubits per encoded qubit, the
#: verification cat width (one qubit per X check), and the parallel CX
#: rounds of the Figure 3b encoder.
ENCODED_QUBITS = 7
CAT_QUBITS = 3
ENCODER_CX_DEPTH = 3


@dataclass(frozen=True)
class FunctionalUnit:
    """One pipelined functional unit.

    Attributes:
        name: Unit name as in Table 5 / Table 7.
        schedule: Operation counts giving the unit's symbolic latency.
        internal_stages: Pipeline stages inside the unit ("Stages" column).
        qubits_in: Physical qubits consumed per batch.
        qubits_out: Physical qubits emitted per batch (before survival).
        survival: Fraction of batches surviving (verification discards).
        area: Unit area in macroblocks.
        height: Unit height in macroblock rows (sets crossbar sizes).
    """

    name: str
    schedule: OpSchedule
    internal_stages: int
    qubits_in: int
    qubits_out: int
    area: int
    height: int
    survival: float = 1.0

    def __post_init__(self) -> None:
        if self.internal_stages < 1:
            raise ValueError(f"{self.name}: internal_stages must be >= 1")
        if self.qubits_in < 1 or self.qubits_out < 1:
            raise ValueError(f"{self.name}: batch sizes must be >= 1")
        if not 0.0 < self.survival <= 1.0:
            raise ValueError(f"{self.name}: survival must be in (0, 1]")
        if self.area < 1 or self.height < 1:
            raise ValueError(f"{self.name}: area and height must be >= 1")

    def latency(self, tech: TechnologyParams = ION_TRAP) -> float:
        """Unit latency in microseconds (Table 5 column 3)."""
        return self.schedule.latency(tech)

    def initiation_interval(self, tech: TechnologyParams = ION_TRAP) -> float:
        """Microseconds between successive batch starts."""
        return self.latency(tech) / self.internal_stages

    def bandwidth_in(self, tech: TechnologyParams = ION_TRAP) -> float:
        """Input bandwidth in physical qubits per millisecond."""
        return self.qubits_in * 1000.0 / self.initiation_interval(tech)

    def bandwidth_out(self, tech: TechnologyParams = ION_TRAP) -> float:
        """Output bandwidth in physical qubits per millisecond."""
        return (
            self.qubits_out * self.survival * 1000.0 / self.initiation_interval(tech)
        )


def zero_factory_units() -> Dict[str, FunctionalUnit]:
    """The five Table 5 functional units.

    Batch sizes: the CX stage carries ``n`` physical qubits per in-flight
    batch (one nascent encoded qubit); cat prep carries the ``w``-qubit
    verification cat; verification holds ``n + w`` (data plus cat) and
    emits the surviving ``n``; B/P correction holds three encoded
    ancillae (``3n``) and emits one: the paper's 7/3/10/21 with the
    Table 5 areas.
    """
    n, w, rounds = ENCODED_QUBITS, CAT_QUBITS, ENCODER_CX_DEPTH
    s = ZERO_FACTORY_SCHEDULES
    return {
        "zero_prep": FunctionalUnit(
            "zero_prep", s["zero_prep"], internal_stages=1,
            qubits_in=1, qubits_out=1, area=1, height=1,
        ),
        "cx_stage": FunctionalUnit(
            "cx_stage", s["cx_stage"], internal_stages=rounds,
            qubits_in=n, qubits_out=n, area=4 * n, height=4,
        ),
        "cat_prep": FunctionalUnit(
            "cat_prep", s["cat_prep"], internal_stages=2,
            qubits_in=w, qubits_out=w, area=2 * w, height=2,
        ),
        "verification": FunctionalUnit(
            "verification", s["verification"], internal_stages=1,
            qubits_in=n + w, qubits_out=n, area=n + w, height=n + w,
            survival=VERIFICATION_SURVIVAL,
        ),
        "bp_correction": FunctionalUnit(
            "bp_correction", s["bp_correction"], internal_stages=1,
            qubits_in=3 * n, qubits_out=n, area=3 * n, height=3 * n,
        ),
    }


def pi8_units() -> Dict[str, FunctionalUnit]:
    """The four Table 7 stages of the encoded pi/8 factory.

    Bandwidths are in physical qubits: the transversal-interact stage
    handles ``2n`` qubits per batch (``n``-qubit cat plus encoded zero);
    decode emits ``n + 1`` (the encoded block plus the decoded cat head
    qubit); the final stage emits the ``n``-qubit pi/8 ancilla: Table 7's
    7/14/8 batches and areas.
    """
    n = ENCODED_QUBITS
    s = PI8_FACTORY_SCHEDULES
    return {
        "cat_state_prepare": FunctionalUnit(
            "cat_state_prepare", s["cat_state_prepare"], internal_stages=1,
            qubits_in=n, qubits_out=n, area=2 * n - 2, height=n - 1,
        ),
        "transversal_interact": FunctionalUnit(
            "transversal_interact", s["transversal_interact"], internal_stages=1,
            qubits_in=2 * n, qubits_out=2 * n, area=n, height=n,
        ),
        "decode_store": FunctionalUnit(
            "decode_store", s["decode_store"], internal_stages=1,
            qubits_in=2 * n, qubits_out=n + 1, area=2 * n + 5, height=2 * n - 1,
        ),
        "h_measure_correct": FunctionalUnit(
            "h_measure_correct", s["h_measure_correct"], internal_stages=1,
            qubits_in=n + 1, qubits_out=n, area=n + 1, height=n + 1,
        ),
    }
