"""Kernel characterization: Tables 2-3 and Figure 7.

Execution model (Section 3.2): a QEC step follows every useful encoded
gate, consuming two corrected encoded-zero ancillae (bit and phase
correction, Figure 2); every pi/8-type gate additionally consumes one
encoded pi/8 ancilla. "Speed of data" is the ASAP schedule where every
gate starts as soon as its data dependencies allow, with ancillae assumed
ready — its makespan is the sum of the data-op and QEC-interaction
components (Table 2 columns 2+3).

Table 2's three components per critical-path gate:

* data op — the gate's own latency (transversal physical latency, or the
  ancilla-interaction latency for pi/8 gates);
* data/QEC interaction — 2 x (transversal CX + measure + conditional
  correct), the part of the QEC step touching data;
* ancilla prep — the data-independent preparation work, priced at the
  serial (non-overlapped) preparation latency: two Figure 4c encoded zeros
  per QEC step plus the pi/8 pipeline for non-transversal gates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.circuits import Circuit
from repro.circuits.gate import PI8_CONSUMING_GATES
from repro.circuits.latency import LogicalLatencyModel
from repro.factory.simple import SimpleZeroFactory
from repro.factory.t_factory import Pi8Factory
from repro.kernels.decompose import decompose_to_encoded_gates
from repro.kernels.qcla import qcla_circuit, qcla_registers
from repro.kernels.qft import qft_circuit
from repro.kernels.qrca import qrca_circuit, qrca_registers
from repro.tech import ION_TRAP, TechnologyParams

#: Corrected encoded-zero ancillae consumed per QEC step (bit + phase).
ZEROS_PER_QEC = 2

_PI8_TYPES = PI8_CONSUMING_GATES


@dataclass
class KernelAnalysis:
    """Characterization of one benchmark kernel.

    Attributes:
        name: Kernel name (e.g. "32-Bit QRCA").
        circuit: The decomposed (encoded-gate-set) circuit.
        tech: Technology parameters.
        data_qubits: Number of encoded data qubits including data ancillae
            (drives Table 9's data area).
    """

    name: str
    circuit: Circuit
    tech: TechnologyParams
    data_qubits: int

    def __post_init__(self) -> None:
        self._logical = LogicalLatencyModel(self.tech)
        # One full Figure 4c preparation per QEC step: the bit- and
        # phase-correction ancillae are produced as a pair by the same
        # factory pass (Figure 11 corrects the middle ancilla with both
        # neighbours in one schedule), so the pair costs one serial latency.
        self._zero_serial_us = SimpleZeroFactory(self.tech).latency_us
        # The pi/8 conversion pipeline runs downstream of zero production;
        # its input zero is prepared concurrently with the QEC zeros.
        self._pi8_serial_us = Pi8Factory(self.tech).serial_latency_us()
        # The QEC-aware ASAP schedule is computed lazily as flat start /
        # finish arrays over the memoized compiled-circuit form — no
        # per-gate ScheduleEntry or Gate objects on the hot path.
        self._asap_times: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._chain: Optional[List[int]] = None

    # ------------------------------------------------------------------
    # Compiled ASAP schedule (speed of data, flat arrays)

    def _times(self) -> Tuple[np.ndarray, np.ndarray]:
        """(start, finish) arrays of the QEC-aware ASAP schedule.

        Longest-path over the dependency DAG, computed level by level:
        every gate of a level has all predecessors in earlier levels, so
        one ``np.maximum.reduceat`` segment-max per level yields the
        start times of the whole level at once. Matches
        :func:`repro.testing.dag.asap_schedule` bit for bit (same max /
        add ordering), which the test suite asserts on all kernels.
        """
        if self._asap_times is not None:
            return self._asap_times
        from repro.circuits.compiled import dataflow_metadata

        compiled = self.compiled_circuit()
        n = compiled.num_gates
        dur = np.asarray(compiled.latency_us, dtype=np.float64)
        dur = dur + self._logical.qec_interaction_latency()
        starts = np.zeros(n, dtype=np.float64)
        finish = np.empty(n, dtype=np.float64)
        if n:
            df = dataflow_metadata(compiled)
            order, loff = df.level_order, df.level_offsets
            seg, flat = df.level_pred_seg, df.level_pred_flat
            first = order[loff[0]:loff[1]]
            finish[first] = dur[first]  # level 0 gates start at 0
            for lvl in range(1, df.num_levels):
                nodes = order[loff[lvl]:loff[lvl + 1]]
                s0, s1 = seg[loff[lvl]], seg[loff[lvl + 1]]
                pred_finish = finish[flat[s0:s1]]
                st = np.maximum.reduceat(
                    pred_finish, seg[loff[lvl]:loff[lvl + 1]] - s0
                )
                starts[nodes] = st
                finish[nodes] = st + dur[nodes]
        self._asap_times = (starts, finish)
        return self._asap_times

    # ------------------------------------------------------------------
    # Raw counts

    @property
    def total_gates(self) -> int:
        return len(self.circuit)

    @property
    def pi8_gate_count(self) -> int:
        """Gates consuming an encoded pi/8 ancilla.

        Read from the memoized compiled form, which flags the same
        :data:`~repro.circuits.gate.PI8_CONSUMING_GATES`, instead of
        walking every gate on each call.
        """
        return self.compiled_circuit().pi8_count

    @property
    def non_transversal_fraction(self) -> float:
        """Fraction of gates that are non-transversal (Section 3.3 quotes
        40.5% / 41.0% / 46.9% for the three benchmarks)."""
        if not self.circuit.gates:
            return 0.0
        return self.pi8_gate_count / self.total_gates

    # ------------------------------------------------------------------
    # Speed-of-data schedule and critical path

    @property
    def execution_time_us(self) -> float:
        """Speed-of-data execution time (Table 2 columns 2+3)."""
        _, finish = self._times()
        return float(finish.max()) if finish.size else 0.0

    def _critical_chain(self) -> List[int]:
        """Gate indices of one maximal chain through the ASAP schedule.

        Backwalk over the compiled predecessor CSR from the last-finishing
        gate, always following the predecessor that gates the start time
        (ties broken toward the lowest index, matching the seed's
        ``max``-over-sorted-predecessors walk). Memoized: every
        ``table2_row`` call used to rebuild a ``CircuitDag`` and re-walk
        ``ScheduleEntry`` objects; now the chain is computed once per
        analysis from flat arrays.
        """
        if self._chain is not None:
            return self._chain
        _, finish = self._times()
        if not finish.size:
            self._chain = []
            return self._chain
        from repro.circuits.compiled import dataflow_metadata

        df = dataflow_metadata(self.compiled_circuit())
        offsets, indices = df.pred_offsets, df.pred_indices
        current = int(np.argmax(finish))
        chain = [current]
        while offsets[current] != offsets[current + 1]:
            preds = indices[offsets[current]:offsets[current + 1]]
            current = int(preds[np.argmax(finish[preds])])
            chain.append(current)
        chain.reverse()
        self._chain = chain
        return chain

    def table2_row(self) -> Dict[str, float]:
        """The three Table 2 latency components and their fractions."""
        chain = self._critical_chain()
        compiled = self.compiled_circuit()
        latency, pi8_flag = compiled.latency_us, compiled.pi8_flag
        qec_interact_each = self._logical.qec_interaction_latency()
        data_op = sum(latency[i] for i in chain)
        qec_interact = qec_interact_each * len(chain)
        ancilla_prep = sum(
            self._zero_serial_us
            + (self._pi8_serial_us if pi8_flag[i] else 0.0)
            for i in chain
        )
        total = data_op + qec_interact + ancilla_prep
        return {
            "data_op_us": data_op,
            "qec_interact_us": qec_interact,
            "ancilla_prep_us": ancilla_prep,
            "data_op_frac": data_op / total if total else 0.0,
            "qec_interact_frac": qec_interact / total if total else 0.0,
            "ancilla_prep_frac": ancilla_prep / total if total else 0.0,
            "critical_path_gates": float(len(chain)),
        }

    # ------------------------------------------------------------------
    # Ancilla bandwidth (Table 3)

    @property
    def zero_ancilla_total(self) -> int:
        """Encoded zeros consumed across the whole run (2 per gate's QEC)."""
        return ZEROS_PER_QEC * self.total_gates

    @property
    def zero_bandwidth_per_ms(self) -> float:
        """Average encoded-zero bandwidth at the speed of data (Table 3)."""
        exec_ms = self.execution_time_us / 1000.0
        return self.zero_ancilla_total / exec_ms if exec_ms else 0.0

    @property
    def pi8_bandwidth_per_ms(self) -> float:
        """Average encoded-pi/8 bandwidth at the speed of data (Table 3)."""
        exec_ms = self.execution_time_us / 1000.0
        return self.pi8_gate_count / exec_ms if exec_ms else 0.0

    def table3_row(self) -> Dict[str, float]:
        return {
            "zero_bandwidth_per_ms": self.zero_bandwidth_per_ms,
            "pi8_bandwidth_per_ms": self.pi8_bandwidth_per_ms,
        }

    def compiled_circuit(self):
        """The kernel's compiled array form for the dataflow engine.

        Delegates to :func:`repro.circuits.compiled.compile_circuit`,
        which memoizes per (circuit, tech) — so every sweep, benchmark
        and comparison over this analysis shares one compilation.
        """
        from repro.circuits.compiled import compile_circuit

        return compile_circuit(self.circuit, self.tech)

    # ------------------------------------------------------------------
    # Demand profile (Figure 7)

    def ancilla_demand_profile(
        self, buckets: int = 100
    ) -> List[Tuple[float, float]]:
        """Encoded zeros that must be in flight over time (Figure 7).

        An ancilla consumed at a gate's start must exist from
        (start - preparation latency) until consumption; the profile counts,
        for each time bucket, the ancillae alive during it. Computed as a
        difference array over the flat start times: +demand at each
        gate's first bucket, -demand past its last, then a cumulative
        sum — the seed's O(gates x buckets) Python bucket loop collapses
        to three vectorized passes with bit-identical counts (integer-
        valued floats, exact under reordering).
        """
        if buckets < 1:
            raise ValueError(f"buckets must be >= 1, got {buckets}")
        horizon = self.execution_time_us
        if horizon <= 0:
            return []
        width = horizon / buckets
        prep = self._zero_serial_us
        starts, _ = self._times()
        births = np.maximum(0.0, starts - prep)
        first = np.minimum(buckets - 1, (births / width).astype(np.int64))
        last = np.minimum(buckets - 1, (starts / width).astype(np.int64))
        diff = np.zeros(buckets + 1, dtype=np.float64)
        np.add.at(diff, first, float(ZEROS_PER_QEC))
        np.add.at(diff, last + 1, -float(ZEROS_PER_QEC))
        counts = np.cumsum(diff)[:buckets]
        return [(idx * width, float(counts[idx])) for idx in range(buckets)]


def _qrca_analysis(width: int, tech: TechnologyParams) -> KernelAnalysis:
    regs = qrca_registers(width)
    circuit = decompose_to_encoded_gates(qrca_circuit(width))
    return KernelAnalysis(
        name=f"{width}-Bit QRCA",
        circuit=circuit,
        tech=tech,
        data_qubits=regs.num_qubits,
    )


def _qcla_analysis(width: int, tech: TechnologyParams) -> KernelAnalysis:
    regs = qcla_registers(width)
    circuit = decompose_to_encoded_gates(qcla_circuit(width))
    return KernelAnalysis(
        name=f"{width}-Bit QCLA",
        circuit=circuit,
        tech=tech,
        data_qubits=regs.num_qubits,
    )


def _qft_analysis(width: int, tech: TechnologyParams) -> KernelAnalysis:
    circuit = decompose_to_encoded_gates(qft_circuit(width))
    return KernelAnalysis(
        name=f"{width}-Bit QFT",
        circuit=circuit,
        tech=tech,
        data_qubits=width,
    )


_BUILDERS: Dict[str, Callable[[int, TechnologyParams], KernelAnalysis]] = {
    "qrca": _qrca_analysis,
    "qcla": _qcla_analysis,
    "qft": _qft_analysis,
}


@lru_cache(maxsize=32)
def _analyze_cached(
    kernel: str, width: int, tech: TechnologyParams
) -> KernelAnalysis:
    from repro.obs.trace import span as _span

    with _span("analyze.kernel", kernel=kernel, width=width, tech=tech.name):
        return _BUILDERS[kernel](width, tech)


def analyze_kernel(
    kernel: str,
    width: int = 32,
    tech: TechnologyParams = ION_TRAP,
    *,
    code_level: int = 1,
) -> KernelAnalysis:
    """Characterize one benchmark kernel.

    Memoized per ``(kernel, width, tech)``: kernel construction,
    decomposition and the ASAP schedule are deterministic and the
    analysis is immutable once built, so repeated callers (sweeps,
    benchmarks, reports) share one characterization instead of
    rebuilding it per sweep. Treat the returned object as read-only.

    Args:
        kernel: One of "qrca", "qcla", "qft".
        width: Bit width (32 reproduces the paper).
        tech: Technology parameters.
        code_level: Concatenation level of the error-correcting code.
            Level 1 (the default) is the paper's single Steane layer and
            changes nothing; level L re-characterizes the kernel under
            ``tech.at_level(L)`` — effective logical latencies with
            level-(L-1) blocks as the physical layer — so every
            downstream consumer (factories, sweeps, both dataflow
            engines) prices the leveled code transparently.
            ``analyze_kernel(k, w, tech, code_level=L)`` and
            ``analyze_kernel(k, w, tech.at_level(L))`` share one
            memoized characterization.
    """
    name = kernel.lower()
    if name not in _BUILDERS:
        raise ValueError(
            f"unknown kernel {kernel!r}; choose from {sorted(_BUILDERS)}"
        )
    if code_level != 1:
        tech = tech.at_level(code_level)
    return _analyze_cached(name, width, tech)


def standard_kernels(
    width: int = 32, tech: TechnologyParams = ION_TRAP
) -> List[KernelAnalysis]:
    """The paper's three benchmarks at the given width."""
    return [analyze_kernel(name, width, tech) for name in ("qrca", "qcla", "qft")]
