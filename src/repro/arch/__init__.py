"""Microarchitecture models and event-based dataflow simulation (Section 5).

Compares three ways of organizing a quantum chip (Figure 14):

* **QLA** — a dedicated ancilla generator per data qubit; data returns
  home for error correction after every gate, so inter-qubit operations
  teleport (Metodi et al., the paper's [22]);
* **CQLA** — QLA plus a compute cache holding the working set; gates on
  uncached qubits pay miss/writeback teleports through limited cache
  ports (Thaker et al., the paper's [15]);
* **Fully-Multiplexed** — shared ancilla factories feeding any data qubit
  on demand, with ballistic movement inside dense data regions (the
  paper's proposal, realized as the Qalypso tile of Figure 16).

Modules:

* :mod:`repro.arch.supply` — ancilla production models (infinite, steady
  rate, pooled, per-qubit dedicated) and the declarative ready-spec
  protocol that lets every model lower into the array engines;
* :mod:`repro.arch.simulator` — the event-based dataflow simulator
  (Section 5.2's methodology);
* :mod:`repro.arch.batched` — the point-batched engine: one numpy pass
  simulates a whole sweep of design points, bit-identical per point;
* :mod:`repro.arch.architectures` — the three architecture configurations;
* :mod:`repro.arch.sweep` — the Figure 8 throughput sweep and Figure 15
  area sweep;
* :mod:`repro.arch.provisioning` — Table 9 area breakdowns;
* :mod:`repro.arch.qalypso` — Qalypso tile accounting (Section 5.3).
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".architectures": (
        "ArchitectureKind", "CqlaConfig", "MultiplexedConfig", "QlaConfig",
    ),
    ".batched": ("simulate_batch",),
    ".provisioning": ("AreaBreakdown", "area_breakdown"),
    ".simulator": ("DataflowSimulator", "SimulationResult"),
    ".supply": (
        "DedicatedKindSpec", "DedicatedSupply", "InfiniteSupply",
        "PooledSupply", "ReadySpec", "SteadyKindSpec", "SteadyRateSupply",
    ),
    ".sweep": ("area_sweep", "throughput_sweep"),
})
