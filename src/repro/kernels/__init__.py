"""Benchmark kernels (Section 3.1) and their characterization.

The paper's three benchmarks, all parameterized by bit width here:

* :mod:`repro.kernels.qrca` — the Quantum Ripple-Carry Adder
  (Vedral-Barenco-Ekert structure: two n-bit inputs plus n+1 ancillae);
* :mod:`repro.kernels.qcla` — the Draper-Kutin-Rains-Svore
  logarithmic-depth Quantum Carry-Lookahead Adder (out-of-place);
* :mod:`repro.kernels.qft` — the Quantum Fourier Transform with
  controlled rotations synthesized per Section 2.5.

Supporting machinery:

* :mod:`repro.kernels.decompose` — lowering to the [[7,1,3]] encoded gate
  set (transversal gates plus T);
* :mod:`repro.kernels.analysis` — critical-path and ancilla-bandwidth
  characterization (Tables 2-3, Figure 7).
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".analysis": ("KernelAnalysis", "analyze_kernel", "standard_kernels"),
    ".decompose": ("decompose_to_encoded_gates",),
    ".qcla": ("qcla_circuit",),
    ".qft": ("qft_circuit",),
    ".qrca": ("qrca_circuit",),
})
