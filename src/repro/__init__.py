"""repro — a reproduction of "Running a Quantum Circuit at the Speed of Data".

Isailovic, Whitney, Patel and Kubiatowicz, ISCA 2008 (arXiv:0804.4725).

The library models fault-tolerant quantum computation on trapped-ion
hardware at the microarchitecture level: encoded-ancilla preparation for
the [[7,1,3]] Steane code, Monte Carlo error grading, ion-trap macroblock
layouts, pipelined ancilla factories, benchmark kernels (ripple-carry and
carry-lookahead adders, QFT), and event-based simulation of the QLA, CQLA
and fully-multiplexed (Qalypso) microarchitectures.

Quickstart::

    import repro

    factory = repro.PipelinedZeroFactory()
    print(factory.throughput_per_ms, factory.area)      # 10.5 anc/ms, 298

    kernel = repro.analyze_kernel("qcla", width=32)
    print(kernel.zero_bandwidth_per_ms)                  # ~240-300 anc/ms

    print(repro.run_experiment("table9"))                # chip area split

See README.md ("The engine matrix") for the system inventory;
``tests/integration/test_paper_numbers.py`` and the ``benchmarks/``
suite check measured against paper numbers for the reproduced tables
and figures.
"""

from repro.ancilla import (
    PrepStrategy,
    RotationSynthesizer,
    evaluate_strategies,
    evaluate_strategy,
    pi8_ancilla_circuit,
)
from repro.arch import (
    ArchitectureKind,
    DataflowSimulator,
    area_breakdown,
    area_sweep,
    throughput_sweep,
)
from repro.circuits import Circuit, GateType, critical_path
from repro.codes import STEANE, CssCode, steane_zero_prep_circuit
from repro.error import MonteCarloSimulator, PauliFrame
from repro.factory import Pi8Factory, PipelinedZeroFactory, SimpleZeroFactory
from repro.kernels import (
    analyze_kernel,
    decompose_to_encoded_gates,
    qcla_circuit,
    qft_circuit,
    qrca_circuit,
    standard_kernels,
)
from repro.reporting import run_experiment
from repro.tech import ION_TRAP, ErrorRates, TechnologyParams

__version__ = "1.0.0"

__all__ = [
    "ArchitectureKind",
    "Circuit",
    "CssCode",
    "DataflowSimulator",
    "ErrorRates",
    "GateType",
    "ION_TRAP",
    "MonteCarloSimulator",
    "PauliFrame",
    "Pi8Factory",
    "PipelinedZeroFactory",
    "PrepStrategy",
    "RotationSynthesizer",
    "STEANE",
    "SimpleZeroFactory",
    "TechnologyParams",
    "analyze_kernel",
    "area_breakdown",
    "area_sweep",
    "critical_path",
    "decompose_to_encoded_gates",
    "evaluate_strategies",
    "evaluate_strategy",
    "pi8_ancilla_circuit",
    "qcla_circuit",
    "qft_circuit",
    "qrca_circuit",
    "run_experiment",
    "standard_kernels",
    "steane_zero_prep_circuit",
    "throughput_sweep",
]
