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

from repro.util.lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".ancilla": (
        "PrepStrategy", "RotationSynthesizer", "evaluate_strategies",
        "evaluate_strategy", "pi8_ancilla_circuit",
    ),
    ".arch": (
        "ArchitectureKind", "DataflowSimulator", "area_breakdown",
        "area_sweep", "throughput_sweep",
    ),
    ".circuits": ("Circuit", "GateType", "critical_path"),
    ".codes": ("STEANE", "CssCode", "steane_zero_prep_circuit"),
    ".error": ("MonteCarloSimulator", "PauliFrame"),
    ".factory": ("Pi8Factory", "PipelinedZeroFactory", "SimpleZeroFactory"),
    ".kernels": (
        "analyze_kernel", "decompose_to_encoded_gates", "qcla_circuit",
        "qft_circuit", "qrca_circuit", "standard_kernels",
    ),
    ".reporting": ("run_experiment",),
    ".tech": ("ION_TRAP", "ErrorRates", "TechnologyParams"),
})
