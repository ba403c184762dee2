"""The experiment registry: one entry per reproduced table/figure.

Each experiment is a named callable returning a formatted report string
(tables) or series data rendered as ASCII (figures). The benchmark suite
under ``benchmarks/`` exercises the same underlying computations with
assertions on the paper's shape targets; this registry is the
human-facing entry point:

    from repro.reporting import run_experiment
    print(run_experiment("table3"))
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable, Dict

from repro.reporting.figures import ascii_plot
from repro.reporting.tables import format_table
from repro.tech import ION_TRAP


@dataclass(frozen=True)
class Experiment:
    """A registered paper artifact."""

    key: str
    paper_ref: str
    description: str
    runner: Callable[[], str]


EXPERIMENTS: Dict[str, Experiment] = {}


def _register(key: str, paper_ref: str, description: str):
    def wrap(fn: Callable[[], str]) -> Callable[[], str]:
        EXPERIMENTS[key] = Experiment(key, paper_ref, description, fn)
        return fn

    return wrap


def run_experiment(key: str, **overrides) -> str:
    """Run one registered experiment by key (e.g. "table3", "fig15").

    ``overrides`` (e.g. ``trials=1000``) are forwarded to runners whose
    signature accepts them; others ignore them, so one call threads
    through heterogeneous experiments.
    ``None`` values mean "use the runner's default" and are dropped.
    """
    try:
        experiment = EXPERIMENTS[key]
    except KeyError:
        raise ValueError(
            f"unknown experiment {key!r}; available: {sorted(EXPERIMENTS)}"
        ) from None
    parameters = inspect.signature(experiment.runner).parameters
    accepted = {
        name: value
        for name, value in overrides.items()
        if name in parameters and value is not None
    }
    return experiment.runner(**accepted)


# ----------------------------------------------------------------------
# Input tables


@_register("table1", "Table 1", "Physical operation latencies (ion trap)")
def _table1() -> str:
    t = ION_TRAP
    rows = [
        ("One-Qubit Gate", "t1q", t.t_1q),
        ("Two-Qubit Gate", "t2q", t.t_2q),
        ("Measurement", "tmeas", t.t_meas),
        ("Zero Prepare", "tprep", t.t_prep),
    ]
    return format_table(
        ["Physical Operation", "Symbol", "Latency (us)"], rows,
        title="Table 1: ion trap operation latencies",
    )


@_register("table4", "Table 4", "Movement operation latencies (ion trap)")
def _table4() -> str:
    t = ION_TRAP
    rows = [("Straight Move", "tmove", t.t_move), ("Turn", "tturn", t.t_turn)]
    return format_table(
        ["Physical Operation", "Symbol", "Latency (us)"], rows,
        title="Table 4: ion trap movement latencies",
    )


# ----------------------------------------------------------------------
# Figure 4: ancilla preparation error rates


@_register("fig4", "Figure 4", "Zero-prep strategy error rates (Monte Carlo)")
def _fig4(trials: int = 40000) -> str:
    from repro.ancilla.evaluation import evaluate_strategies

    reports = evaluate_strategies(trials=trials)
    rows = [
        (
            r.strategy.value,
            f"{r.error_rate:.2e}",
            f"{r.discard_rate:.2%}",
            f"{r.paper_error_rate:.1e}",
        )
        for r in reports.values()
    ]
    return format_table(
        ["Strategy", "Error Rate", "Discard Rate", "Paper"], rows,
        title=f"Figure 4: encoded-zero preparation strategies ({trials} trials)",
    )


# ----------------------------------------------------------------------
# Kernel characterization (Tables 2-3, Figure 7)


def _kernels():
    from repro.kernels import standard_kernels

    return standard_kernels(32)


@_register("table2", "Table 2", "Latency split: data op / QEC interact / prep")
def _table2() -> str:
    rows = []
    for ka in _kernels():
        r = ka.table2_row()
        rows.append(
            (
                ka.name,
                f"{r['data_op_us']:.0f} ({r['data_op_frac']:.1%})",
                f"{r['qec_interact_us']:.0f} ({r['qec_interact_frac']:.1%})",
                f"{r['ancilla_prep_us']:.0f} ({r['ancilla_prep_frac']:.1%})",
            )
        )
    return format_table(
        ["Circuit", "Data Op (us)", "Data QEC Interact (us)", "Ancilla Prep (us)"],
        rows,
        title="Table 2: critical-path latency components (no overlap)",
    )


@_register("table3", "Table 3", "Average encoded ancilla bandwidths")
def _table3() -> str:
    rows = []
    for ka in _kernels():
        r = ka.table3_row()
        rows.append(
            (ka.name, r["zero_bandwidth_per_ms"], r["pi8_bandwidth_per_ms"])
        )
    return format_table(
        ["Circuit", "Zero Ancilla BW (/ms)", "pi/8 Ancilla BW (/ms)"], rows,
        title="Table 3: bandwidth needed to run at the speed of data",
    )


@_register("fig7", "Figure 7", "Encoded-zero ancillae in flight vs time")
def _fig7() -> str:
    curves = {}
    for ka in _kernels():
        profile = ka.ancilla_demand_profile(buckets=60)
        # Normalize time so the three kernels share an x-axis.
        horizon = profile[-1][0] or 1.0
        curves[ka.name] = [(t / horizon, c) for t, c in profile]
    return ascii_plot(
        curves, title="Figure 7: ancillae in flight (x = normalized time)"
    )


# ----------------------------------------------------------------------
# Factory designs (Tables 5-8, Figure 11, Section 5.3)


@_register("table5", "Table 5", "Zero-factory functional unit characteristics")
def _table5() -> str:
    from repro.factory.units import zero_factory_units

    rows = []
    for unit in zero_factory_units().values():
        rows.append(
            (
                unit.name,
                unit.schedule.symbolic(),
                unit.latency(),
                unit.internal_stages,
                unit.bandwidth_in(),
                unit.bandwidth_out(),
                unit.area,
            )
        )
    return format_table(
        ["Unit", "Symbolic Latency", "Latency (us)", "Stages",
         "BW In (q/ms)", "BW Out (q/ms)", "Area"],
        rows,
        title="Table 5: pipelined zero-factory functional units",
    )


@_register("table6", "Table 6", "Zero-factory unit counts and area")
def _table6() -> str:
    from repro.factory import PipelinedZeroFactory

    factory = PipelinedZeroFactory()
    rows = [
        (name, stage.count, stage.total_height, stage.total_area)
        for name, stage in factory.stages.items()
    ]
    rows.append(("crossbars", "-", "-", factory.crossbar_area))
    rows.append(
        (f"TOTAL ({factory.throughput_per_ms:.1f} anc/ms)", "-", "-", factory.area)
    )
    return format_table(
        ["Functional Unit", "Count", "Total Height", "Total Area"], rows,
        title="Table 6: encoded zero ancilla factory",
    )


@_register("table7", "Table 7", "pi/8 factory stage characteristics")
def _table7() -> str:
    from repro.factory.units import pi8_units

    rows = []
    for unit in pi8_units().values():
        rows.append(
            (
                unit.name,
                unit.schedule.symbolic(),
                unit.latency(),
                unit.bandwidth_in(),
                unit.bandwidth_out(),
                unit.area,
            )
        )
    return format_table(
        ["Stage", "Symbolic Latency", "Latency (us)",
         "In BW (q/ms)", "Out BW (q/ms)", "Area"],
        rows,
        title="Table 7: encoded pi/8 ancilla factory stages",
    )


@_register("table8", "Table 8", "pi/8 factory unit counts and area")
def _table8() -> str:
    from repro.factory import Pi8Factory

    factory = Pi8Factory()
    rows = [
        (name, stage.count, stage.total_height, stage.total_area)
        for name, stage in factory.stages.items()
    ]
    rows.append(("crossbars", "-", "-", factory.crossbar_area))
    rows.append(
        (f"TOTAL ({factory.throughput_per_ms:.1f} anc/ms)", "-", "-", factory.area)
    )
    return format_table(
        ["Stage", "Count", "Total Height", "Total Area"], rows,
        title="Table 8: encoded pi/8 ancilla factory",
    )


@_register("fig11", "Figure 11 / Section 4.3", "Simple ancilla factory")
def _fig11() -> str:
    from repro.factory import SimpleZeroFactory

    factory = SimpleZeroFactory()
    rows = [
        ("latency (us)", factory.latency_us),
        ("throughput (anc/ms)", factory.throughput_per_ms),
        ("area (macroblocks)", factory.area),
        ("bandwidth per area", factory.bandwidth_per_area),
        ("schedule", factory.schedule.symbolic()),
    ]
    return format_table(
        ["Characteristic", "Value"], rows,
        title="Figure 11: simple (non-pipelined) ancilla factory",
    )


# ----------------------------------------------------------------------
# Architecture results (Table 9, Figures 8 and 15, Section 5.3)


@_register("table9", "Table 9", "Chip area breakdown per kernel")
def _table9() -> str:
    from repro.arch.provisioning import area_breakdown

    rows = []
    for ka in _kernels():
        b = area_breakdown(ka)
        rows.append(
            (
                ka.name,
                b.zero_bandwidth_per_ms,
                f"{b.data_area:.0f} ({b.data_fraction:.1%})",
                f"{b.qec_factory_area:.0f} ({b.qec_factory_fraction:.1%})",
                f"{b.pi8_factory_area:.0f} ({b.pi8_factory_fraction:.1%})",
            )
        )
    return format_table(
        ["Circuit", "Zero BW (/ms)", "Data Area", "QEC Factories", "pi/8 Factories"],
        rows,
        title="Table 9: area to generate ancillae at Table 3 bandwidths",
    )


@_register("fig8", "Figure 8", "Execution time vs steady ancilla throughput")
def _fig8() -> str:
    from repro.arch.sweep import throughput_sweep

    curves = {}
    for ka in _kernels():
        points = throughput_sweep(ka)
        curves[ka.name] = [
            (p.x / ka.zero_bandwidth_per_ms, p.makespan_us / points[-1].makespan_us)
            for p in points
        ]
    return ascii_plot(
        curves,
        logx=True,
        logy=True,
        title=(
            "Figure 8: exec time vs zero-ancilla throughput "
            "(normalized to each kernel's average BW and floor)"
        ),
    )


@_register("fig15", "Figure 15", "Execution time vs factory area per arch")
def _fig15() -> str:
    from repro.arch import ArchitectureKind
    from repro.arch.sweep import area_sweep
    from repro.kernels import analyze_kernel

    ka = analyze_kernel("qcla", 32)
    curves_raw = area_sweep(ka)
    curves = {
        kind.value: [(p.x, p.makespan_us / 1000.0) for p in pts]
        for kind, pts in curves_raw.items()
    }
    return ascii_plot(
        curves,
        logx=True,
        logy=True,
        title="Figure 15 (QCLA): exec time (ms) vs ancilla factory area",
    )


@_register("fig16", "Figure 16 / Section 5.3", "Qalypso tile and CQLA comparison")
def _fig16() -> str:
    from repro.arch.qalypso import compare_with_cqla, tile_for_kernel
    from repro.kernels import analyze_kernel

    rows = []
    for name in ("qrca", "qcla", "qft"):
        ka = analyze_kernel(name, 32)
        tile = tile_for_kernel(ka)
        comparison = compare_with_cqla(ka)
        rows.append(
            (
                ka.name,
                tile.zero_factories,
                tile.pi8_factories,
                tile.total_area,
                f"{comparison.qalypso.makespan_ms:.1f}",
                f"{comparison.cqla.makespan_ms:.1f}",
                f"{comparison.speedup:.1f}x",
            )
        )
    return format_table(
        ["Kernel", "Zero Fac", "pi/8 Fac", "Tile Area",
         "Qalypso (ms)", "CQLA (ms)", "Speedup"],
        rows,
        title="Figure 16 / Section 5.3: Qalypso tiles vs CQLA at equal factory area",
    )


@_register(
    "qalypso-pick",
    "Figs. 15-16",
    "ADCR-optimal design point via design-space exploration",
)
def _qalypso_pick() -> str:
    """Reproduce the paper's Qalypso pick with the exploration engine.

    Runs a grid exploration of the Figure 15 space (architecture kind x
    factory-area budget) for the 32-bit QCLA and reports the ADCR-optimal
    point — which lands on the fully-multiplexed (Qalypso) organization —
    together with per-architecture winners and the area-delay Pareto
    front.
    """
    from repro.explore import (
        AdcrObjective,
        Evaluator,
        GridStrategy,
        architecture_space,
        explore,
        format_exploration,
    )
    from repro.kernels import analyze_kernel

    ka = analyze_kernel("qcla", 32)
    space = architecture_space(ka)
    evaluator = Evaluator(analysis=ka)
    result = explore(
        space,
        AdcrObjective(),
        GridStrategy(space),
        evaluator=evaluator,
        budget=space.grid_size(),
    )
    return format_exploration(result)
