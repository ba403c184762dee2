"""Parameter sweeps: Figure 8 (throughput) and Figure 15 (area).

Figure 8: execution time as a function of a steady encoded-zero ancilla
throughput, holding pi/8 supply proportional. The curve falls steeply
until the throughput crosses the kernel's average bandwidth (Table 3) and
then flattens at the speed-of-data floor.

Figure 15: execution time as a function of total ancilla-factory area for
the QLA, CQLA and Fully-Multiplexed microarchitectures.

Both sweeps are grid explorations: they enumerate the grid of
:func:`repro.explore.space.throughput_space` or
:func:`~repro.explore.space.architecture_space` and batch it through
:class:`repro.explore.evaluator.Evaluator`, the same machinery behind
``python -m repro explore``. The kernel is lowered to its compiled array
form exactly once per sweep, and points come back in order.

The evaluator resolves each sweep's homogeneous point groups through the
**point-batched** engine (:mod:`repro.arch.batched`): the whole
throughput axis — and each QLA/Multiplexed area ladder — executes as one
vectorized pass over a gate-major ``(num_qubits + 1, points)`` state
matrix rather than one interpreted walk per point, bit-identically
(roughly an order of
magnitude faster at Figure-8/15 grid sizes; see
``benchmarks/test_bench_sweeps.py``). CQLA ladders run per point, each
point replaying the same memoized cache schedule; a point whose supply
never binds returns the memoized supply-free walk, and only the others
book ports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.arch.architectures import ArchitectureKind, CqlaConfig
from repro.arch.simulator import SimulationResult
from repro.circuits.compiled import CompiledCircuit
from repro.kernels.analysis import KernelAnalysis


@dataclass(frozen=True)
class SweepPoint:
    """One sweep sample."""

    x: float
    makespan_us: float
    result: SimulationResult


def throughput_sweep(
    analysis: KernelAnalysis,
    throughputs_per_ms: Optional[Sequence[float]] = None,
    *,
    compiled: Optional[CompiledCircuit] = None,
) -> List[SweepPoint]:
    """Figure 8: execution time vs steady encoded-zero throughput.

    The pi/8 supply scales with the zero supply in the kernel's demand
    ratio, isolating the zero-bandwidth axis as in the paper's figure.

    Args:
        analysis: Characterized kernel.
        throughputs_per_ms: Zero-ancilla rates to sample; defaults to a
            logarithmic sweep bracketing the kernel's average bandwidth.
        compiled: Optional prebuilt compiled circuit to reuse; compiled
            once for the whole sweep when omitted.
    """
    from repro.explore.evaluator import Evaluator
    from repro.explore.space import throughput_space

    points = throughput_space(analysis, throughputs_per_ms).grid_points()
    evaluations = Evaluator(analysis=analysis, compiled=compiled).evaluate(points)
    return [
        SweepPoint(point["zero_rate"], evaluation.result.makespan_us, evaluation.result)
        for point, evaluation in zip(points, evaluations)
    ]


def _simulate_architecture(
    analysis: KernelAnalysis,
    kind: ArchitectureKind,
    area: float,
    cqla: Optional[CqlaConfig] = None,
    compiled: Optional[CompiledCircuit] = None,
) -> SimulationResult:
    """One architecture point under ``analysis.tech`` (shared with the
    Qalypso comparison)."""
    from repro.explore.evaluator import Evaluator

    evaluator = Evaluator(analysis=analysis, compiled=compiled, cqla=cqla)
    point = {"arch": kind.value, "factory_area": float(area)}
    return evaluator.evaluate([point])[0].result


def area_sweep(
    analysis: KernelAnalysis,
    areas: Optional[Sequence[float]] = None,
    kinds: Sequence[ArchitectureKind] = tuple(ArchitectureKind),
    cqla: Optional[CqlaConfig] = None,
    *,
    compiled: Optional[CompiledCircuit] = None,
) -> Dict[ArchitectureKind, List[SweepPoint]]:
    """Figure 15: execution time vs total ancilla-factory area per arch.

    Args:
        analysis: Characterized kernel.
        areas: Factory-area budgets (macroblocks); defaults to a log sweep
            from 1/8x to 512x the kernel's matched-demand area.
        kinds: Architectures to simulate.
        cqla: Optional CQLA configuration override.
        compiled: Optional prebuilt compiled circuit to reuse; compiled
            once for the whole sweep when omitted.
    """
    from repro.explore.evaluator import Evaluator
    from repro.explore.space import architecture_space

    points = architecture_space(analysis, areas, kinds).grid_points()
    evaluator = Evaluator(analysis=analysis, compiled=compiled, cqla=cqla)
    evaluations = evaluator.evaluate(points)
    curves: Dict[ArchitectureKind, List[SweepPoint]] = {kind: [] for kind in kinds}
    for point, evaluation in zip(points, evaluations):
        curves[ArchitectureKind(point["arch"])].append(
            SweepPoint(
                point["factory_area"],
                evaluation.result.makespan_us,
                evaluation.result,
            )
        )
    return curves


def plateau_makespan(points: Sequence[SweepPoint]) -> float:
    """Execution time in the asymptotic (largest-area) regime."""
    if not points:
        raise ValueError("empty sweep")
    return points[-1].makespan_us


def area_to_reach(
    points: Sequence[SweepPoint], target_makespan_us: float
) -> Optional[float]:
    """Smallest sampled area whose makespan is within the target."""
    for point in points:
        if point.makespan_us <= target_makespan_us:
            return point.x
    return None
