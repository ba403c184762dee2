"""Design-space declaration: named dimensions lowered to simulator configs.

The paper's Qalypso microarchitecture is the product of a design-space
search (Figures 15-16): sweep factory provisioning, datapath organization
and layout choices, then pick the ADCR-optimal point. A
:class:`DesignSpace` makes that search space a first-class object — a
tuple of named dimensions, each continuous, integer or categorical — so
search strategies can enumerate, sample or locally refine it without
knowing what the axes mean.

Dimension names the evaluator understands (see
:mod:`repro.explore.evaluator` for the lowering):

==================== =========== =====================================
name                 type        meaning
==================== =========== =====================================
``arch``             categorical architecture kind (``"qla"``,
                                 ``"cqla"``, ``"multiplexed"``)
``factory_area``     continuous  total ancilla-factory area budget (mb)
``cqla_cache_fraction`` continuous CQLA compute-cache size fraction
``cqla_ports``       integer     CQLA cache teleport ports
``region_span``      integer     dense-region span for multiplexed
``zero_rate``        continuous  steady encoded-zero supply (per ms)
``pi8_ratio``        continuous  pi/8 supply as a fraction of zero rate
``tech_scale``       continuous  uniform latency scale on the technology
``code_level``       integer     code concatenation level (1 = paper)
==================== =========== =====================================

Custom dimensions beyond these are rejected at lowering time, keeping the
space declaration honest about what the simulator can evaluate.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch.architectures import ArchitectureKind


def _subsample(values: Sequence, count: int) -> List:
    """Pick ``count`` entries spread across ``values``, endpoints included."""
    if count >= len(values):
        return list(values)
    if count == 1:
        return [values[0]]
    step = (len(values) - 1) / (count - 1)
    indices = sorted({round(i * step) for i in range(count)})
    return [values[i] for i in indices]


@dataclass(frozen=True)
class Continuous:
    """A real-valued axis, optionally with an explicit grid.

    Args:
        name: Dimension name.
        lo: Lower bound (derived from ``values`` when omitted).
        hi: Upper bound (derived from ``values`` when omitted).
        log: Treat the axis logarithmically for gridding, sampling and
            refinement (factory areas and supply rates span decades).
        num: Default grid resolution when ``values`` is not given.
        values: Explicit grid points (e.g. the Figure 15 area ladder);
            bounds default to their extremes.
    """

    name: str
    lo: Optional[float] = None
    hi: Optional[float] = None
    log: bool = True
    num: int = 8
    values: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if self.values is not None:
            if not self.values:
                raise ValueError(f"{self.name}: values must be non-empty")
            object.__setattr__(self, "values", tuple(float(v) for v in self.values))
            if self.lo is None:
                object.__setattr__(self, "lo", min(self.values))
            if self.hi is None:
                object.__setattr__(self, "hi", max(self.values))
        if self.lo is None or self.hi is None:
            raise ValueError(f"{self.name}: bounds required (or pass values=)")
        if not self.lo <= self.hi:
            raise ValueError(f"{self.name}: lo {self.lo} > hi {self.hi}")
        if self.log and self.lo <= 0:
            raise ValueError(f"{self.name}: log axis needs positive bounds")
        if self.num < 1:
            raise ValueError(f"{self.name}: num must be >= 1")

    def grid(self, resolution: Optional[int] = None) -> List[float]:
        if self.values is not None:
            return _subsample(self.values, resolution or len(self.values))
        count = resolution or self.num
        if count == 1 or self.lo == self.hi:
            return [self.lo]
        if self.log:
            ratio = math.log(self.hi / self.lo)
            return [
                self.lo * math.exp(ratio * i / (count - 1)) for i in range(count)
            ]
        step = (self.hi - self.lo) / (count - 1)
        return [self.lo + step * i for i in range(count)]

    def sample(self, rng: random.Random) -> float:
        if self.log:
            return math.exp(rng.uniform(math.log(self.lo), math.log(self.hi)))
        return rng.uniform(self.lo, self.hi)

    def neighbor(self, value: float, rng: random.Random, scale: float) -> float:
        """Perturb ``value`` by a Gaussian step of ``scale`` x the axis span."""
        if self.lo == self.hi:
            return self.lo
        if self.log:
            span = math.log(self.hi / self.lo)
            moved = math.log(value) + rng.gauss(0.0, scale * span)
            return min(self.hi, max(self.lo, math.exp(moved)))
        span = self.hi - self.lo
        return min(self.hi, max(self.lo, value + rng.gauss(0.0, scale * span)))


@dataclass(frozen=True)
class Integer:
    """An integer-valued axis (port counts, region spans)."""

    name: str
    lo: int
    hi: int
    num: int = 0  # 0 = every integer in range

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"{self.name}: lo {self.lo} > hi {self.hi}")

    def grid(self, resolution: Optional[int] = None) -> List[int]:
        full = list(range(self.lo, self.hi + 1))
        count = resolution or self.num or len(full)
        return [int(v) for v in _subsample(full, count)]

    def sample(self, rng: random.Random) -> int:
        return rng.randint(self.lo, self.hi)

    def neighbor(self, value: int, rng: random.Random, scale: float) -> int:
        if self.lo == self.hi:
            return self.lo
        step = max(1, round(abs(rng.gauss(0.0, scale * (self.hi - self.lo)))))
        moved = value + (step if rng.random() < 0.5 else -step)
        return min(self.hi, max(self.lo, moved))


@dataclass(frozen=True)
class Categorical:
    """A choice among unordered alternatives (architecture kind)."""

    name: str
    choices: Tuple

    def __post_init__(self) -> None:
        if not self.choices:
            raise ValueError(f"{self.name}: choices must be non-empty")
        object.__setattr__(self, "choices", tuple(self.choices))

    def grid(self, resolution: Optional[int] = None) -> List:
        return list(self.choices)

    def sample(self, rng: random.Random):
        return self.choices[rng.randrange(len(self.choices))]

    def neighbor(self, value, rng: random.Random, scale: float):
        """Categorical values are held fixed during local refinement."""
        return value


@dataclass(frozen=True)
class DesignSpace:
    """An ordered tuple of named dimensions.

    Grid enumeration is the cartesian product in declaration order, so a
    space declared to mirror :func:`repro.arch.sweep.area_sweep`'s
    (kind, area) nesting enumerates the exact same points in the exact
    same order.
    """

    dimensions: Tuple = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "dimensions", tuple(self.dimensions))
        if not self.dimensions:
            raise ValueError("a design space needs at least one dimension")
        names = [d.name for d in self.dimensions]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate dimension names in {names}")

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(d.name for d in self.dimensions)

    def dimension(self, name: str):
        for dim in self.dimensions:
            if dim.name == name:
                return dim
        raise KeyError(f"no dimension {name!r} in {self.names}")

    def grid_points(self, resolution: Optional[int] = None) -> List[Dict]:
        """Full-factorial enumeration (optionally at reduced resolution).

        ``resolution`` caps the per-dimension sample count for continuous
        and integer axes — the adaptive strategy's coarse first pass.
        """
        axes = [dim.grid(resolution) for dim in self.dimensions]
        return [
            dict(zip(self.names, combo)) for combo in itertools.product(*axes)
        ]

    def grid_size(self, resolution: Optional[int] = None) -> int:
        size = 1
        for dim in self.dimensions:
            size *= len(dim.grid(resolution))
        return size

    def sample(self, rng: random.Random) -> Dict:
        return {dim.name: dim.sample(rng) for dim in self.dimensions}

    def neighbor(self, point: Dict, rng: random.Random, scale: float) -> Dict:
        """A local perturbation of ``point`` (categoricals held fixed).

        A dimension ``point`` lacks stays absent: a canonical point drops
        the axes at their default (a level-1 point has no ``code_level``).
        """
        return {
            dim.name: dim.neighbor(point[dim.name], rng, scale)
            for dim in self.dimensions
            if dim.name in point
        }


# ----------------------------------------------------------------------
# Standard spaces


def _code_level_dimension(code_levels: Optional[Sequence[int]]):
    """The ``code_level`` axis for a standard space, or None.

    ``None`` (the default everywhere) omits the dimension entirely —
    every point then canonicalizes to level 1, so existing spaces,
    sweeps and stored results are bit-identical. An explicit level list
    becomes an :class:`Integer` axis when the levels are a contiguous
    range, otherwise a :class:`Categorical` over exactly the given
    levels.
    """
    if code_levels is None:
        return None
    levels = sorted({int(level) for level in code_levels})
    if not levels:
        raise ValueError("code_levels must be non-empty when given")
    if levels[0] < 1:
        raise ValueError(f"code levels must be >= 1, got {levels[0]}")
    if levels == list(range(levels[0], levels[-1] + 1)):
        return Integer("code_level", levels[0], levels[-1])
    return Categorical("code_level", tuple(levels))


def architecture_space(
    analysis,
    areas: Optional[Sequence[float]] = None,
    kinds: Sequence[ArchitectureKind] = tuple(ArchitectureKind),
    area_points: int = 14,
    code_levels: Optional[Sequence[int]] = None,
) -> DesignSpace:
    """The Figure 15/16 space: architecture kind x factory-area budget.

    The default area ladder is exactly :func:`repro.arch.sweep.area_sweep`'s
    (1/8x to 512x the kernel's matched-demand area, ``area_points`` steps),
    so a grid exploration of this space evaluates the same points as the
    existing sweep path. ``code_levels`` appends the concatenation-level
    axis (e.g. ``(1, 2)`` sweeps each architecture point at both levels);
    the default — no axis — keeps every point at level 1, bit-identical
    to the paper's space. Level-L points need a spec-mode evaluator
    (``Evaluator(kernel=..., width=...)``), which re-characterizes the
    kernel at ``tech.at_level(L)``.
    """
    from repro.arch.provisioning import area_breakdown

    if areas is None:
        import numpy as np

        matched = area_breakdown(analysis).factory_area
        areas = np.geomspace(matched / 8.0, matched * 512.0, area_points)
    dimensions = [
        Categorical("arch", tuple(kind.value for kind in kinds)),
        Continuous("factory_area", values=tuple(float(a) for a in areas)),
    ]
    level_dim = _code_level_dimension(code_levels)
    if level_dim is not None:
        dimensions.append(level_dim)
    return DesignSpace(tuple(dimensions))


def throughput_space(
    analysis,
    rates: Optional[Sequence[float]] = None,
    pi8_ratio: Optional[float] = None,
    code_levels: Optional[Sequence[int]] = None,
) -> DesignSpace:
    """The Figure 8 space: steady zero-supply rate at a fixed pi/8 ratio.

    ``code_levels`` appends the concatenation-level axis exactly as in
    :func:`architecture_space` (default: absent, level 1 everywhere).
    """
    import numpy as np

    avg = analysis.zero_bandwidth_per_ms
    if rates is None:
        rates = np.geomspace(avg / 16.0, avg * 16.0, 17)
    if pi8_ratio is None:
        pi8_ratio = analysis.pi8_bandwidth_per_ms / avg if avg > 0 else 0.0
    dimensions = [
        Continuous("zero_rate", values=tuple(float(r) for r in rates)),
        Continuous("pi8_ratio", values=(float(pi8_ratio),), log=False),
    ]
    level_dim = _code_level_dimension(code_levels)
    if level_dim is not None:
        dimensions.append(level_dim)
    return DesignSpace(tuple(dimensions))
