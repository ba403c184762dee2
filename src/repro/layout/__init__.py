"""Ion-trap layout substrate (Section 4.1, Figures 9-11, 13).

Models the paper's macroblock abstraction: fixed-at-fab-time channel blocks
through which ions shuttle, with designated gate locations. Provides:

* :mod:`repro.layout.macroblock` — the six Figure 9 block types;
* :mod:`repro.layout.grid` — rectangular layouts, connectivity, area;
* :mod:`repro.layout.router` — latency-weighted shortest-path movement
  (straight moves vs turns, Table 4);
* :mod:`repro.layout.region` — the single-encoded-qubit data region of
  Figure 10 and data-area accounting;
* :mod:`repro.layout.schedules` — hand-optimized operation-count schedules
  whose symbolic latencies reproduce the paper's functional-unit formulas
  (Tables 5 and 7, Section 4.3);
* :mod:`repro.layout.floorplans` — macroblock floorplans for the simple
  factory (Figure 11) and the pipelined functional units (Figure 13).
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".grid": ("Grid", "GridError"),
    ".macroblock": ("Direction", "Macroblock", "MacroblockType"),
    ".region": ("data_region_grid", "data_qubit_area"),
    ".router": ("MovePlan", "Router"),
    ".schedules": ("OpSchedule",),
})
