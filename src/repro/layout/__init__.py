"""Ion-trap layout substrate (Section 4.1, Figures 9-11).

Models the paper's macroblock abstraction: fixed-at-fab-time channel blocks
through which ions shuttle, with designated gate locations. Provides:

* :mod:`repro.layout.macroblock` — the six Figure 9 block types;
* :mod:`repro.layout.grid` — rectangular layouts, connectivity, area;
* :mod:`repro.layout.region` — the single-encoded-qubit data region of
  Figure 10 and data-area accounting;
* :mod:`repro.layout.schedules` — hand-optimized operation-count schedules
  whose symbolic latencies reproduce the paper's functional-unit formulas
  (Tables 5 and 7, Section 4.3).

The simple factory's Figure 11 floorplan is built by
:func:`repro.factory.simple.simple_factory_grid`.
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".grid": ("Grid", "GridError"),
    ".macroblock": ("Direction", "Macroblock", "MacroblockType"),
    ".region": ("data_region_grid", "data_qubit_area"),
    ".schedules": ("OpSchedule",),
})
