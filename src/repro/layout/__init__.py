"""Ion-trap layout accounting (Section 4.1, Figures 9-11).

Areas are counted in the paper's macroblocks: fixed-at-fab-time channel
blocks through which ions shuttle, with designated gate locations.
Provides:

* :mod:`repro.layout.region` — data-area accounting for the
  single-encoded-qubit data region of Figure 10;
* :mod:`repro.layout.schedules` — hand-optimized operation-count schedules
  whose symbolic latencies reproduce the paper's functional-unit formulas
  (Tables 5 and 7, Section 4.3).

The simple factory's Figure 11 floorplan is built block by block, from
the six Figure 9 block types, by
:func:`repro.testing.floorplan.simple_factory_grid`, the oracle for its
area.
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".region": ("data_qubit_area",),
    ".schedules": ("OpSchedule",),
})
