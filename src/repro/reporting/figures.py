"""ASCII figures for sweep output (Figures 7, 8 and 15)."""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

Series = Sequence[Tuple[float, float]]


def ascii_plot(
    curves: Dict[str, Series],
    width: int = 64,
    height: int = 18,
    logx: bool = False,
    logy: bool = False,
    title: str = "",
) -> str:
    """Render one or more (x, y) series as an ASCII scatter plot.

    Each curve gets a distinct marker; axes are annotated with their data
    ranges. Log scaling matches the paper's log-log sweep figures.
    """
    if not curves or all(not s for s in curves.values()):
        return "(no data)"
    markers = "*o+x#@%&"

    def tx(v: float) -> float:
        return math.log10(v) if logx else v

    def ty(v: float) -> float:
        return math.log10(v) if logy else v

    points = [
        (tx(x), ty(y))
        for series in curves.values()
        for x, y in series
        if (not logx or x > 0) and (not logy or y > 0)
    ]
    if not points:
        return "(no plottable data)"
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    grid: List[List[str]] = [[" "] * width for _ in range(height)]
    for idx, (name, series) in enumerate(curves.items()):
        marker = markers[idx % len(markers)]
        for x, y in series:
            if (logx and x <= 0) or (logy and y <= 0):
                continue
            col = int((tx(x) - x_lo) / x_span * (width - 1))
            row = int((ty(y) - y_lo) / y_span * (height - 1))
            grid[height - 1 - row][col] = marker
    lines = []
    if title:
        lines.append(title)
    for name, marker in zip(curves, markers):
        lines.append(f"  {marker} = {name}")
    top = f"{(10 ** y_hi if logy else y_hi):.3g}"
    bottom = f"{(10 ** y_lo if logy else y_lo):.3g}"
    lines.append(f"y: {bottom} .. {top}" + ("  (log)" if logy else ""))
    lines.append("+" + "-" * width + "+")
    for row in grid:
        lines.append("|" + "".join(row) + "|")
    lines.append("+" + "-" * width + "+")
    left = f"{(10 ** x_lo if logx else x_lo):.3g}"
    right = f"{(10 ** x_hi if logx else x_hi):.3g}"
    lines.append(f"x: {left} .. {right}" + ("  (log)" if logx else ""))
    return "\n".join(lines)
