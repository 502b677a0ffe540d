"""Plain-text reporting: the tables and bar charts the benches print.

Every figure in the paper is a bar chart or scatter plot; these helpers
render the same data as aligned text tables plus ASCII bars so the
reproduction's output can be compared against the paper at a glance.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]]
) -> str:
    """Render rows as an aligned text table."""
    rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)


#: Characters the longest bar of a :func:`bar_chart` spans.
BAR_WIDTH = 40

#: Grid size of a :func:`scatter_plot`.
SCATTER_ROWS = 16
SCATTER_COLS = 60


def bar_chart(
    labels: Sequence[str],
    series: Dict[str, Sequence[float]],
    baseline: Optional[float] = None,
) -> str:
    """Horizontal ASCII bar chart with one bar group per label.

    ``series`` maps a series name to one value per label (like the paper's
    grouped bars for GDP vs Profile Max).  ``baseline`` draws a reference
    mark (e.g. 1.0 = unified-memory parity).
    """
    peak = max(
        (v for values in series.values() for v in values), default=1.0
    )
    peak = max(peak, baseline or 0.0, 1e-9)
    lines: List[str] = []
    label_w = max((len(l) for l in labels), default=0)
    name_w = max((len(n) for n in series), default=0)
    for i, label in enumerate(labels):
        for j, (name, values) in enumerate(series.items()):
            value = values[i]
            filled = int(round(BAR_WIDTH * value / peak))
            bar = "#" * filled
            if baseline is not None:
                mark = int(round(BAR_WIDTH * baseline / peak))
                if mark >= len(bar):
                    bar = bar + " " * (mark - len(bar)) + "|"
            prefix = label if j == 0 else ""
            lines.append(
                f"{prefix.ljust(label_w)}  {name.ljust(name_w)} "
                f"{bar} {value:.3f}"
            )
        lines.append("")
    return "\n".join(lines).rstrip()


def scatter_plot(
    xs: Sequence[float],
    ys: Sequence[float],
    shades: Optional[Sequence[float]] = None,
    marks: Optional[Dict[str, Tuple[float, float]]] = None,
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    """Coarse ASCII scatter plot (used for the Figure 9 search clouds).

    ``shades`` in [0, 1] selects the glyph (light '.' to dark '@'),
    mirroring the paper's balance shading; ``marks`` overlays labelled
    points (each label's first character is drawn).
    """
    if not xs:
        return "(no points)"
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    xspan = (xmax - xmin) or 1.0
    yspan = (ymax - ymin) or 1.0
    glyphs = ".:oO@"
    rows, cols = SCATTER_ROWS, SCATTER_COLS
    grid = [[" "] * cols for _ in range(rows)]

    def cell(x: float, y: float) -> Tuple[int, int]:
        cx = int((x - xmin) / xspan * (cols - 1))
        cy = int((y - ymin) / yspan * (rows - 1))
        return rows - 1 - cy, cx

    for i, (x, y) in enumerate(zip(xs, ys)):
        shade = shades[i] if shades is not None else 0.5
        glyph = glyphs[min(int(shade * len(glyphs)), len(glyphs) - 1)]
        r, c = cell(x, y)
        grid[r][c] = glyph
    for label, (x, y) in (marks or {}).items():
        r, c = cell(x, y)
        grid[r][c] = label[0].upper()

    lines = [f"  y: {y_label} (top={ymax:.3f}, bottom={ymin:.3f})"]
    lines += ["  |" + "".join(row) for row in grid]
    lines.append("  +" + "-" * cols)
    lines.append(f"   x: {x_label} (left={xmin:.3f}, right={xmax:.3f})")
    return "\n".join(lines)


def geomean(values: Sequence[float]) -> float:
    """Geometric mean (the right average for performance ratios)."""
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    product = 1.0
    for v in vals:
        product *= v
    return product ** (1.0 / len(vals))


def arithmetic_mean(values: Sequence[float]) -> float:
    vals = list(values)
    return sum(vals) / len(vals) if vals else 0.0
