"""Inline-SVG chart builders (stdlib only, deterministic output).

Each function returns an ``<svg>`` string sized by its content; the
colors are CSS custom properties from :mod:`repro.report.palette`, so
one SVG renders correctly on both the light and dark surface.  Marks
follow the house rules: thin bars with rounded data-ends anchored to the
baseline, 2px surface gaps between adjacent fills, hairline gridlines,
one value axis per chart, and selective direct labels (a chart labels
its peak, not every mark).

Nothing here does I/O or touches the simulation -- the section builders
in :mod:`repro.report.sections` marshal real data into these shapes.
"""

from __future__ import annotations

import math
from html import escape
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.report.palette import SEQUENTIAL, SEQUENTIAL_DARK_TEXT_FROM

#: Gap between adjacent fills (bars, stacked segments), in px.
GAP = 2

#: Radius of a bar's rounded data-end, in px.
END_RADIUS = 4


def _fmt(value: float) -> str:
    """Compact numeric label: 0.5, 2.4, 12, 1200."""
    if value >= 100:
        return f"{value:.0f}"
    if value >= 10:
        return f"{value:.1f}".rstrip("0").rstrip(".")
    return f"{value:.2f}".rstrip("0").rstrip(".")


def _nice_ticks(vmax: float) -> List[float]:
    """~4 round tick values covering [0, vmax]."""
    if vmax <= 0:
        return [0.0, 1.0]
    raw = vmax / 4
    magnitude = 10 ** math.floor(math.log10(raw))
    for mult in (1, 2, 2.5, 5, 10):
        step = mult * magnitude
        if step >= raw:
            break
    top = step * math.ceil(vmax / step)
    n = int(round(top / step))
    return [step * i for i in range(n + 1)]


def _bar_path(x: float, y: float, w: float, h: float, up: bool = True) -> str:
    """A bar with a rounded data-end and a square baseline end."""
    r = min(END_RADIUS, w / 2, h)
    if h <= 0 or w <= 0:
        return ""
    if up:  # vertical bar: rounded top, flat bottom at y+h
        return (
            f"M{x:.1f},{y + h:.1f} V{y + r:.1f} Q{x:.1f},{y:.1f} "
            f"{x + r:.1f},{y:.1f} H{x + w - r:.1f} Q{x + w:.1f},{y:.1f} "
            f"{x + w:.1f},{y + r:.1f} V{y + h:.1f} Z"
        )
    # horizontal bar: rounded right end, flat left at x
    return (
        f"M{x:.1f},{y:.1f} H{x + w - r:.1f} Q{x + w:.1f},{y:.1f} "
        f"{x + w:.1f},{y + r:.1f} V{y + h - r:.1f} Q{x + w:.1f},{y + h:.1f} "
        f"{x + w - r:.1f},{y + h:.1f} H{x:.1f} Z"
    )


def grouped_bars(
    groups: Sequence[str],
    series: Sequence[str],
    value: Callable[[str, str], float],
    unit: str = "",
) -> str:
    """Vertical grouped bars: one group per x position, one bar per series.

    The single y axis carries round ticks and hairline gridlines; only
    the chart's peak value gets a direct label.
    """
    left, bottom, top = 44, 22, 12
    bar_w, plot_h = 22, 180
    group_w = len(series) * bar_w + (len(series) - 1) * GAP
    group_pitch = group_w + 28
    width = left + len(groups) * group_pitch + 8
    height = top + plot_h + bottom
    vmax = max(value(g, s) for g in groups for s in series)
    ticks = _nice_ticks(vmax)
    scale = plot_h / ticks[-1]
    peak = max(
        ((value(g, s), g, s) for g in groups for s in series),
        key=lambda t: t[0],
    )
    parts = [
        f'<svg viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" role="img">'
    ]
    for tick in ticks:
        y = top + plot_h - tick * scale
        stroke = "var(--baseline)" if tick == 0 else "var(--grid)"
        parts.append(
            f'<line x1="{left}" y1="{y:.1f}" x2="{width - 4}" y2="{y:.1f}" '
            f'stroke="{stroke}" stroke-width="1"/>'
        )
        parts.append(
            f'<text class="tick" x="{left - 6}" y="{y + 3.5:.1f}" '
            f'text-anchor="end">{_fmt(tick)}{escape(unit)}</text>'
        )
    for gi, group in enumerate(groups):
        gx = left + gi * group_pitch + (group_pitch - group_w) / 2
        for si, name in enumerate(series):
            v = value(group, name)
            h = v * scale
            x = gx + si * (bar_w + GAP)
            y = top + plot_h - h
            parts.append(
                f'<path d="{_bar_path(x, y, bar_w, h)}" '
                f'fill="var(--series-{si + 1})"/>'
            )
            if (v, group, name) == peak:
                parts.append(
                    f'<text class="label" x="{x + bar_w / 2:.1f}" '
                    f'y="{y - 4:.1f}" text-anchor="middle">'
                    f"{_fmt(v)}{escape(unit)}</text>"
                )
        parts.append(
            f'<text class="tick" x="{gx + group_w / 2:.1f}" '
            f'y="{top + plot_h + 15}" text-anchor="middle">'
            f"{escape(group)}</text>"
        )
    parts.append("</svg>")
    return "".join(parts)


def stacked_hbars(
    rows: Sequence[Tuple[str, Sequence[float], str]],
    annotate: Optional[Dict[str, str]] = None,
) -> str:
    """Horizontal 100%-stacked bars: ``(label, fractions, right_label)``.

    Fractions are drawn left to right in series-slot order with a 2px
    surface gap between segments; ``right_label`` (totals, bottleneck
    notes) renders in secondary ink past the bar's end.
    """
    left, bar_h, pitch, plot_w = 92, 18, 30, 420
    width, height = left + plot_w + 170, 8 + pitch * len(rows)
    annotate = annotate or {}
    parts = [
        f'<svg viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" role="img">'
    ]
    for ri, (label, fractions, right) in enumerate(rows):
        y = 8 + ri * pitch
        parts.append(
            f'<text class="label" x="{left - 8}" y="{y + bar_h - 5}" '
            f'text-anchor="end">{escape(label)}</text>'
        )
        gaps = GAP * max(0, sum(1 for f in fractions if f > 0) - 1)
        usable = plot_w - gaps
        x = float(left)
        for si, fraction in enumerate(fractions):
            if fraction <= 0:
                continue
            w = fraction * usable
            parts.append(
                f'<rect x="{x:.1f}" y="{y}" width="{w:.1f}" '
                f'height="{bar_h}" rx="2" fill="var(--series-{si + 1})"/>'
            )
            x += w + GAP
        note = right if label not in annotate else f"{right} {annotate[label]}"
        parts.append(
            f'<text class="label" x="{left + plot_w + 8}" '
            f'y="{y + bar_h - 5}">{escape(note)}</text>'
        )
    parts.append("</svg>")
    return "".join(parts)


def heatmap(
    row_labels: Sequence[str],
    col_labels: Sequence[str],
    values: Dict[Tuple[str, str], float],
    fmt: Callable[[float], str] = _fmt,
) -> str:
    """A magnitude grid on the single-hue sequential ramp.

    Values are normalized across the whole grid (light = low, dark =
    high); every cell carries its value in whichever ink clears the
    cell's fill, so the encoding never relies on color alone.
    """
    left, top, cell_w, cell_h = 110, 20, 86, 30
    width = left + len(col_labels) * (cell_w + GAP) + 8
    height = top + len(row_labels) * (cell_h + GAP) + 8
    vmin = min(values.values())
    vmax = max(values.values())
    span = (vmax - vmin) or 1.0
    parts = [
        f'<svg viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" role="img">'
    ]
    for ci, col in enumerate(col_labels):
        parts.append(
            f'<text class="tick" x="{left + ci * (cell_w + GAP) + cell_w / 2:.1f}" '
            f'y="{top - 7}" text-anchor="middle">{escape(col)}</text>'
        )
    for ri, row in enumerate(row_labels):
        y = top + ri * (cell_h + GAP)
        parts.append(
            f'<text class="label" x="{left - 8}" y="{y + cell_h / 2 + 4:.1f}" '
            f'text-anchor="end">{escape(row)}</text>'
        )
        for ci, col in enumerate(col_labels):
            v = values[(row, col)]
            step = round((v - vmin) / span * (len(SEQUENTIAL) - 1))
            fill = SEQUENTIAL[step]
            ink = "#ffffff" if step >= SEQUENTIAL_DARK_TEXT_FROM else "#0b0b0b"
            x = left + ci * (cell_w + GAP)
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell_w}" height="{cell_h}" '
                f'rx="3" fill="{fill}"/>'
            )
            parts.append(
                f'<text x="{x + cell_w / 2:.1f}" y="{y + cell_h / 2 + 4:.1f}" '
                f'text-anchor="middle" fill="{ink}">{escape(fmt(v))}</text>'
            )
    parts.append("</svg>")
    return "".join(parts)


def chart_block(
    title: str,
    note: str,
    legend: Sequence[Tuple[str, str]],
    body: str,
) -> str:
    """One chart card: heading, explanatory note, legend, then the SVG.

    ``legend`` pairs series names with CSS color expressions; a single
    series needs no legend box (the title names it) -- pass an empty
    sequence.
    """
    legend_html = ""
    if len(legend) >= 2:
        items = "".join(
            f'<span><span class="swatch" style="background:{color}"></span>'
            f"{escape(name)}</span>"
            for name, color in legend
        )
        legend_html = f'<div class="legend">{items}</div>'
    return (
        f'<div class="chart"><h3>{escape(title)}</h3>'
        f'<p class="note">{escape(note)}</p>{legend_html}{body}</div>'
    )


def html_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[str]],
    numeric_from: int = 1,
    winners: Optional[set] = None,
) -> str:
    """A plain data table (the charts' always-available table view)."""
    winners = winners or set()
    head = "".join(f"<th>{escape(h)}</th>" for h in headers)
    body = []
    for ri, row in enumerate(rows):
        cells = []
        for ci, cell in enumerate(row):
            classes = []
            if ci >= numeric_from:
                classes.append("num")
            if (ri, ci) in winners:
                classes.append("win")
            attr = f' class="{" ".join(classes)}"' if classes else ""
            cells.append(f"<td{attr}>{escape(str(cell))}</td>")
        body.append("<tr>" + "".join(cells) + "</tr>")
    return (
        f"<table><thead><tr>{head}</tr></thead>"
        f"<tbody>{''.join(body)}</tbody></table>"
    )
