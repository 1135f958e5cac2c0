"""The report's visual tokens: one validated palette, two modes.

Every color in the generated HTML is referenced by *role* through a CSS
custom property declared here -- the chart-building code never touches a
hex value directly, so light and dark mode swap in one place.  The hues
are a validated categorical order (adjacent-pair CVD distance >= 8 in
both modes), a single-hue sequential blue ramp for magnitude encodings,
and recessive chrome inks for axes, gridlines and labels.

Rules the charts in :mod:`repro.report.charts` follow:

- categorical slots are assigned in fixed order, never cycled;
- sequential magnitude (the sweep heatmap) uses the one blue ramp,
  light -> dark, identical in both modes;
- text always wears a text token (primary/secondary/muted ink), never a
  series color;
- one y-axis per chart, hairline gridlines, a baseline heavier than the
  grid but lighter than the ink.
"""

from __future__ import annotations

#: Categorical series slots, in validated order (light mode / dark mode).
#: Four slots are used at most (figure 8's energy components); stacked
#: segments and grouped bars read adjacent pairs, which this order
#: clears in both modes.
CATEGORICAL = (
    ("#2a78d6", "#3987e5"),  # 1 blue
    ("#eb6834", "#d95926"),  # 2 orange
    ("#1baf7a", "#199e70"),  # 3 aqua
    ("#eda100", "#c98500"),  # 4 yellow
    ("#e87ba4", "#d55181"),  # 5 magenta
    ("#008300", "#008300"),  # 6 green
    ("#4a3aa7", "#9085e9"),  # 7 violet
    ("#e34948", "#e66767"),  # 8 red
)

#: Single-hue sequential ramp (blue, steps 100..700): continuous
#: magnitude only.  Identical in both modes -- the lightest step means
#: "near zero" and is allowed to recede toward the light surface.
SEQUENTIAL = (
    "#cde2fb", "#b7d3f6", "#9ec5f4", "#86b6ef", "#6da7ec", "#5598e7",
    "#3987e5", "#2a78d6", "#256abf", "#1c5cab", "#184f95", "#104281",
    "#0d366b",
)

#: Index into :data:`SEQUENTIAL` from which white ink beats dark ink.
SEQUENTIAL_DARK_TEXT_FROM = 6

_LIGHT = {
    "surface": "#fcfcfb",
    "page": "#f9f9f7",
    "ink": "#0b0b0b",
    "ink-2": "#52514e",
    "muted": "#898781",
    "grid": "#e1e0d9",
    "baseline": "#c3c2b7",
    "border": "rgba(11,11,11,0.10)",
}
_DARK = {
    "surface": "#1a1a19",
    "page": "#0d0d0d",
    "ink": "#ffffff",
    "ink-2": "#c3c2b7",
    "muted": "#898781",
    "grid": "#2c2c2a",
    "baseline": "#383835",
    "border": "rgba(255,255,255,0.10)",
}


def _declarations(mode: int) -> str:
    chrome = _DARK if mode else _LIGHT
    lines = [f"  --{role}: {value};" for role, value in chrome.items()]
    lines += [
        f"  --series-{i}: {pair[mode]};"
        for i, pair in enumerate(CATEGORICAL, start=1)
    ]
    return "\n".join(lines)


def stylesheet() -> str:
    """The report's full ``<style>`` body (light + dark scopes).

    Dark mode is *selected*, not an automatic inversion: the dark
    declarations are the same hues re-stepped for the dark surface.
    They apply under the OS preference (``prefers-color-scheme``) and
    under an explicit ``data-theme`` attribute, which wins both ways.
    """
    dark = _declarations(1)
    return f"""\
:root {{
  color-scheme: light;
{_declarations(0)}
}}
@media (prefers-color-scheme: dark) {{
  :root:where(:not([data-theme="light"])) {{
    color-scheme: dark;
{dark}
  }}
}}
:root[data-theme="dark"] {{
  color-scheme: dark;
{dark}
}}
* {{ box-sizing: border-box; }}
body {{
  margin: 0; padding: 2rem 2.5rem; background: var(--page);
  color: var(--ink);
  font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
}}
h1 {{ font-size: 1.5rem; margin: 0 0 .25rem; }}
h2 {{ font-size: 1.15rem; margin: 2.5rem 0 .5rem; }}
h3 {{ font-size: 1rem; margin: 1.5rem 0 .25rem; }}
p.sub {{ color: var(--ink-2); margin: 0 0 1rem; }}
.chart {{
  background: var(--surface); border: 1px solid var(--border);
  border-radius: 8px; padding: 1rem 1.25rem 1.25rem; margin: 1rem 0;
  max-width: 760px;
}}
.chart h3 {{ margin: 0 0 .125rem; }}
.chart .note {{ color: var(--ink-2); font-size: .85rem; margin: 0 0 .75rem; }}
.legend {{
  display: flex; flex-wrap: wrap; gap: .4rem 1.1rem;
  margin: .25rem 0 .6rem; font-size: .85rem; color: var(--ink-2);
}}
.legend .swatch {{
  display: inline-block; width: 10px; height: 10px; border-radius: 3px;
  margin-right: .4rem; vertical-align: baseline;
}}
svg text {{ font: 11px system-ui, -apple-system, "Segoe UI", sans-serif; }}
svg .tick {{ fill: var(--muted); font-variant-numeric: tabular-nums; }}
svg .label {{ fill: var(--ink-2); }}
table {{ border-collapse: collapse; font-size: .9rem; margin: .5rem 0 1rem; }}
th, td {{
  text-align: left; padding: .3rem .9rem .3rem 0;
  border-bottom: 1px solid var(--grid);
}}
th {{ color: var(--ink-2); font-weight: 600; }}
td.num {{ font-variant-numeric: tabular-nums; }}
td.win {{ font-weight: 600; }}
"""
