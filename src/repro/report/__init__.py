"""Self-contained HTML report generation (``python -m repro.report``).

Three layers, all stdlib-only:

- :mod:`repro.report.palette` -- the validated color tokens and the
  report's stylesheet (light + dark mode from one set of roles);
- :mod:`repro.report.charts` -- pure inline-SVG chart builders (grouped
  bars, stacked fractions, heatmap) plus the table view every chart
  ships with;
- :mod:`repro.report.sections` -- marshals real experiment outputs
  (figures 6-9, pipeline bottlenecks, sweep records, suite scores) into
  those charts.

The CLI front end lives in :mod:`repro.report.__main__`; see
``docs/USAGE.md`` for the flag reference.
"""

from repro.report.sections import (
    render_figures,
    render_pipelines,
    render_suites,
    render_sweep,
)

__all__ = [
    "render_figures",
    "render_pipelines",
    "render_suites",
    "render_sweep",
]
