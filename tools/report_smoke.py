"""Report smoke check: generate the full HTML report and audit it.

Renders every section -- figures and pipelines live at the fast model
scale, the sweep and suite sections from the committed golden record
files -- then asserts the structural contract:

- all four sections are present with their charts (inline SVG only);
- every SVG parses as well-formed XML;
- the document is self-contained (no scripts, external styles, images
  or network fetches) and ships both color themes;
- rendering is deterministic: a second render is byte-identical.

Run directly (``python tools/report_smoke.py``) or via
``make report-smoke``; exits non-zero with a diagnostic on any failure.
"""

from __future__ import annotations

import re
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.report.__main__ import SECTIONS, build_parser, render_report  # noqa: E402


def main() -> int:
    args = build_parser().parse_args([
        "--out", "-",
        "--sections", ",".join(SECTIONS),
        "--fast",
        "--sweep", str(ROOT / "tests" / "data" / "sweep_smoke_golden.json"),
        "--suites", str(ROOT / "tests" / "data" / "suites_smoke_golden.json"),
    ])
    html = render_report(args)

    failures = []
    for name in SECTIONS:
        if f'<section id="{name}"' not in html:
            failures.append(f"missing section: {name}")

    svgs = re.findall(r"<svg.*?</svg>", html, re.DOTALL)
    if len(svgs) < 8:
        failures.append(f"expected >= 8 charts, found {len(svgs)}")
    for i, svg in enumerate(svgs):
        try:
            ET.fromstring(svg)
        except ET.ParseError as exc:
            failures.append(f"chart {i} is not well-formed SVG: {exc}")

    neutered = html.replace("https://ui.perfetto.dev", "")
    for marker in ("<script", "<link", "<img", "http://", "https://"):
        if marker in neutered:
            failures.append(f"report is not self-contained: found {marker!r}")
    if "prefers-color-scheme: dark" not in html:
        failures.append("dark theme missing")

    if render_report(args) != html:
        failures.append("re-render is not byte-identical")

    if failures:
        for failure in failures:
            print(f"report-smoke FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        f"report-smoke OK: {len(SECTIONS)} sections, {len(svgs)} charts, "
        f"{len(html)} bytes, deterministic."
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
