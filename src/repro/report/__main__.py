"""Self-contained HTML report: ``python -m repro.report``.

Usage::

    python -m repro.report --out report.html              # figures + pipelines
    python -m repro.report --out - --sections figures     # HTML to stdout
    python -m repro.report --out report.html --fast \\
        --sweep records.json --suites suite_records.json  # everything

Renders the reproduction's results as one dependency-free HTML file:
inline SVG charts (no JavaScript, no external assets) with light/dark
theming, each chart paired with its exact-numbers table view.

Sections:

==========  ===========================================================
figures     paper figures 6-9 from live model runs (honours --scale)
pipelines   per-stage bottleneck breakdowns for the canonical queries
sweep       heatmap of a sweep ResultSet (needs --sweep RECORDS.json)
suites      ranked cross-suite tier tables (--suites RECORDS.json, or
            evaluates the full suite grid live when omitted)
==========  ===========================================================

By default the report contains ``figures`` and ``pipelines`` plus any
section whose input file was supplied; ``--sections`` picks an
explicit subset.  Record files are the JSON exports of
``python -m repro.api --json`` and ``python -m repro.suites run --json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from html import escape
from pathlib import Path

from repro.experiments.common import MODEL_SCALE
from repro.experiments.run_all import FAST_SCALE
from repro.report import sections as S
from repro.report.palette import stylesheet
from repro.version import __version__

#: Renderable sections, in report order.
SECTIONS = ("figures", "pipelines", "sweep", "suites")


def build_parser() -> argparse.ArgumentParser:
    """The report CLI (kept separate so tooling can inspect the flags)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.report",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--out", metavar="PATH", default="report.html",
        help="write the HTML report to PATH ('-' for stdout; "
             "default report.html)",
    )
    parser.add_argument(
        "--sections", metavar="LIST",
        help=f"comma-separated subset of {','.join(SECTIONS)} (default: "
             "figures,pipelines plus any section whose input file "
             "was supplied)",
    )
    parser.add_argument(
        "--scale", type=float, default=MODEL_SCALE, metavar="X",
        help=f"cost-model scale for the live sections (default "
             f"{MODEL_SCALE:.0f}x)",
    )
    parser.add_argument(
        "--fast", action="store_true",
        help=f"shorthand for --scale {FAST_SCALE:.0f} (matches "
             "run_all --fast, so a report after a fast run replays "
             "from cache)",
    )
    parser.add_argument(
        "--seed", type=int, default=17, metavar="N",
        help="workload-generation seed for the live sections (default 17)",
    )
    parser.add_argument(
        "--sweep", metavar="RECORDS.json",
        help="sweep ResultSet records (python -m repro.api --json PATH) "
             "to render as the 'sweep' heatmap section",
    )
    parser.add_argument(
        "--suites", metavar="RECORDS.json",
        help="suite-grid records (python -m repro.suites run --json PATH) "
             "to score for the 'suites' section instead of evaluating "
             "the full grid live",
    )
    return parser


def _chosen_sections(args) -> list:
    if args.sections:
        chosen = [name.strip() for name in args.sections.split(",") if name.strip()]
        unknown = [name for name in chosen if name not in SECTIONS]
        if unknown:
            raise SystemExit(
                f"unknown sections {unknown}; choose from {', '.join(SECTIONS)}"
            )
        return [name for name in SECTIONS if name in chosen]
    chosen = ["figures", "pipelines"]
    if args.sweep:
        chosen.append("sweep")
    if args.suites:
        chosen.append("suites")
    return [name for name in SECTIONS if name in chosen]


def _load_records(path: str, flag: str) -> list:
    try:
        records = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"{flag} {path}: {exc}")
    if not isinstance(records, list) or not all(
        isinstance(r, dict) for r in records
    ):
        raise SystemExit(f"{flag} {path}: expected a JSON list of records")
    if not records:
        raise SystemExit(f"{flag} {path}: no records to render")
    return records


def _render_section(name: str, args) -> str:
    if name == "figures":
        return S.render_figures(args.scale, seed=args.seed)
    if name == "pipelines":
        return S.render_pipelines(args.scale, seed=args.seed)
    if name == "sweep":
        if not args.sweep:
            raise SystemExit("the 'sweep' section needs --sweep RECORDS.json")
        return S.render_sweep(_load_records(args.sweep, "--sweep"))
    if args.suites:
        records = _load_records(args.suites, "--suites")
    else:
        from repro.suites import SuiteRun

        records = SuiteRun().run().to_records()
    return S.render_suites(records)


def render_report(args) -> str:
    """The complete HTML document for the chosen sections."""
    body = "".join(_render_section(name, args) for name in _chosen_sections(args))
    title = "Mondrian Data Engine reproduction"
    subtitle = (
        f"repro {escape(__version__)} &middot; model scale "
        f"{args.scale:g}x &middot; seed {args.seed}"
    )
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>{escape(title)} &mdash; report</title>
<style>
{stylesheet()}</style>
</head>
<body>
<h1>{escape(title)}</h1>
<p class="sub">{subtitle}</p>
{body}</body>
</html>
"""


def main(argv=None) -> None:
    args = build_parser().parse_args(argv)
    if args.fast:
        args.scale = FAST_SCALE
    html = render_report(args)
    if args.out == "-":
        sys.stdout.write(html)
    else:
        Path(args.out).write_text(html)
        print(f"wrote report to {args.out}", file=sys.stderr)


if __name__ == "__main__":
    main()
