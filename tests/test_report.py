"""Report-generator tests: sections, charts, CLI, determinism.

The report is a pure function of its inputs (experiment outputs at a
given scale/seed, records files), so two invocations must produce
byte-identical HTML.  Charts are checked
structurally -- well-formed SVG, the right number of marks, legends for
multi-series charts, a table view beside every chart.
"""

import json
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from repro.report import (
    render_figures,
    render_pipelines,
    render_suites,
    render_sweep,
)
from repro.report.__main__ import SECTIONS, build_parser, render_report
from repro.report.charts import grouped_bars, heatmap, html_table

ROOT = Path(__file__).resolve().parents[1]
SWEEP_RECORDS = json.loads((ROOT / "tests/data/sweep_smoke_golden.json").read_text())
SUITE_RECORDS = json.loads((ROOT / "tests/data/suites_smoke_golden.json").read_text())


def _svgs(html: str):
    blocks = re.findall(r"<svg.*?</svg>", html, re.DOTALL)
    return [ET.fromstring(block) for block in blocks]


class TestCharts:
    def test_grouped_bars_structure(self):
        values = {"a": {"s1": 1.0, "s2": 2.0}, "b": {"s1": 3.0, "s2": 4.0}}
        svg = ET.fromstring(
            grouped_bars(["a", "b"], ["s1", "s2"], lambda g, s: values[g][s],
                         unit="x")
        )
        bars = [el for el in svg.iter() if el.tag == "path"]
        assert len(bars) == 4
        fills = {el.get("fill") for el in bars}
        assert fills == {"var(--series-1)", "var(--series-2)"}
        labels = [el.text for el in svg.iter() if el.tag == "text"]
        assert "4x" in labels  # the peak (and only the peak) is labeled

    def test_heatmap_is_sequential_with_value_labels(self):
        values = {("r1", "c1"): 1.0, ("r1", "c2"): 2.0,
                  ("r2", "c1"): 3.0, ("r2", "c2"): 4.0}
        svg = ET.fromstring(heatmap(["r1", "r2"], ["c1", "c2"], values))
        cells = [el for el in svg.iter() if el.tag == "rect"]
        assert len(cells) == 4
        assert all(el.get("fill").startswith("#") for el in cells)
        texts = [el.text for el in svg.iter() if el.tag == "text"]
        for value in ("1", "2", "3", "4"):
            assert value in texts  # every cell carries its number

    def test_html_table_escapes_and_marks_winners(self):
        table = html_table(["A"], [["<b>raw</b>"]], winners={(0, 0)})
        assert "&lt;b&gt;raw&lt;/b&gt;" in table and 'class="win"' in table


class TestSections:
    def test_figures_section(self):
        html = render_figures(50.0)
        assert '<section id="figures"' in html
        for figure in ("Figure 6", "Figure 7", "Figure 8", "Figure 9"):
            assert figure in html
        svgs = _svgs(html)
        assert len(svgs) == 4
        assert html.count("<table>") == 4  # every chart has its table view
        assert html.count('class="legend"') == 4

    def test_pipelines_section_names_bottlenecks(self):
        html = render_pipelines(50.0)
        assert '<section id="pipelines"' in html
        assert "bottleneck:" in html and "-bound)" in html
        assert _svgs(html)

    def test_sweep_section(self):
        html = render_sweep(SWEEP_RECORDS)
        assert '<section id="sweep"' in html
        svg = _svgs(html)[0]
        cells = [el for el in svg.iter() if el.tag == "rect"]
        assert len(cells) == 4  # 2 systems x 2 workloads

    def test_suites_section_tiers_and_winners(self):
        html = render_suites(SUITE_RECORDS)
        assert '<section id="suites"' in html
        assert "Per-suite tiers" in html and "Family winners" in html
        assert "A *" in html  # each suite's winner is tier A, starred


class TestCli:
    def test_parser_flags(self):
        flags = {
            opt for action in build_parser()._actions
            for opt in action.option_strings
        }
        assert {"--out", "--sections", "--scale", "--fast", "--seed",
                "--sweep", "--suites"} <= flags

    def test_unknown_section_rejected(self, tmp_path):
        from repro.report.__main__ import main

        with pytest.raises(SystemExit, match="unknown sections"):
            main(["--out", str(tmp_path / "r.html"), "--sections", "nope"])

    def test_sweep_section_requires_records(self, tmp_path):
        from repro.report.__main__ import main

        with pytest.raises(SystemExit, match="--sweep"):
            main(["--out", str(tmp_path / "r.html"), "--sections", "sweep"])

    def test_report_is_deterministic_and_self_contained(self, tmp_path):
        args = build_parser().parse_args([
            "--out", "-", "--sections", "sweep,suites",
            "--sweep", str(ROOT / "tests/data/sweep_smoke_golden.json"),
            "--suites", str(ROOT / "tests/data/suites_smoke_golden.json"),
        ])
        first, second = render_report(args), render_report(args)
        assert first == second  # byte-identical on re-render
        assert first.startswith("<!DOCTYPE html>")
        # Self-contained: no external scripts, stylesheets or images.
        for marker in ("<script", "<link", "<img", "http://", "https://"):
            assert marker not in first.replace("https://ui.perfetto.dev", "")
        # Both themes ship in one file.
        assert "prefers-color-scheme: dark" in first
        assert '[data-theme="dark"]' in first

    def test_main_writes_file(self, tmp_path, capsys):
        from repro.report.__main__ import main

        out = tmp_path / "report.html"
        main(["--out", str(out), "--sections", "sweep",
              "--sweep", str(ROOT / "tests/data/sweep_smoke_golden.json")])
        assert out.is_file()
        assert '<section id="sweep"' in out.read_text()
        assert "wrote report to" in capsys.readouterr().err

    def test_sections_constant_is_complete(self):
        assert SECTIONS == ("figures", "pipelines", "sweep", "suites")
