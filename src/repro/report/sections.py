"""Report sections: real experiment data -> chart cards + table views.

Each ``render_*`` function returns one ``<section>`` of HTML.  The data
comes from the same experiment modules the terminal report uses
(``fig6_probe`` ... ``fig9_efficiency``, ``pipeline_queries``, the suite
scorer), so a chart can never drift from the printed tables -- both are
projections of the same ``run()`` outputs, and the shared caches mean a
report generated after ``run_all`` replays without re-simulating.

Every chart ships with its table view (the accessibility fallback and
the exact numbers), and series identity is carried by a legend plus the
fixed categorical slot order -- never by color alone.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.report.charts import (
    chart_block,
    grouped_bars,
    heatmap,
    html_table,
    stacked_hbars,
)

#: Display names for the system/series tokens the experiments use.
DISPLAY = {
    "cpu": "CPU",
    "nmp": "NMP",
    "nmp-rand": "NMP-rand",
    "nmp-seq": "NMP-seq",
    "nmp-perm": "NMP-perm",
    "mondrian": "Mondrian",
}


def _display(token: str) -> str:
    return DISPLAY.get(token, token)


def _legend(names: Sequence[str]) -> List[Tuple[str, str]]:
    """Series names -> (label, slot color) pairs, in fixed slot order."""
    return [
        (_display(name), f"var(--series-{i + 1})")
        for i, name in enumerate(names)
    ]


def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:.2f}"


def _speedup_chart(title: str, note: str, speedups: Dict, series) -> str:
    operators = list(speedups)
    svg = grouped_bars(
        operators, list(series), lambda g, s: speedups[g][s], unit="x"
    )
    table = html_table(
        ["Operator"] + [_display(s) for s in series],
        [
            [op] + [f"{speedups[op][s]:.1f}x" for s in series]
            for op in operators
        ],
    )
    return chart_block(title, note, _legend(series), svg + table)


def render_figures(scale: float, seed: int = 17) -> str:
    """Figures 6-9: the paper's headline charts from live model runs."""
    from repro.experiments import fig6_probe, fig7_overall, fig8_energy, fig9_efficiency

    fig6 = fig6_probe.run(scale=scale, seed=seed)
    fig7 = fig7_overall.run(scale=scale, seed=seed)
    fig8 = fig8_energy.run(scale=scale, seed=seed)
    fig9 = fig9_efficiency.run(scale=scale, seed=seed)

    parts = ['<section id="figures"><h2>Paper figures (6&ndash;9)</h2>']
    parts.append(_speedup_chart(
        "Figure 6: probe-phase speedup vs CPU",
        f"Per-operator probe speedup over the CPU baseline at {scale:.0f}x "
        "model scale.",
        fig6["speedups"], fig6_probe.SYSTEMS,
    ))
    parts.append(_speedup_chart(
        "Figure 7: overall speedup vs CPU",
        "End-to-end (partition + probe) speedup; the paper reports "
        "Mondrian peaks up to 49x.",
        fig7["speedups"], fig7_overall.SERIES,
    ))

    components = fig8_energy.COMPONENTS
    component_names = ("DRAM dynamic", "DRAM static", "Cores", "SerDes+NOC")
    rows = [
        (
            _display(system),
            [fig8["fractions"][system][c] for c in components],
            f"{fig8['totals_j'][system]:.3f} J",
        )
        for system in fig8_energy.SYSTEMS
    ]
    fig8_table = html_table(
        ["System"] + list(component_names) + ["Total"],
        [
            [_display(system)]
            + [f"{fig8['fractions'][system][c] * 100:.1f}%" for c in components]
            + [f"{fig8['totals_j'][system]:.3f} J"]
            for system in fig8_energy.SYSTEMS
        ],
    )
    parts.append(chart_block(
        "Figure 8: energy breakdown",
        "Share of total energy per component, all four operators "
        "combined; bar ends carry absolute totals.",
        _legend(component_names),
        stacked_hbars(rows) + fig8_table,
    ))

    parts.append(_speedup_chart(
        "Figure 9: efficiency improvement vs CPU",
        "Performance per watt relative to the CPU baseline "
        "(paper: Mondrian up to 28x).",
        fig9["improvements"], fig9_efficiency.SERIES,
    ))
    parts.append("</section>")
    return "".join(parts)


def render_pipelines(scale: float, seed: int = 17) -> str:
    """Per-stage bottleneck breakdowns for the canonical query pipelines."""
    from repro.experiments import pipeline_queries

    out = pipeline_queries.run(scale=scale, seed=seed)
    parts = [
        '<section id="pipelines">'
        "<h2>Query pipelines: per-stage bottlenecks</h2>"
    ]
    for query, series in out["perfs"].items():
        stages = [s.stage for s in next(iter(series.values())).stages]
        rows = []
        annotate = {}
        for system in pipeline_queries.SYSTEMS:
            perf = series[system]
            fractions = perf.time_fractions()
            bottleneck = perf.bottleneck()
            rows.append((
                _display(system),
                [fractions[stage] for stage in stages],
                f"{_ms(perf.runtime_s)} ms",
            ))
            annotate[_display(system)] = (
                f"(bottleneck: {bottleneck.stage}, "
                f"{bottleneck.dominant_limit}-bound)"
            )
        table = html_table(
            ["System"] + stages + ["Total", "Speedup vs CPU"],
            [
                [_display(system)]
                + [
                    f"{series[system].time_fractions()[stage] * 100:.1f}%"
                    for stage in stages
                ]
                + [
                    f"{_ms(series[system].runtime_s)} ms",
                    f"{out['speedups'][query][system]:.1f}x",
                ]
                for system in pipeline_queries.SYSTEMS
            ],
        )
        parts.append(chart_block(
            f"Pipeline: {query}",
            "Share of end-to-end runtime per stage; the right-hand note "
            "names each machine's bottleneck stage and its dominant "
            "resource limit.",
            _legend(stages),
            stacked_hbars(rows, annotate=annotate) + table,
        ))
    parts.append("</section>")
    return "".join(parts)


def render_sweep(records: List[dict]) -> str:
    """A sweep ResultSet (tidy records JSON) as a time heatmap."""
    totals: Dict[Tuple[str, str], float] = {}
    for record in records:
        key = (record["system"], record["workload"])
        totals[key] = totals.get(key, 0.0) + record["time_s"]
    systems = sorted({s for s, _ in totals})
    workloads = sorted({w for _, w in totals})
    svg = heatmap(systems, workloads, totals, fmt=lambda v: f"{_ms(v)} ms")
    table = html_table(
        ["System"] + workloads,
        [
            [system] + [f"{_ms(totals[(system, w)])} ms" for w in workloads]
            for system in systems
        ],
    )
    return (
        '<section id="sweep"><h2>Scenario sweep</h2>'
        + chart_block(
            "Total modeled time per grid point",
            f"{len(records)} records; darker cells are slower "
            "(single-hue magnitude ramp, identical in both modes).",
            [],
            svg + table,
        )
        + "</section>"
    )


def render_suites(records: List[dict]) -> str:
    """The suite grid's ranked cross-suite score report as tier tables."""
    from repro.suites.scoring import score_records

    report = score_records(records)
    parts = ['<section id="suites"><h2>Benchmark suites</h2>']

    ranking = report["ranking"]
    svg = grouped_bars(
        [entry["system"] for entry in ranking],
        ["score"],
        lambda system, _s: next(
            e["score"] for e in ranking if e["system"] == system
        ),
    )
    rank_table = html_table(
        ["Rank", "System", "Score"],
        [
            [str(i + 1), entry["system"], f"{entry['score']:.3f}"]
            for i, entry in enumerate(ranking)
        ],
    )
    parts.append(chart_block(
        "Cross-suite ranking",
        "Weighted composite score across every suite (higher is "
        "better); weights cover time, energy, balance and resilience "
        "layers.",
        [],
        svg + rank_table,
    ))

    suite_rows = []
    winners = set()
    for suite, entry in sorted(report["suites"].items()):
        for system in sorted(entry["systems"]):
            cell = entry["systems"][system]
            row_index = len(suite_rows)
            suite_rows.append([
                suite,
                entry["family"],
                system,
                f"{cell['time_s'] * 1e3:.3f} ms",
                f"{cell['energy_j']:.4f} J",
                f"{cell['composite']:.3f}",
                cell["tier"] + (" *" if system == entry["winner"] else ""),
            ])
            if system == entry["winner"]:
                winners.add((row_index, 6))
    parts.append("<h3>Per-suite tiers</h3>")
    parts.append(html_table(
        ["Suite", "Family", "System", "Time", "Energy", "Composite", "Tier"],
        suite_rows,
        numeric_from=3,
        winners=winners,
    ))
    parts.append(
        '<p class="sub">Tier A: within 90% of the suite winner\'s '
        "composite; tier B: within 65%; * marks the winner.</p>"
    )

    parts.append("<h3>Family winners</h3>")
    parts.append(html_table(
        ["Family", "Winner", "Mean composite per system"],
        [
            [
                family,
                entry["winner"],
                ", ".join(
                    f"{system} {mean:.3f}"
                    for system, mean in sorted(entry["mean_composite"].items())
                ),
            ]
            for family, entry in sorted(report["families"].items())
        ],
    ))
    parts.append("</section>")
    return "".join(parts)

