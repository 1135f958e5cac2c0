"""Human-readable pipeline reports: per-stage breakdowns + comparisons.

Formatting lives here (not on :class:`~repro.pipeline.perf.PipelinePerf`)
so the perf aggregates stay plain data and experiments/examples share one
table style with the rest of the repo
(:func:`repro.api.results.format_table`).
"""

from __future__ import annotations

from typing import Dict, List

from repro.api.results import format_table
from repro.pipeline.perf import PipelinePerf, pipeline_speedup


def stage_breakdown_table(perf: PipelinePerf) -> str:
    """Per-stage time/energy table for one (pipeline, machine) pair."""
    fractions = perf.time_fractions()
    rows: List[List[str]] = []
    for s in perf.stages:
        rows.append(
            [
                s.stage,
                s.operator,
                f"{s.runtime_s * 1e3:.3f}",
                f"{fractions[s.stage] * 100:.1f}%",
                f"{s.energy_j:.4f}",
                s.dominant_limit,
            ]
        )
    rows.append(
        [
            "TOTAL",
            "",
            f"{perf.runtime_s * 1e3:.3f}",
            "100.0%",
            f"{perf.energy_j:.4f}",
            "",
        ]
    )
    return format_table(
        ["Stage", "Operator", "Time (ms)", "Share", "Energy (J)", "Paced by"], rows
    )


def bottleneck_report(perf: PipelinePerf) -> str:
    """One line naming the pipeline's pacing stage and resource."""
    b = perf.bottleneck()
    share = perf.time_fractions()[b.stage]
    return (
        f"{perf.system}/{perf.plan}: bottleneck is {b.stage} "
        f"({b.operator}) at {share * 100:.0f}% of runtime, paced by "
        f"{b.dominant_limit}"
    )


def comparison_table(perfs: Dict[str, PipelinePerf], baseline: str = "cpu") -> str:
    """Cross-machine totals for one pipeline, with speedups vs a baseline.

    ``perfs`` maps system name -> PipelinePerf of the *same* plan.
    """
    if baseline not in perfs:
        raise KeyError(f"baseline {baseline!r} not among {sorted(perfs)}")
    base = perfs[baseline]
    rows = []
    for name, perf in perfs.items():
        rows.append(
            [
                name,
                f"{perf.runtime_s * 1e3:.3f}",
                f"{perf.energy_j:.4f}",
                f"{pipeline_speedup(base, perf):.1f}x",
                perf.bottleneck().stage,
            ]
        )
    return format_table(
        ["System", "Time (ms)", "Energy (J)", "Speedup", "Bottleneck"], rows
    )
