"""Run the complete reproduction: every table, figure and ablation.

Usage::

    python -m repro.experiments.run_all               # full paper report
    python -m repro.experiments.run_all --fast        # reduced model scale
    python -m repro.experiments.run_all --jobs 4      # sections in parallel
    python -m repro.experiments.run_all --pipelines   # query pipelines only
    python -m repro.experiments.run_all --fast --pipelines

Without flags, prints each paper artifact's table in paper order, with
the paper's values alongside where the experiment reports them.
``--jobs N`` renders independent experiment sections in a process pool;
the output is byte-identical to a sequential run (sections are collected
and printed in paper order).  ``--pipelines`` runs the multi-operator
query-pipeline suite instead (per-stage time/energy breakdowns on CPU,
NMP-perm and Mondrian).  Scenario grids and the benchmark suites have
their own front ends, ``python -m repro.api`` and
``python -m repro.suites``.  See ``docs/USAGE.md`` for the full flag
reference.
"""

from __future__ import annotations

import argparse
import functools
import time

from repro.experiments import (
    ablations,
    fault_sweep,
    fig6_probe,
    fig7_overall,
    fig8_energy,
    fig9_efficiency,
    pipeline_queries,
    sec31_activation,
    sec32_mlp,
    skew_partitioning,
    table1_operators,
    table2_phases,
    table5_partition,
)
from repro.experiments import common
from repro.experiments.common import MODEL_SCALE
from repro.telemetry import span as _span

#: Model scale used by ``--fast`` (full runs use ``MODEL_SCALE``).
FAST_SCALE = 500.0

#: Section kinds: how a module's ``run()`` output is rendered.
_UNSCALED = "unscaled"
_SCALED = "scaled"
_ABLATIONS = "ablations"

#: The paper report, in paper order: (key, title, module, kind).
SECTIONS = (
    ("table1", "Table 1: Spark operator characterization", table1_operators, _UNSCALED),
    ("table2", "Table 2: operator phases (measured)", table2_phases, _UNSCALED),
    ("sec31", "Section 3.1: activation energy share", sec31_activation, _UNSCALED),
    ("sec32", "Section 3.2: MLP-limited bandwidth", sec32_mlp, _UNSCALED),
    (
        "skew",
        "Two-round partitioning under skew (future work)",
        skew_partitioning,
        _UNSCALED,
    ),
    (
        "faults",
        "Fault injection: shuffle resilience under adversarial schedules",
        fault_sweep,
        _UNSCALED,
    ),
    ("table5", "Table 5: partition speedup vs CPU", table5_partition, _SCALED),
    ("fig6", "Figure 6: probe speedup vs CPU", fig6_probe, _SCALED),
    ("fig7", "Figure 7: overall speedup vs CPU", fig7_overall, _SCALED),
    ("fig8", "Figure 8: energy breakdown", fig8_energy, _SCALED),
    ("fig9", "Figure 9: efficiency improvement vs CPU", fig9_efficiency, _SCALED),
    (
        "ablations",
        "Ablations: SIMD width / row buffer / FR-FCFS window",
        ablations,
        _ABLATIONS,
    ),
)

_SECTION_INDEX = {key: (title, module, kind) for key, title, module, kind in SECTIONS}


def build_parser() -> argparse.ArgumentParser:
    """The run_all CLI (kept separate so tooling can inspect the flags)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.run_all", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--fast", action="store_true",
        help=f"use a reduced model scale ({FAST_SCALE:.0f}x instead of "
             f"{MODEL_SCALE:.0f}x)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="run independent experiment sections of the paper report in "
             "a pool of N worker processes; output stays in paper order "
             "and is identical to a --jobs 1 run (no effect with "
             "--pipelines, which is a single section)",
    )
    parser.add_argument(
        "--pipelines", action="store_true",
        help="run the multi-operator query-pipeline suite (per-stage "
             "time/energy breakdowns on CPU, NMP-perm and Mondrian) "
             "instead of the paper-artifact report",
    )
    parser.add_argument(
        "--store", metavar="DIR",
        help="persistent content-addressed result store directory "
             "(second cache tier below the in-memory memoization; "
             "default: $REPRO_STORE if set)",
    )
    parser.add_argument(
        "--trace", metavar="FILE",
        help="record telemetry spans (pipeline stages, shuffles, "
             "scheduler batches, worker tasks) and write them to FILE "
             "as Chrome trace_event JSON -- load it in chrome://tracing "
             "or https://ui.perfetto.dev (stdout is unaffected)",
    )
    return parser


def _banner(title: str) -> str:
    return f"\n{'=' * 72}\n{title}\n{'=' * 72}"


def render_section(key: str, scale: float) -> str:
    """One section's complete stdout text (banner included).

    Pure function of (key, scale) plus the seeded experiment modules, so
    sections can render in worker processes and still concatenate into
    the exact sequential report.
    """
    title, module, kind = _SECTION_INDEX[key]
    if kind == _UNSCALED:
        return f"{_banner(title)}\n{module.run()['table']}"
    if kind == _SCALED:
        out = module.run(scale=scale)
        text = f"{_banner(title)}\n{out['table']}"
        if "mondrian_peak" in out:
            text += f"\n\nMondrian peak: {out['mondrian_peak']:.1f}x"
        return text
    out = module.run(scale=scale)
    return (
        f"{_banner(title)}\n{out['simd_table']}\n\n"
        f"{out['row_buffer_table']}\n\n{out['window_table']}"
    )


def _section_span(key: str) -> tuple:
    return "section", "experiments", {"section": key}


def run_paper_report(scale: float, jobs: int = 1) -> None:
    """The paper-artifact report (default mode)."""
    keys = [key for key, _, _, _ in SECTIONS]
    if jobs > 1:
        render = functools.partial(render_section, scale=scale)
        for text in common.fan_out(render, keys, jobs, span=_section_span):
            print(text)
    else:
        # Print as each section completes: the report streams, and a
        # mid-report failure still leaves the finished sections visible.
        for key in keys:
            with _span("section", category="experiments", section=key):
                print(render_section(key, scale))


def run_pipeline_report(scale: float) -> None:
    """The query-pipeline suite (``--pipelines``)."""
    print(_banner("Query pipelines: per-stage breakdowns, CPU vs NMP vs Mondrian"))
    print(pipeline_queries.run(scale=scale)["table"])


def main(argv=None) -> None:
    args = build_parser().parse_args(argv)
    scale = FAST_SCALE if args.fast else MODEL_SCALE
    start = time.time()
    with common.cli_run(args):
        mode = "query-pipeline suite" if args.pipelines else "full report"
        print(f"Mondrian Data Engine reproduction -- {mode} (scale {scale:.0f}x)")
        if args.pipelines:
            run_pipeline_report(scale)
        else:
            run_paper_report(scale, jobs=args.jobs)
    print(f"\nDone in {time.time() - start:.1f}s.")


if __name__ == "__main__":
    main()
