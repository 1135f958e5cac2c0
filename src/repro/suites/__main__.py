"""Suite-subsystem CLI: ``python -m repro.suites``.

Usage::

    python -m repro.suites list                  # registry + families
    python -m repro.suites run --all --jobs 4    # full grid, process pool
    python -m repro.suites run --suite skew-hotspot --system cpu \\
        --system mondrian --json out.json        # subset grid, export
    python -m repro.suites score                 # ranked cross-suite report
    python -m repro.suites score --json report.json --weight time=0.6 \\
        --weight energy=0.4 --weight balance=0 --weight resilience=0

``run`` evaluates suites x system presets into tidy per-phase records
(the same shape ``python -m repro.api`` emits, plus ``suite`` /
``family`` / ``stage`` columns); ``score`` feeds that grid to the
layered scoring engine and prints the tiered "which architecture wins
where" report.  Both commands share the content-addressed caches and
the persistent store (``--store`` / ``$REPRO_STORE``), so a score
immediately after a run replays every point without re-simulating.
"""

from __future__ import annotations

import argparse
import sys

from repro.api.__main__ import export_result_set
from repro.api.results import format_table
from repro.experiments import common
from repro.suites.registry import FAMILIES, SUITES, get_suite
from repro.suites.runner import DEFAULT_SCALE, SuiteRun
from repro.suites.scoring import (
    DEFAULT_WEIGHTS,
    render_report,
    report_json,
    score_records,
)

#: Columns of ``run``'s human-readable summary (exports keep all).
SUMMARY_COLUMNS = ("suite", "family", "system", "stage", "phase", "time_s",
                   "energy_j")


def _add_grid_arguments(parser: argparse.ArgumentParser) -> None:
    """The grid axes ``run`` and ``score`` share."""
    parser.add_argument(
        "--suite", action="append", default=None, metavar="NAME",
        help=f"add one suite to the grid (repeatable; choices: "
             f"{', '.join(SUITES)}; default: all)",
    )
    parser.add_argument(
        "--all", action="store_true",
        help="run every registered suite (the default when no --suite is "
             "given; spelled out for scripts)",
    )
    parser.add_argument(
        "--system", action="append", default=None, metavar="NAME",
        help="add one system preset to the grid (repeatable; default: all "
             f"{len(common.ALL_SYSTEMS)} evaluated presets)",
    )
    parser.add_argument(
        "--scale", type=float, default=DEFAULT_SCALE, metavar="X",
        help=f"cost-model scale factor (default {DEFAULT_SCALE:.0f}x)",
    )
    parser.add_argument(
        "--seed", type=int, default=17, metavar="N",
        help="workload-generation seed (default 17)",
    )
    parser.add_argument(
        "--partitions", type=int, default=common.NUM_PARTITIONS, metavar="N",
        help=f"memory partitions per run (default {common.NUM_PARTITIONS})",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="evaluate grid points in a pool of N worker processes "
             "(records stay in grid order; exports are byte-identical to "
             "--jobs 1)",
    )
    parser.add_argument(
        "--store", metavar="DIR",
        help="persistent content-addressed result store: warm suite runs "
             "replay without simulation, misses are written back "
             "(default: $REPRO_STORE if set)",
    )
    parser.add_argument(
        "--trace", metavar="FILE",
        help="record telemetry spans for the grid run and write them to "
             "FILE as Chrome trace_event JSON (chrome://tracing / "
             "Perfetto); exports are byte-identical with or without "
             "tracing",
    )


def build_parser() -> argparse.ArgumentParser:
    """The suites CLI (kept separate so tooling can inspect the flags)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.suites",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="print the suite registry and its families")

    run = sub.add_parser(
        "run", help="evaluate suites x system presets into tidy records"
    )
    _add_grid_arguments(run)
    run.add_argument(
        "--json", metavar="PATH",
        help="write the records as JSON to PATH ('-' for stdout)",
    )
    run.add_argument(
        "--csv", metavar="PATH",
        help="write the records as CSV to PATH ('-' for stdout)",
    )

    score = sub.add_parser(
        "score", help="rank the systems across the suite grid"
    )
    _add_grid_arguments(score)
    score.add_argument(
        "--weight", action="append", default=None, metavar="LAYER=W",
        help="override one scoring layer's weight (repeatable; layers: "
             f"{', '.join(DEFAULT_WEIGHTS)}; weights are renormalized)",
    )
    score.add_argument(
        "--json", metavar="PATH",
        help="write the report document as JSON to PATH ('-' for stdout)",
    )
    return parser


def _build_grid(args) -> SuiteRun:
    suites = tuple(args.suite) if args.suite else tuple(SUITES)
    for name in suites:
        get_suite(name)  # fail at the CLI on a typo, not mid-grid
    systems = tuple(args.system) if args.system else common.ALL_SYSTEMS
    return SuiteRun(
        suites=suites,
        systems=systems,
        model_scale=args.scale,
        seed=args.seed,
        num_partitions=args.partitions,
    )


def _parse_weights(entries):
    if not entries:
        return None
    weights = dict(DEFAULT_WEIGHTS)
    for entry in entries:
        layer, _, value = entry.partition("=")
        if layer not in DEFAULT_WEIGHTS or not value:
            raise SystemExit(
                f"--weight expects LAYER=W with LAYER one of "
                f"{sorted(DEFAULT_WEIGHTS)}; got {entry!r}"
            )
        try:
            weights[layer] = float(value)
        except ValueError:
            raise SystemExit(f"--weight {entry!r}: {value!r} is not a number")
    return weights


def _cmd_list() -> None:
    rows = [
        [
            suite.name,
            suite.family_name,
            str(len(suite.stage_names())),
            " -> ".join(suite.stage_names()),
        ]
        for suite in SUITES.values()
    ]
    print(format_table(["suite", "family", "stages", "plan"], rows))
    print(f"\n{len(SUITES)} suites across {len(FAMILIES)} families: "
          f"{', '.join(FAMILIES)}")


def _run_grid(args) -> "tuple":
    with common.cli_run(args):
        grid = _build_grid(args)
        results = grid.run(jobs=args.jobs)
    return grid, results


def _cmd_run(args) -> None:
    grid, results = _run_grid(args)
    if export_result_set(results, args.json, args.csv):
        return
    print(f"SuiteRun: {grid.size} points -> {len(results)} records\n")
    rows = [
        [
            r["suite"],
            r["family"],
            r["system"],
            r["stage"],
            r["phase"],
            f"{r['time_s'] * 1e3:.3f} ms",
            f"{r['energy_j']:.4f} J",
        ]
        for r in results
    ]
    print(format_table(list(SUMMARY_COLUMNS), rows))


def _cmd_score(args) -> None:
    _, results = _run_grid(args)
    report = score_records(results, weights=_parse_weights(args.weight))
    if args.json:
        text = report_json(report)
        if args.json == "-":
            print(text)
        else:
            from pathlib import Path

            Path(args.json).write_text(text + "\n")
            print(f"wrote report to {args.json}", file=sys.stderr)
        return
    print(render_report(report))


def main(argv=None) -> None:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        _cmd_list()
    elif args.command == "run":
        _cmd_run(args)
    else:
        _cmd_score(args)


if __name__ == "__main__":
    main()
