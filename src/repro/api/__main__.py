"""Command-line sweep runner: ``python -m repro.api``.

Usage::

    python -m repro.api --sweep SPEC.json                # grid from a file
    python -m repro.api --sweep SPEC.json --jobs 4       # process pool
    python -m repro.api --sweep SPEC.json --json out.json --csv out.csv
    python -m repro.api --system mondrian --system cpu \\
        --workload join --scale 500                      # inline 2x1 grid

``SPEC.json`` holds a :class:`~repro.api.sweep.Sweep` grid::

    {
      "systems": ["cpu", {"base": "mondrian", "num_cores": 32,
                          "topology": "star"}],
      "workloads": ["scan", "join"],
      "scales": [500.0],
      "seeds": [17],
      "num_partitions": [64]
    }

Systems are preset names or SystemSpec override dicts.  Without
``--json``/``--csv`` the records print as a fixed-width summary table;
``--json -`` / ``--csv -`` write the export to stdout instead.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from repro.api.results import format_table
from repro.api.spec import as_spec
from repro.api.sweep import Sweep
from repro.experiments import common
from repro.faults.plan import FaultSpec

#: Columns of the human-readable summary table (full records keep more).
SUMMARY_COLUMNS = (
    "system",
    "workload",
    "phase",
    "scale",
    "time_s",
    "energy_j",
)


def build_parser() -> argparse.ArgumentParser:
    """The sweep CLI (kept separate so tooling can inspect the flags)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.api",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--sweep", metavar="SPEC.json",
        help="run the sweep grid described by this JSON file",
    )
    parser.add_argument(
        "--system", action="append", default=None, metavar="NAME",
        help="inline grid: add a system preset (repeatable; ignored with "
             "--sweep)",
    )
    parser.add_argument(
        "--workload", action="append", default=None, metavar="NAME",
        help="inline grid: add an operator or canonical query (repeatable)",
    )
    parser.add_argument(
        "--scale", type=float, action="append", default=None, metavar="X",
        help=f"inline grid: add a model scale (default "
             f"{common.MODEL_SCALE:.0f}x; repeatable)",
    )
    parser.add_argument(
        "--seed", type=int, action="append", default=None, metavar="N",
        help="inline grid: add a workload seed (default 17; repeatable)",
    )
    parser.add_argument(
        "--partitions", type=int, action="append", default=None, metavar="N",
        help=f"inline grid: add a partition count (default "
             f"{common.NUM_PARTITIONS}; repeatable)",
    )
    parser.add_argument(
        "--faults", metavar="JSON",
        help="inject a deterministic shuffle fault schedule into every "
             "system of the grid: a JSON dict of FaultSpec overrides, "
             "e.g. '{\"seed\": 7, \"drop_prob\": 0.2}' (functional "
             "outputs stay byte-identical; records gain resilience "
             "columns)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="evaluate scenarios in a pool of N worker processes "
             "(records stay in grid order; exports are byte-identical "
             "to --jobs 1)",
    )
    parser.add_argument(
        "--store", metavar="DIR",
        help="persistent content-addressed result store directory: warm "
             "entries replay without simulation, evaluated misses are "
             "written back (default: $REPRO_STORE if set); store stats "
             "print to stderr after the run",
    )
    parser.add_argument(
        "--json", metavar="PATH",
        help="write the ResultSet as JSON records to PATH ('-' for stdout)",
    )
    parser.add_argument(
        "--csv", metavar="PATH",
        help="write the ResultSet as CSV to PATH ('-' for stdout)",
    )
    parser.add_argument(
        "--trace", metavar="FILE",
        help="record telemetry spans for the sweep and write them to "
             "FILE as Chrome trace_event JSON (chrome://tracing / "
             "Perfetto); exports are byte-identical with or without "
             "tracing",
    )
    return parser


def export_result_set(results, json_path=None, csv_path=None) -> bool:
    """Write the requested exports (``'-'`` = stdout); True if any.

    Shared by this CLI and ``python -m repro.service submit`` so the
    two front ends cannot drift.
    """
    exported = False
    if json_path:
        text = results.to_json()
        if json_path == "-":
            print(text)
        else:
            Path(json_path).write_text(text + "\n")
            print(f"wrote {len(results)} records to {json_path}", file=sys.stderr)
        exported = True
    if csv_path:
        text = results.to_csv()
        if csv_path == "-":
            sys.stdout.write(text)
        else:
            Path(csv_path).write_text(text)
            print(f"wrote {len(results)} records to {csv_path}", file=sys.stderr)
        exported = True
    return exported


def print_summary_table(results) -> None:
    """The human-readable fixed-width summary (no-export default)."""
    rows = [
        [
            r["system"],
            r["workload"],
            (f"{r['stage']}/" if r.get("stage") else "") + r["phase"],
            f"{r['scale']:.0f}x",
            f"{r['time_s'] * 1e3:.3f} ms",
            f"{r['energy_j']:.4f} J",
        ]
        for r in results
    ]
    print(format_table(list(SUMMARY_COLUMNS), rows))


def _build_sweep(args) -> Sweep:
    if args.sweep:
        return Sweep.from_json(Path(args.sweep).read_text())
    grid = {}
    if args.system:
        grid["systems"] = tuple(args.system)
    if args.workload:
        grid["workloads"] = tuple(args.workload)
    if args.scale:
        grid["scales"] = tuple(args.scale)
    if args.seed:
        grid["seeds"] = tuple(args.seed)
    if args.partitions:
        grid["num_partitions"] = tuple(args.partitions)
    if not grid:
        raise SystemExit(
            "nothing to run: pass --sweep SPEC.json or at least one inline "
            "axis (--system/--workload/...)"
        )
    return Sweep(**grid)


def _with_faults(sweep: Sweep, faults_json: str) -> Sweep:
    """Apply ``--faults`` overrides to every system of the grid."""
    try:
        overrides = json.loads(faults_json)
    except json.JSONDecodeError as exc:
        raise SystemExit(f"--faults is not valid JSON: {exc}")
    if not isinstance(overrides, dict):
        raise SystemExit("--faults must be a JSON object of FaultSpec fields")
    try:
        # Validate field names and values up front (fail at the CLI, not
        # mid-sweep): FaultSpec's own __post_init__ checks the values.
        FaultSpec().with_overrides(**overrides)
        systems = tuple(
            as_spec(s).with_faults(**overrides) for s in sweep.systems
        )
        return replace(sweep, systems=systems)
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"--faults: {exc}")


def main(argv=None) -> None:
    args = build_parser().parse_args(argv)
    with common.cli_run(args):
        sweep = _build_sweep(args)
        if args.faults:
            sweep = _with_faults(sweep, args.faults)
        results = sweep.run(jobs=args.jobs)

    if not export_result_set(results, args.json, args.csv):
        print(f"Sweep: {sweep.size} scenarios -> {len(results)} records\n")
        print_summary_table(results)


if __name__ == "__main__":
    main()
