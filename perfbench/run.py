#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload design-sweep --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics (``catalog.END_TO_END``);
``--trace 1`` additionally runs a fixed amount of traced work and
reports the per-layer metrics (``catalog.PER_LAYER``), writing the spans
as a Chrome trace under ``.perfbench-work/``.  ``--smoke`` shrinks every
workload to a few seconds, same checks.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
a line before it records the workload's traffic properties.  The
program under test is imported from ``src/`` beside this directory; the
run exits non-zero without a result when it is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh-process set-up probes per run; ``setup_s`` reports their median.
SETUP_PROBES = 5

#: Every process of a run uses this string-hash seed: a random one per
#: process moves the simulator's host time by several percent from run
#: to run, more than the differences the benchmark must resolve.
HASH_SEED = "0"


def bootstrap() -> None:
    """Make ``src/`` importable and drop any ambient result store."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: {SRC / 'repro'} is missing; run from a checkout")
    os.environ.pop("REPRO_STORE", None)
    current = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + current if current else "")
    sys.path.insert(0, str(SRC))


def probe_setup(workload: str, probes: int, calibrator) -> list:
    """Time imports + machine construction in ``probes`` fresh processes
    (scaled to the reference host speed)."""
    times = []
    for _ in range(probes):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", workload],
            capture_output=True, text=True, timeout=120, cwd=str(ROOT),
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
        times.append(calibrator.scale(float(done.stdout.strip().splitlines()[-1])))
    return times


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("design-sweep", "query-suites", "service-mix"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a few seconds per workload, same checks and metrics")
    parser.add_argument("--setup-probe", metavar="WORKLOAD", help=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    started = time.perf_counter()
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve())]
                 + sys.argv[1:])
    args = build_parser().parse_args(argv)
    bootstrap()
    import calibrate
    import catalog
    import workloads

    if args.setup_probe:
        workloads.setup_probe(args.setup_probe)
        print(repr(time.perf_counter() - started))
        return 0
    if args.workload is None:
        raise SystemExit("perfbench: --workload is required")

    ctx = workloads.Context(args.workload, args.seed, args.seconds, bool(args.trace),
                            args.smoke, ROOT)
    ctx.work.mkdir(exist_ok=True)
    out = workloads.Outcome()
    setup = statistics.median(probe_setup(args.workload, 1 if args.smoke else SETUP_PROBES,
                                          calibrate.Calibrator()))
    if args.workload == "design-sweep":
        workloads.design_sweep(ctx, out)
    elif args.workload == "query-suites":
        workloads.query_suites(ctx, out)
    else:
        setup += statistics.median(workloads.service_mix(ctx, out, dict(os.environ)))
    out.metrics["setup_s"] = setup

    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "traffic": out.traffic, "errors": out.errors}, sort_keys=True))
    if args.trace:
        metrics = {name: {"value": float(out.layers.get(name, 0.0)), "unit": unit}
                   for name, unit, _better, _moves in catalog.PER_LAYER}
    else:
        metrics = {name: {"value": float(out.metrics[name]), "unit": unit}
                   for name, unit, _better, _bound in catalog.END_TO_END}
    print(json.dumps({"correct": out.failed == 0, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
