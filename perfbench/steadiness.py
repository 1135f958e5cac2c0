#!/usr/bin/env python3
"""Run a workload once per seed and report each metric's spread.

The spread is the distance between the first and third quartile of a
metric's values (``statistics.quantiles(values, n=4)``) as a share of
their median, next to the metric's bound from ``catalog.END_TO_END``::

    python3 perfbench/steadiness.py --workload design-sweep --seeds 1-10

Exits non-zero when a run fails or reports ``correct: false``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import catalog

RUN = Path(__file__).resolve().parent / "run.py"


def seed_range(text: str) -> list:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", default="15")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args(argv)

    values = {}
    for seed in args.seeds:
        started = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, timeout=900, cwd=str(RUN.parents[1]),
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(done.stderr[-2000:], file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        print(f"seed {seed}: {time.perf_counter() - started:5.1f}s "
              f"correct={result['correct']} attempted={result['attempted']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)
        if not result["correct"]:
            print(lines[-2] if len(lines) > 1 else "", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    bounds = {name: bound for name, _unit, _better, bound in catalog.END_TO_END}
    for name, series in values.items():
        mid = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / mid if mid else float("nan")
        bound = bounds.get(name)
        note = f"bound {bound:.2f}, a third {bound / 3:.3f}" if bound else ""
        print(f"{name:<28} median {mid:12.4f}  spread {spread:6.3f}  {note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
