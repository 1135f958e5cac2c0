#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs for one workload.

Usage (from the root of the change's checkout)::

    python3 tools/perf_pairs.py --parent ../parent --workload design-sweep

or ``make perf-pairs PARENT=../parent``.  ``--parent`` is a second
checkout of the parent commit (``git clone`` or ``git archive``, not a
worktree).  Each of the ten pairs runs ``perfbench/run.py`` once in each
checkout, for ``run_seconds`` of ``BENCHMARK.json`` and with seed
``i + 1`` for pair ``i``, alternating which side runs first.  Before
the first pair it deletes every ``__pycache__`` directory under
``src/`` and ``perfbench/`` of both checkouts, so neither side starts
with bytecode the other has to compile.

For every end-to-end metric of ``BENCHMARK.json`` it prints each side's
median and quartiles and the change's wins (ties count for neither
side), then two verdicts:

- ``gain``: the change wins at least nine tenths of the pairs run (an
  incomplete pair counts as a loss) and the medians differ, in the better direction, by more than the parent's
  interquartile distance;
- ``bound``: ``worse`` when the change's median is worse than the
  parent's by more than the metric's bound, ``unresolved`` when the
  parent's own spread is wider than the bound and not every change run
  beats every parent run, else ``ok``.

The last line of output is the same summary as JSON.  The exit status
is 1 when any run failed an operation (``failed > 0``) or printed no
result.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parents[1]
PAIRS = 10

#: Trees whose bytecode caches are cleared in both checkouts.
BYTECODE_TREES = ("src", "perfbench")


def parse_result(stdout: str) -> Optional[Dict]:
    """The ``{"correct", "attempted", "failed", "metrics"}`` object on the
    last non-empty line of a ``perfbench/run.py`` run, or ``None``."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def metric(result: Optional[Dict], name: str) -> Optional[float]:
    """A metric's value from a parsed result (``{"value", "unit"}``)."""
    if result is None or name not in result["metrics"]:
        return None
    return float(result["metrics"][name]["value"])


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` (inclusive method; one value is its own
    quartiles)."""
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(
    parent: Sequence[Optional[Dict]],
    change: Sequence[Optional[Dict]],
    end_to_end: Sequence[Dict],
) -> Dict:
    """Per-metric medians, quartiles, wins and verdicts over the pairs.

    ``parent[i]`` and ``change[i]`` are the parsed results of pair
    ``i``; ``end_to_end`` is ``BENCHMARK.json``'s list of
    ``{"name", "better", "bound"}``.  A missing result, or one with
    ``failed > 0``, counts as a failed run.
    """
    runs = list(parent) + list(change)
    failed = sum(1 for r in runs if r is None or r.get("failed", 1) > 0)
    metrics = {}
    for spec in end_to_end:
        name, higher = spec["name"], spec["better"] == "higher"
        pairs = [
            (metric(p, name), metric(c, name))
            for p, c in zip(parent, change)
            if metric(p, name) is not None and metric(c, name) is not None
        ]
        if not pairs:
            continue
        ps = [p for p, _ in pairs]
        cs = [c for _, c in pairs]
        pq, cq = quartiles(ps), quartiles(cs)
        sign = 1.0 if higher else -1.0
        wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
        gain = (
            wins >= 0.9 * len(parent)
            and sign * (cq[1] - pq[1]) > pq[2] - pq[0]
        )
        worse_by = -sign * (cq[1] - pq[1]) / abs(pq[1]) if pq[1] else 0.0
        if worse_by > spec["bound"]:
            bound = "worse"
        elif (pq[2] - pq[0]) / abs(pq[1] or 1.0) > spec["bound"] and not (
            min(sign * c for c in cs) > max(sign * p for p in ps)
        ):
            bound = "unresolved"
        else:
            bound = "ok"
        metrics[name] = {
            "parent": pq,
            "change": cq,
            "wins": wins,
            "pairs": len(pairs),
            "change_pct": 100.0 * (cq[1] - pq[1]) / pq[1] if pq[1] else 0.0,
            "gain": gain,
            "bound": bound,
        }
    return {"runs": len(runs), "failed_runs": failed, "metrics": metrics}


def format_table(summary: Dict) -> str:
    rows = [
        f"{'metric':<18} {'parent q1/med/q3':>28} {'change q1/med/q3':>28} "
        f"{'change':>8} {'wins':>6}  gain   bound"
    ]
    for name, m in summary["metrics"].items():
        p = "/".join(f"{v:.4g}" for v in m["parent"])
        c = "/".join(f"{v:.4g}" for v in m["change"])
        rows.append(
            f"{name:<18} {p:>28} {c:>28} {m['change_pct']:>+7.1f}% "
            f"{m['wins']:>3}/{m['pairs']:<2}  {str(m['gain']):<6} {m['bound']}"
        )
    rows.append(f"failed runs: {summary['failed_runs']} of {summary['runs']}")
    return "\n".join(rows)


def clear_bytecode(checkout: Path) -> int:
    """Delete every ``__pycache__`` under the checkout's
    :data:`BYTECODE_TREES`; returns how many directories went.

    ``setup_s`` times fresh interpreters importing the package, and one
    that finds cached bytecode skips compiling: a cache on one side
    only reads as a set-up gain or loss the change never made.
    """
    caches = [
        cache
        for tree in BYTECODE_TREES
        for cache in (checkout / tree).rglob("__pycache__")
    ]
    for cache in caches:
        shutil.rmtree(cache)
    return len(caches)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> Optional[Dict]:
    """One ``perfbench/run.py`` run in ``checkout``; its parsed result."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    return parse_result(done.stdout)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path,
                        help="checkout of the parent commit")
    parser.add_argument("--workload", required=True,
                        help="benchmark workload (see BENCHMARK.json)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    results: Dict[str, List[Optional[Dict]]] = {"parent": [], "change": []}
    for checkout in sides.values():
        clear_bytecode(checkout)
    for i in range(PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(
                sides[side], args.workload, i + 1, bench["run_seconds"]
            )
            results[side].append(result)
            values = (
                {name: metric(result, name) for name in result["metrics"]}
                if result else "no result"
            )
            print(f"pair {i + 1} {side}: {json.dumps(values)}", flush=True)
    summary = summarize(results["parent"], results["change"], bench["end_to_end"])
    summary["workload"] = args.workload
    print(format_table(summary))
    print(json.dumps(summary))
    return 1 if summary["failed_runs"] else 0


if __name__ == "__main__":
    sys.exit(main())
