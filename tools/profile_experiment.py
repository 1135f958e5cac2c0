"""Profile one experiment module under cProfile.

Usage::

    python tools/profile_experiment.py fig6            # default scale
    python tools/profile_experiment.py fig7 --scale 500
    python tools/profile_experiment.py fig6 --sort tottime --top 40
    python tools/profile_experiment.py suites --sort tottime
    python tools/profile_experiment.py sweep --sort tottime

Runs the named experiment's ``run()`` end-to-end (workload generation,
functional operator execution, performance/energy modeling) from cold
caches and prints the top functions by cumulative time -- the same view
that motivated the segmented columnar kernel layer.  ``suites`` profiles
one cold query-suites run instead: every suite on every system preset,
``jobs=1``, plus the JSON export, at seed 202 -- one rep of perfbench's
``query-suites`` workload.  ``sweep`` profiles one cold rep of
perfbench's ``design-sweep`` workload: its systems, operators and
partition counts, at its first seed, read from ``perfbench/workloads.py``.
``make profile EXPERIMENT=fig6`` is the developer entry point.

No third-party dependencies: runs anywhere the repo's Python does.
"""

from __future__ import annotations

import argparse
import cProfile
import functools
import importlib
import pstats
import sys
import time
from pathlib import Path
from typing import Callable

#: Experiment name -> module path; every module exposes ``run(scale=...)``.
EXPERIMENTS = {
    "fig6": "repro.experiments.fig6_probe",
    "fig7": "repro.experiments.fig7_overall",
    "fig8": "repro.experiments.fig8_energy",
    "fig9": "repro.experiments.fig9_efficiency",
    "table5": "repro.experiments.table5_partition",
}

#: Experiments whose ``run()`` takes no scale argument.
UNSCALED = {
    "table1": "repro.experiments.table1_operators",
    "table2": "repro.experiments.table2_phases",
    "sec31": "repro.experiments.sec31_activation",
    "sec32": "repro.experiments.sec32_mlp",
    "skew": "repro.experiments.skew_partitioning",
    "ablations": "repro.experiments.ablations",
}

#: Seed of the profiled ``suites`` run (one of perfbench's query-suites
#: seeds).
SUITES_SEED = 202


def suites_rep() -> Callable[[], object]:
    """One cold query-suites rep (every suite x preset, export
    included), set up here so its imports stay out of the profile."""
    from repro.suites.runner import SuiteRun

    run = SuiteRun(seed=SUITES_SEED)
    return lambda: run.run(jobs=1).to_json()


def sweep_rep() -> Callable[[], object]:
    """One cold design-sweep rep (every system x operator x partition
    count at the workload's first seed, export included), with the grid
    read from perfbench's workload definition."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads
    from repro.api import Sweep

    sweep = Sweep(
        systems=workloads.sweep_systems(),
        workloads=workloads.OPERATORS,
        seeds=workloads.SWEEP_SEEDS[:1],
        num_partitions=workloads.SWEEP_PARTITIONS,
    )
    return lambda: sweep.run(jobs=1).to_json()


#: Runs profiled without an experiment module: name -> set-up returning
#: the callable to profile.
RUNS = {"suites": suites_rep, "sweep": sweep_rep}


def profile_experiment(name: str, scale: float, sort: str, top: int) -> pstats.Stats:
    """Run one experiment under cProfile and print its hot-spot report."""
    from repro.experiments import common

    scaled = name in EXPERIMENTS
    if name in RUNS:
        target = RUNS[name]()
    else:
        module = importlib.import_module((EXPERIMENTS | UNSCALED)[name])
        target = functools.partial(module.run, scale=scale) if scaled else module.run
    common.clear_caches()  # profile the cold pipeline, not a cache lookup

    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    target()
    profiler.disable()
    elapsed = time.perf_counter() - start

    scale_note = f" at scale {scale:g}" if scaled else ""
    print(f"{name}{scale_note}: {elapsed:.3f} s wall\n")
    stats = pstats.Stats(profiler).sort_stats(sort)
    stats.print_stats(top)
    return stats


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS | UNSCALED | RUNS),
        help="experiment section to profile",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=500.0,
        help="model scale for the scaled figures (default: 500, the "
        "experiment tests' scale; ignored for unscaled sections)",
    )
    parser.add_argument(
        "--sort",
        default="cumulative",
        # Every key Stats.sort_stats takes: the SortKey values plus
        # their abbreviations (cumtime, tottime, ncalls, module).
        choices=sorted(pstats.Stats.sort_arg_dict_default),
        help="pstats sort key (default: cumulative)",
    )
    parser.add_argument(
        "--top", type=int, default=25, help="rows to print (default: 25)"
    )
    return parser


def main(argv=None) -> None:
    args = build_parser().parse_args(argv)
    profile_experiment(args.experiment, args.scale, args.sort, args.top)


if __name__ == "__main__":
    main()
