"""Profile one experiment module under cProfile.

Usage::

    python tools/profile_experiment.py fig6            # default scale
    python tools/profile_experiment.py fig7 --scale 500
    python tools/profile_experiment.py fig6 --sort tottime --top 40

Runs the named experiment's ``run()`` end-to-end (workload generation,
functional operator execution, performance/energy modeling) from cold
caches and prints the top functions by cumulative time -- the same view
that motivated the segmented columnar kernel layer.  ``make profile
EXPERIMENT=fig6`` is the developer entry point.

No third-party dependencies: runs anywhere the repo's Python does.
"""

from __future__ import annotations

import argparse
import cProfile
import importlib
import pstats
import time

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


def profile_experiment(name: str, scale: float, sort: str, top: int) -> pstats.Stats:
    """Run one experiment under cProfile and print its hot-spot report."""
    from repro.experiments import common

    scaled = name in EXPERIMENTS
    module = importlib.import_module((EXPERIMENTS | UNSCALED)[name])
    common.clear_caches()  # profile the cold pipeline, not a cache lookup

    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    if scaled:
        module.run(scale=scale)
    else:
        module.run()
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
        choices=sorted(EXPERIMENTS | UNSCALED),
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
        choices=["cumulative", "tottime", "ncalls"],
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
