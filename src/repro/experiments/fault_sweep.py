"""Fault sweep: shuffle resilience under adversarial delivery schedules.

Sweeps the fault intensity (scaling straggler/drop/duplicate/timeout
probabilities together) over a skewed workload and compares the naive
one-round partitioner against the skew-aware two-round protocol.  For
every point the partitioner runs under the faulted variant, its
partitions must stay byte-identical to the fault-free run's (the sweep
checks the digests), and the schedule replayed over the outcome's
recorded pass reports the price paid: retries, duplicates discarded,
destinations degraded off the batched fast path, and the straggler
critical-path share.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from typing import Dict, List

from repro.analytics.skew import make_skewed_groupby_workload
from repro.analytics.tuples import Relation
from repro.api import format_table
from repro.faults.plan import NULL_FAULTS, FaultSpec
from repro.faults.protocol import ResilienceStats
from repro.operators.base import OperatorRun, OperatorVariant
from repro.operators.partition import (
    PartitionOutcome,
    price_faults,
    run_partitioning,
)
from repro.operators.skew import run_partitioning_skew_aware

#: Fault intensity levels; each scales every fault probability together
#: (1.0 = the full adversarial mix below).
INTENSITIES = (0.0, 0.1, 0.25, 0.5, 1.0)

#: The full-intensity fault mix (scaled by each sweep level).
FULL_MIX = {
    "straggler_prob": 0.3,
    "drop_prob": 0.4,
    "duplicate_prob": 0.2,
    "timeout_prob": 0.25,
}


#: The protocol counters each sweep point reports.
POINT_STATS = ("retries", "duplicates_discarded", "degraded_destinations",
               "timeout_rounds", "overhead_b", "straggler_share")


def fault_spec(intensity: float, seed: int) -> FaultSpec:
    """The swept :class:`FaultSpec` at one intensity level."""
    if intensity <= 0.0:
        return NULL_FAULTS
    return FaultSpec(
        seed=seed,
        **{name: prob * intensity for name, prob in FULL_MIX.items()},
    )


def partitions_digest(partitions: List[Relation]) -> str:
    """Order-sensitive digest of the materialized partition bytes."""
    h = hashlib.sha256()
    for part in partitions:
        h.update(part.name.encode("utf-8"))
        h.update(part.data.tobytes())
    return h.hexdigest()


def _point(
    outcome: PartitionOutcome, variant: OperatorVariant, baseline_digest: str
) -> Dict[str, object]:
    run = OperatorRun(
        "partition", variant.label, outcome.phases, None, passes=[outcome.record]
    )
    stats = price_faults(run, variant, 1.0).metadata.get(
        "resilience", ResilienceStats().to_metadata()
    )
    digest = partitions_digest(outcome.partitions)
    return {"identical": digest == baseline_digest, **{k: stats[k] for k in POINT_STATS}}


def run(
    n: int = 8000,
    num_partitions: int = 16,
    alpha: float = 1.2,
    capacity_factor: float = 1.5,
    seed: int = 21,
    fault_seed: int = 7,
) -> Dict[str, object]:
    variant = OperatorVariant(
        radix_bits=8, probe_algorithm="sort", permutable=True, simd=True,
        num_partitions=num_partitions,
    )
    workload = make_skewed_groupby_workload(
        n, num_partitions, alpha=alpha, num_distinct=max(256, n // 4), seed=seed
    )

    def naive(v: OperatorVariant) -> PartitionOutcome:
        return run_partitioning(workload.flat, v, "low", workload.key_space_bits)

    def skew_aware(v: OperatorVariant) -> PartitionOutcome:
        outcome, _ = run_partitioning_skew_aware(
            workload.flat, v, workload.key_space_bits,
            capacity_factor=capacity_factor,
        )
        return outcome

    partitioners = (("naive", naive), ("skew-aware", skew_aware))
    baselines = {
        name: partitions_digest(runner(variant).partitions)
        for name, runner in partitioners
    }

    rows = []
    points: Dict[str, Dict[str, object]] = {}
    for intensity in INTENSITIES:
        spec = fault_spec(intensity, fault_seed)
        for name, runner in partitioners:
            faulted = replace(variant, faults=spec)
            point = _point(runner(faulted), faulted, baselines[name])
            points[f"{intensity:g}:{name}"] = point
            rows.append(
                [
                    f"{intensity:.2f}",
                    name,
                    str(point["retries"]),
                    str(point["duplicates_discarded"]),
                    str(point["degraded_destinations"]),
                    f"{point['straggler_share']:.3f}",
                    "yes" if point["identical"] else "NO",
                ]
            )
    return {
        "points": points,
        "alpha": alpha,
        "table": format_table(
            ["Intensity", "Partitioner", "Retries", "Dups discarded",
             "Degraded dests", "Straggler share", "Output identical"],
            rows,
        ),
    }


def main() -> None:
    out = run()
    print("Shuffle resilience under seeded fault schedules "
          f"(Zipf alpha {out['alpha']})\n")
    print(out["table"])


if __name__ == "__main__":
    main()
