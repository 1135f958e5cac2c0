"""Skew sweep: two-round partitioning vs naive hashing (future work of
paper section 5.4, implemented).

Sweeps the Zipf skew parameter and reports, for each point, the
partition imbalance of naive one-round hashing vs the skew-aware
two-round protocol, whether the overflow exception fired, and the extra
cost the retry charged.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.analytics.skew import make_skewed_groupby_workload, partition_imbalance
from repro.api import format_table
from repro.operators.base import OperatorVariant
from repro.operators.partition import destination_map
from repro.operators.skew import run_partitioning_skew_aware

ALPHAS = (0.0, 0.6, 1.0, 1.4, 1.8)


def run(
    n: int = 8000,
    num_partitions: int = 16,
    capacity_factor: float = 1.5,
    seed: int = 21,
) -> Dict[str, object]:
    variant = OperatorVariant(
        radix_bits=8, probe_algorithm="sort", permutable=True, simd=True,
        num_partitions=num_partitions,
    )
    rows = []
    points = {}
    for alpha in ALPHAS:
        workload = make_skewed_groupby_workload(
            n, num_partitions, alpha=alpha, num_distinct=max(256, n // 4), seed=seed
        )
        dests = destination_map(workload.flat, variant, "low", workload.key_space_bits)
        naive_imb = partition_imbalance(np.bincount(dests, minlength=num_partitions))

        outcome, plan = run_partitioning_skew_aware(
            workload.flat, variant, workload.key_space_bits,
            capacity_factor=capacity_factor,
        )
        final_imb = partition_imbalance([len(p) for p in outcome.partitions])
        retried = any(p.name == "rebalance" for p in outcome.phases)
        points[alpha] = {
            "naive_imbalance": naive_imb,
            "final_imbalance": final_imb,
            "retried": retried,
            "split_buckets": len(plan.split_buckets),
        }
        rows.append(
            [
                f"{alpha:.1f}",
                f"{naive_imb:.2f}x",
                "yes" if retried else "no",
                f"{final_imb:.2f}x",
                str(len(plan.split_buckets)),
            ]
        )
    return {
        "points": points,
        "capacity_factor": capacity_factor,
        "table": format_table(
            ["Zipf alpha", "Naive imbalance", "Retry fired", "Final imbalance",
             "Split buckets"],
            rows,
        ),
    }


def main() -> None:
    out = run()
    print("Two-round partitioning under key skew "
          f"(capacity {out['capacity_factor']}x fair share)\n")
    print(out["table"])


if __name__ == "__main__":
    main()
