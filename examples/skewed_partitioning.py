#!/usr/bin/env python3
"""Handling skewed datasets with two-round partitioning.

The paper (section 5.4) defers skew to future work, sketching the
mechanism: a vault that would overflow its destination buffer raises an
exception, and the CPU retries "with a second round of partitioning in
order to balance the resulting partitions' sizes".  This example runs
that protocol end to end:

1. generate a Zipf-skewed Group-by workload (a few hot keys hold much of
   the data);
2. show naive one-round hash partitioning blowing through the
   destination-buffer budget (the PartitionOverflowError fires during
   shuffle_begin, before any data moves);
3. run the skew-aware path: the supervisor re-plans from the global
   histogram (greedy LPT packing, hot buckets split across vaults) and
   the shuffle completes within budget;
4. verify no tuples were lost and every partition fits its buffer.

Run:  python examples/skewed_partitioning.py
"""

import numpy as np

from repro.analytics import make_skewed_groupby_workload, partition_imbalance
from repro.operators import (
    OperatorVariant,
    PartitionOverflowError,
    run_partitioning_skew_aware,
)
from repro.operators.partition import destination_map
from repro.operators.skew import check_overflow

PARTITIONS = 16
CAPACITY_FACTOR = 1.5  # destination buffers hold 1.5x the fair share
N = 12_000
ALPHA = 1.5


def main() -> None:
    workload = make_skewed_groupby_workload(
        N, PARTITIONS, alpha=ALPHA, num_distinct=N // 8, seed=11
    )
    variant = OperatorVariant(
        radix_bits=8, probe_algorithm="sort", permutable=True, simd=True,
        num_partitions=PARTITIONS,
    )
    capacity = int(np.ceil(N / PARTITIONS * CAPACITY_FACTOR))
    print(f"{N} tuples, Zipf(alpha={ALPHA}) keys, {PARTITIONS} vaults, "
          f"buffers hold {capacity} tuples each\n")

    # Naive round one: histogram the hash destinations of all tuples.
    dests = destination_map(workload.flat, variant, "low", workload.key_space_bits)
    inbound = np.bincount(dests, minlength=PARTITIONS)
    print(f"naive hash shuffle: max/mean imbalance "
          f"{partition_imbalance(inbound):.2f}x, hottest vault gets "
          f"{int(inbound.max())} tuples")

    try:
        check_overflow(inbound, capacity)
        print("  -> fits; no retry needed")
    except PartitionOverflowError as err:
        print(f"  -> OVERFLOW: {err}\n")

    outcome, plan = run_partitioning_skew_aware(
        workload.flat, variant, workload.key_space_bits,
        capacity_factor=CAPACITY_FACTOR,
    )
    sizes = [len(p) for p in outcome.partitions]
    print("after the two-round retry:")
    print(f"  imbalance {plan.imbalance_before:.2f}x -> {plan.imbalance_after:.2f}x")
    print(f"  hot buckets split across vaults: {len(plan.split_buckets)}")
    print(f"  largest partition: {max(sizes)} tuples (budget {capacity})")
    assert max(sizes) <= capacity

    total = sum(sizes)
    assert total == N
    print(f"  all {total} tuples accounted for  [ok]")

    print("\nphases charged by the cost model:")
    for phase in outcome.phases:
        print(f"  {phase.name:12s} {phase.notes}")


if __name__ == "__main__":
    main()
