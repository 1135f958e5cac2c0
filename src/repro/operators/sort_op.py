"""The Sort operator.

Partitioning hashes keys by their **high-order** bits (Table 2), so the
resulting partitions hold strictly disjoint key ranges; sorting each
partition locally then yields a globally sorted relation.  The probe
phase sorts within each partition: quicksort on the CPU, mergesort on
the NMP machines (section 6) -- seeded by the SIMD bitonic pass on
Mondrian.
"""

from __future__ import annotations

import math

from repro.analytics.tuples import TUPLE_B, Relation
from repro.analytics.workload import SortWorkload
from repro.columnar import SegmentedColumns, segmented_mergesort, segmented_stable_argsort
from repro.operators import costs
from repro.operators.base import PHASE_PROBE, OperatorRun, OperatorVariant, PhaseCost
from repro.operators.partition import (
    SCHEME_HIGH_BITS,
    PartitionOutcome,
    run_partitioning,
)
from repro.shuffle.engine import destination_name


def quicksort_probe_cost(n: int, num_partitions: int) -> PhaseCost:
    """In-place quicksort of each partition (CPU probe).

    Quicksort's partition passes are mostly cache-resident once
    subproblems fit; we charge two full streaming passes of DRAM traffic
    plus the n log n instruction cost.
    """
    per_part = max(2, n // num_partitions)
    log_n = max(1.0, math.log2(per_part))
    return PhaseCost(
        name="quicksort",
        category=PHASE_PROBE,
        instructions=n * costs.QUICKSORT_STEP * log_n,
        dep_ilp=costs.QUICKSORT_DEP_ILP,
        mem_parallelism=4.0,
        seq_read_b=n * TUPLE_B * 2,
        seq_write_b=n * TUPLE_B * 2,
        notes=f"local quicksort, ~log2({per_part}) = {log_n:.1f} levels",
    )


def mergesort_probe_cost(
    n: int, num_partitions: int, variant: OperatorVariant
) -> PhaseCost:
    """Multi-pass mergesort of each partition (NMP / Mondrian probe)."""
    initial_run = costs.BITONIC_RUN_TUPLES if variant.simd else 1
    way = costs.MERGE_WAY_SIMD if variant.simd else costs.MERGE_WAY_SCALAR
    per_part = max(1, n // num_partitions)
    passes = costs.merge_passes_needed(per_part, initial_run, way)
    instructions = n * costs.MERGE_STEP * passes
    if variant.simd:
        k = costs.BITONIC_RUN_TUPLES.bit_length() - 1
        instructions += n * costs.BITONIC_STEP * (k * (k + 1) // 2)
    return PhaseCost(
        name="mergesort",
        category=PHASE_PROBE,
        instructions=instructions,
        simd_ops=instructions if variant.simd else 0.0,
        dep_ilp=costs.MERGE_DEP_ILP,
        mem_parallelism=8.0,
        simd_vectorizable=variant.simd,
        seq_read_b=n * TUPLE_B * (passes + (1 if variant.simd else 0)),
        seq_write_b=n * TUPLE_B * (passes + (1 if variant.simd else 0)),
        notes=f"{passes} merge passes from runs of {initial_run}",
    )


def _local_sort_segmented(
    columns: SegmentedColumns, variant: OperatorVariant, name: str
) -> Relation:
    """Sort every partition locally as one whole-relation kernel.

    Byte-identical to sorting each partition with
    :func:`~repro.operators.sort_algos.quicksort` /
    :func:`~repro.operators.sort_algos.mergesort` and concatenating
    (:func:`repro.operators.reference.reference_sort`): the local sorts
    keep rows inside their segment, so the segmented stable sort
    produces exactly the concatenation of the per-partition results.
    The output tuple array is allocated once, written field-wise and
    named ``name``.
    """
    if variant.local_sort == "quicksort":
        order = segmented_stable_argsort(columns.keys, columns.segments)
        keys, payloads = columns.keys[order], columns.payloads[order]
    else:
        keys, payloads = segmented_mergesort(
            columns.keys,
            columns.payloads,
            columns.segments,
            bitonic_initial=variant.simd,
        )
    sorted_columns = SegmentedColumns(
        keys=keys, payloads=payloads, segments=columns.segments
    )
    return Relation(sorted_columns.to_struct(), name)


def run_sort(
    workload: SortWorkload,
    variant: OperatorVariant,
    model_scale: float = 1.0,
) -> OperatorRun:
    """Execute Sort functionally under the given variant and cost it.

    Range partitioning makes the concatenation of the locally sorted
    partitions globally sorted -- each partition holds one contiguous
    key range -- so the local sorts run as one whole-relation kernel of
    :mod:`repro.columnar`.  The run ignores ``variant.faults``: it
    executes fault-free, and :func:`~repro.operators.partition.price_faults`
    prices a schedule onto it.
    """
    partitioned = run_partitioning(
        workload.flat,
        variant,
        SCHEME_HIGH_BITS,
        workload.key_space_bits,
        model_scale=model_scale,
    )
    columns = partitioned.shuffle.columns
    # A single partition keeps its own name (nothing is concatenated);
    # several are named "sorted".
    name = "sorted" if columns.num_segments > 1 else destination_name(0)
    output = _local_sort_segmented(columns, variant, name)
    return sort_operator_run(workload, variant, model_scale, partitioned, output)


def sort_operator_run(
    workload: SortWorkload,
    variant: OperatorVariant,
    model_scale: float,
    partitioned: PartitionOutcome,
    output: Relation,
) -> OperatorRun:
    """Cost records plus functional output of one executed Sort."""
    n = workload.total_tuples
    model_n = int(round(n * model_scale))
    if variant.local_sort == "quicksort":
        probe = quicksort_probe_cost(model_n, variant.num_partitions)
    else:
        probe = mergesort_probe_cost(model_n, variant.num_partitions, variant)

    return OperatorRun(
        operator="sort",
        variant=variant.label,
        phases=partitioned.phases + [probe],
        output=output,
        metadata={"tuples": n},
        passes=[partitioned.record],
    )
