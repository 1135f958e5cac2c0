"""The Group by operator.

Partitioning is identical to Join's (low-order bits).  The probe phase
groups each partition's tuples by key and applies the paper's six
aggregation functions -- avg, count, min, max, sum, and sum squared --
to every group (section 6; the modeled query has an average group size
of four tuples).

- **hash variant**: find-or-insert each tuple's group slot in a hash
  table and update the six running aggregates (random read-modify-write
  per tuple).
- **sort variant**: mergesort the partition, then one sequential pass
  detects group boundaries and folds the aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import List, Tuple

import numpy as np

from repro.analytics.tuples import TUPLE_B
from repro.analytics.workload import GroupByWorkload
from repro.columnar import (
    SegmentedColumns,
    segmented_mergesort,
    segmented_sorted_groups,
    segmented_stable_argsort,
    sorted_group_aggregates,
)
from repro.operators import costs
from repro.operators.base import PHASE_PROBE, OperatorRun, OperatorVariant, PhaseCost
from repro.operators.partition import (
    SCHEME_LOW_BITS,
    PartitionOutcome,
    run_partitioning,
)

#: Aggregate record: key + count + sum + min + max + sumsq + avg = 56 B,
#: padded to the 64 B slot of the cost model.
GROUP_OUT_B = 64

AGGREGATE_NAMES = ("count", "sum", "min", "max", "avg", "sumsq")


@dataclass(eq=False)
class GroupByOutput:
    """Per-group aggregates as parallel columns, one row per group.

    ``keys`` is ``uint64``; the six aggregates (``AGGREGATE_NAMES``) are
    ``float64``.  Rows run partition by partition, keys ascending within
    each partition.  Two outputs are equal when every column is
    byte-identical.
    """

    keys: np.ndarray
    count: np.ndarray
    sum: np.ndarray
    min: np.ndarray
    max: np.ndarray
    avg: np.ndarray
    sumsq: np.ndarray

    @property
    def num_groups(self) -> int:
        return len(self.keys)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupByOutput):
            return NotImplemented
        pairs = [(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)]
        return all(a.dtype == b.dtype and a.tobytes() == b.tobytes() for a, b in pairs)


def hash_groupby_costs(
    n: int, num_groups: int, variant: OperatorVariant
) -> List[PhaseCost]:
    """Random-access group aggregation cost.

    The region one unit walks is its partition's group table; each tuple
    performs a dependent read-modify-write of its group slot.
    """
    per_part_groups = max(1, num_groups // variant.num_partitions)
    table_b = max(
        costs.GROUP_SLOT_B,
        int(per_part_groups / costs.HASH_TABLE_LOAD_FACTOR) * costs.GROUP_SLOT_B,
    )
    return [
        PhaseCost(
            name="hash-aggregate",
            category=PHASE_PROBE,
            instructions=n * (costs.HASH_KEY + costs.AGG_UPDATE),
            dep_ilp=costs.PROBE_DEP_ILP,
            mem_parallelism=costs.PROBE_MEM_PARALLELISM,
            rand_reads=n,
            rand_writes=n,
            rand_access_b=costs.GROUP_SLOT_B,
            rand_region_b=table_b,
            seq_read_b=n * TUPLE_B,
            seq_write_b=num_groups * GROUP_OUT_B,
            notes="find-or-insert group slot, update six aggregates",
        )
    ]


def sort_groupby_costs(
    n: int, num_groups: int, variant: OperatorVariant, num_partitions: int
) -> List[PhaseCost]:
    """Sort-then-sequential-aggregate cost."""
    initial_run = costs.BITONIC_RUN_TUPLES if variant.simd else 1
    way = costs.MERGE_WAY_SIMD if variant.simd else costs.MERGE_WAY_SCALAR
    per_part = max(1, n // num_partitions)
    passes = costs.merge_passes_needed(per_part, initial_run, way)
    sort_inst = n * costs.MERGE_STEP * passes
    if variant.simd:
        k = costs.BITONIC_RUN_TUPLES.bit_length() - 1
        sort_inst += n * costs.BITONIC_STEP * (k * (k + 1) // 2)
    sort_phase = PhaseCost(
        name="sort-groups",
        category=PHASE_PROBE,
        instructions=sort_inst,
        simd_ops=sort_inst if variant.simd else 0.0,
        dep_ilp=costs.MERGE_DEP_ILP,
        mem_parallelism=8.0,
        simd_vectorizable=variant.simd,
        seq_read_b=n * TUPLE_B * (passes + (1 if variant.simd else 0)),
        seq_write_b=n * TUPLE_B * (passes + (1 if variant.simd else 0)),
        notes=f"mergesort partition, {passes} merge passes",
    )
    agg_inst = n * costs.SEQ_AGG
    agg_phase = PhaseCost(
        name="seq-aggregate",
        category=PHASE_PROBE,
        instructions=agg_inst,
        simd_ops=agg_inst if variant.simd else 0.0,
        dep_ilp=costs.MERGE_DEP_ILP,
        mem_parallelism=8.0,
        simd_vectorizable=variant.simd,
        seq_read_b=n * TUPLE_B,
        seq_write_b=num_groups * GROUP_OUT_B,
        notes="one sequential pass folding the six aggregates",
    )
    return [sort_phase, agg_phase]


def _group_columns(
    group_keys: np.ndarray, aggregates: Tuple[np.ndarray, ...]
) -> GroupByOutput:
    """The columnar output, after checking for misrouted keys.

    Rows run partition by partition, keys ascending within each;
    low-bit partitioning sends equal keys to one partition, so a key
    surfacing in two partitions means the shuffle misrouted tuples.
    ``aggregates`` is ``(count, sum, min, max, avg, sumsq)``.
    """
    uniq, dup_counts = np.unique(group_keys, return_counts=True)
    if len(uniq) != len(group_keys):
        overlap = set(uniq[dup_counts > 1].tolist())
        raise AssertionError(f"group keys split across partitions: {overlap}")
    return GroupByOutput(group_keys, *aggregates)


def _sort_groupby_segmented(columns: SegmentedColumns, simd: bool) -> GroupByOutput:
    """All partitions' sort-based grouping as whole-relation kernels.

    Byte-identical to mergesorting and sequentially folding each
    partition: the segmented mergesort reproduces the per-partition
    sort, and :func:`~repro.columnar.sorted_group_aggregates` reproduces
    the per-group float arithmetic bit-for-bit.
    """
    keys, payloads = segmented_mergesort(
        columns.keys, columns.payloads, columns.segments, bitonic_initial=simd
    )
    starts, lens, _ = segmented_sorted_groups(keys, columns.segments)
    values = payloads.astype(np.float64)
    aggregates = sorted_group_aggregates(values, starts, lens)
    return _group_columns(keys[starts], aggregates)


def _hash_groupby_segmented(columns: SegmentedColumns) -> GroupByOutput:
    """All partitions' hash-based grouping as whole-relation kernels.

    The per-partition reference assigns each partition's tuples group
    ids via the linear-probing table over its unique keys (ids are
    indices into the sorted unique-key array) and folds the aggregates
    with ``bincount`` / ``minimum.at`` in partition arrival order.  This
    computes the same group ids for *all* partitions with one composite
    sort and folds with the same ufuncs over the flat arrays --
    ``bincount`` accumulation is strictly sequential in input order and
    group bins never cross segments, so every float matches.
    """
    order = segmented_stable_argsort(columns.keys, columns.segments)
    sorted_keys = columns.keys[order]
    starts, _, _ = segmented_sorted_groups(sorted_keys, columns.segments)
    num_groups = len(starts)
    gid_sorted = np.zeros(len(sorted_keys), dtype=np.int64)
    if len(sorted_keys):
        new_group = np.zeros(len(sorted_keys), dtype=np.int64)
        new_group[starts] = 1
        gid_sorted = np.cumsum(new_group) - 1
    gid = np.empty(len(sorted_keys), dtype=np.int64)
    gid[order] = gid_sorted
    values = columns.payloads.astype(np.float64)
    counts = np.bincount(gid, minlength=num_groups)
    sums = np.bincount(gid, weights=values, minlength=num_groups)
    sumsqs = np.bincount(gid, weights=values * values, minlength=num_groups)
    mins = np.full(num_groups, np.inf)
    maxs = np.full(num_groups, -np.inf)
    np.minimum.at(mins, gid, values)
    np.maximum.at(maxs, gid, values)
    avgs = sums / counts  # every group has >= 1 member
    aggregates = (counts.astype(np.float64), sums, mins, maxs, avgs, sumsqs)
    return _group_columns(sorted_keys[starts], aggregates)


def run_groupby(
    workload: GroupByWorkload,
    variant: OperatorVariant,
    model_scale: float = 1.0,
) -> OperatorRun:
    """Execute Group by functionally under the given variant and cost it.

    Every partition's groups fold with the whole-relation kernels of
    :mod:`repro.columnar`.  The run ignores ``variant.faults``: it
    executes fault-free, and :func:`~repro.operators.partition.price_faults`
    prices a schedule onto it.
    """
    partitioned = run_partitioning(
        workload.flat,
        variant,
        SCHEME_LOW_BITS,
        workload.key_space_bits,
        model_scale=model_scale,
    )
    columns = partitioned.shuffle.columns
    if variant.probe_algorithm == "hash":
        output = _hash_groupby_segmented(columns)
    else:
        output = _sort_groupby_segmented(columns, variant.simd)
    return groupby_operator_run(workload, variant, model_scale, partitioned, output)


def groupby_operator_run(
    workload: GroupByWorkload,
    variant: OperatorVariant,
    model_scale: float,
    partitioned: PartitionOutcome,
    output: GroupByOutput,
) -> OperatorRun:
    """Cost records plus functional output of one executed Group by."""
    n = workload.total_tuples
    num_groups = output.num_groups
    model_n = int(round(n * model_scale))
    model_groups = max(1, int(round(num_groups * model_scale)))
    if variant.probe_algorithm == "hash":
        probe_phases = hash_groupby_costs(model_n, model_groups, variant)
    else:
        probe_phases = sort_groupby_costs(
            model_n, model_groups, variant, variant.num_partitions
        )

    return OperatorRun(
        operator="groupby",
        variant=variant.label,
        phases=partitioned.phases + probe_phases,
        output=output,
        metadata={"tuples": n, "groups": num_groups},
        passes=[partitioned.record],
    )
