"""The Join operator (R join S, foreign-key relationship).

Partitioning: both relations are range-partitioned by the low-order key
bits and shuffled so matching tuples co-locate (histogram + distribute,
Table 2).  Probe, per partition:

- **hash variant** (CPU / NMP-rand): build a hash table plus prefix-sum
  index ranges over the smaller relation R, then probe it with every S
  tuple -- fast lookups, random memory accesses.
- **sort variant** (NMP-seq / Mondrian): sort both relations with
  mergesort (bitonic-seeded when SIMD is available) and merge-join them
  in one final sequential pass -- higher algorithmic complexity
  (O(n log n)), purely sequential memory accesses (section 4.1.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.analytics.tuples import TUPLE_B
from repro.analytics.workload import JoinWorkload
from repro.columnar import (
    SegmentedColumns,
    segment_ids,
    segmented_mergesort,
    segmented_searchsorted,
)
from repro.columnar.hashtable import SegmentedLinearProbingTable
from repro.operators import costs
from repro.operators.base import PHASE_PROBE, OperatorRun, OperatorVariant, PhaseCost
from repro.operators.partition import (
    SCHEME_LOW_BITS,
    PartitionOutcome,
    price_faults,
    run_partitioning,
)

#: Output tuple: key + R payload + S payload, padded to 32 B.
JOIN_OUT_B = 32


@dataclass(frozen=True)
class JoinOutput:
    """Join result summary (matches plus an order-insensitive checksum)."""

    matches: int
    checksum: int


def hash_probe_costs(
    n_r: int, n_s: int, variant: OperatorVariant, probe_steps_per_lookup: float
) -> List[PhaseCost]:
    """Cost of hash-table build + probe over one partitioning of R, S.

    The random-access region is the *per-partition* table (the working
    set one compute unit walks); each lookup chases the bucket header,
    the index range and the match -- a dependent chain, hence the low
    effective MLP (paper's NMP-rand IPC of 0.24).
    """
    per_part_r = max(1, n_r // variant.num_partitions)
    table_b = max(
        costs.HASH_SLOT_B,
        int(per_part_r / costs.HASH_TABLE_LOAD_FACTOR) * costs.HASH_SLOT_B,
    )
    build = PhaseCost(
        name="hash-build",
        category=PHASE_PROBE,
        instructions=n_r * costs.HT_BUILD,
        dep_ilp=costs.PROBE_DEP_ILP,
        mem_parallelism=4.0,
        rand_writes=n_r,
        rand_access_b=costs.HASH_SLOT_B,
        rand_region_b=table_b,
        seq_read_b=n_r * TUPLE_B,
        notes="hash R keys, build table + prefix-sum index ranges",
    )
    accesses = max(probe_steps_per_lookup, costs.PROBE_ACCESSES_PER_LOOKUP)
    probe = PhaseCost(
        name="hash-probe",
        category=PHASE_PROBE,
        instructions=n_s * costs.HT_PROBE,
        dep_ilp=costs.PROBE_DEP_ILP,
        mem_parallelism=costs.PROBE_MEM_PARALLELISM,
        rand_reads=n_s * accesses,
        rand_access_b=costs.HASH_SLOT_B,
        rand_region_b=table_b,
        seq_read_b=n_s * TUPLE_B,
        seq_write_b=n_s * JOIN_OUT_B,
        notes="probe the R index range for every S tuple",
    )
    return [build, probe]


def sort_probe_costs(
    n_r: int, n_s: int, variant: OperatorVariant, num_partitions: int
) -> List[PhaseCost]:
    """Cost of sort-merge join: sort R, sort S, merge-join pass.

    Pass counts follow the per-partition sizes (mergesort's log factor is
    local to each partition).
    """
    initial_run = costs.BITONIC_RUN_TUPLES if variant.simd else 1
    way = costs.MERGE_WAY_SIMD if variant.simd else costs.MERGE_WAY_SCALAR
    per_part_r = max(1, n_r // num_partitions)
    per_part_s = max(1, n_s // num_partitions)
    phases = []
    for label, n, per_part in (
        ("sort-R", n_r, per_part_r),
        ("sort-S", n_s, per_part_s),
    ):
        passes = costs.merge_passes_needed(per_part, initial_run, way)
        bitonic_inst = (
            n * costs.BITONIC_STEP * _bitonic_stages(costs.BITONIC_RUN_TUPLES)
            if variant.simd
            else 0.0
        )
        merge_inst = n * costs.MERGE_STEP * passes
        instructions = merge_inst + bitonic_inst
        phases.append(
            PhaseCost(
                name=label,
                category=PHASE_PROBE,
                instructions=instructions,
                simd_ops=instructions if variant.simd else 0.0,
                dep_ilp=costs.MERGE_DEP_ILP,
                mem_parallelism=8.0,
                simd_vectorizable=variant.simd,
                seq_read_b=n * TUPLE_B * (passes + (1 if variant.simd else 0)),
                seq_write_b=n * TUPLE_B * (passes + (1 if variant.simd else 0)),
                notes=f"mergesort, {passes} merge passes, initial run {initial_run}",
            )
        )
    merge_join = PhaseCost(
        name="merge-join",
        category=PHASE_PROBE,
        instructions=(n_r + n_s) * costs.MERGE_JOIN_STEP,
        simd_ops=(n_r + n_s) * costs.MERGE_JOIN_STEP if variant.simd else 0.0,
        dep_ilp=costs.MERGE_DEP_ILP,
        mem_parallelism=8.0,
        simd_vectorizable=variant.simd,
        seq_read_b=(n_r + n_s) * TUPLE_B,
        seq_write_b=n_s * JOIN_OUT_B,
        notes="final sequential pass joining the sorted relations",
    )
    return phases + [merge_join]


def _bitonic_stages(run: int) -> int:
    """Compare-exchange stages of a bitonic network over ``run`` keys."""
    k = run.bit_length() - 1
    return k * (k + 1) // 2


def _payload_checksum(r_payloads: np.ndarray, s_payloads: np.ndarray) -> int:
    """Order-insensitive exact digest: sum of payload pairs mod 2**64."""
    with np.errstate(over="ignore"):
        total = (r_payloads + s_payloads).sum(dtype=np.uint64)
    return int(total)


def _hash_join_segmented(
    r_cols: SegmentedColumns, s_cols: SegmentedColumns
) -> tuple:
    """Hash join of all partitions at once; returns (matches, checksum,
    per-partition probe steps).

    Builds every partition's linear-probing table inside one
    :class:`~repro.columnar.hashtable.SegmentedLinearProbingTable` and
    probes them together.  Partitions with an empty R side build no
    table and probe nothing, contributing the reference's sentinel 1.0
    probe-step figure.  Collision behaviour, per-partition step counts
    (which feed the cost model) and the checksum are all byte-identical
    to the per-partition loop.
    """
    r_lens = r_cols.segment_lengths()
    s_lens = s_cols.segment_lengths()
    active = r_lens > 0
    probe_steps = np.ones(len(r_lens), dtype=np.float64)
    if not np.any(active):
        return 0, 0, probe_steps.tolist()
    # Remap active segments to dense table indices.
    table_idx = np.cumsum(active) - 1
    r_mask = np.repeat(active, r_lens)
    s_mask = np.repeat(active, s_lens)
    table = SegmentedLinearProbingTable(
        r_lens[active], costs.HASH_TABLE_LOAD_FACTOR
    )
    r_segs = table_idx[segment_ids(r_cols.segments)[r_mask]]
    table.insert_batch(r_cols.keys[r_mask], r_cols.payloads[r_mask], r_segs)
    s_keys = s_cols.keys[s_mask]
    s_payloads = s_cols.payloads[s_mask]
    s_segs = table_idx[segment_ids(s_cols.segments)[s_mask]]
    payloads, found = table.lookup_batch(s_keys, s_segs)
    matches = int(np.count_nonzero(found))
    checksum = _payload_checksum(payloads[found], s_payloads[found])
    # lookup_probe_steps / max(1, len(s)) per partition, as the scalar
    # table reports them.
    probe_steps[active] = table.lookup_probe_steps / np.maximum(
        1, s_lens[active]
    )
    return matches, checksum, probe_steps.tolist()


def _merge_join_segmented(
    r_cols: SegmentedColumns,
    s_cols: SegmentedColumns,
    simd: bool,
    key_space_bits: int,
) -> tuple:
    """Sort-merge join of all partitions at once; returns (matches,
    checksum).

    Segmented mergesort on both sides, then one per-segment
    ``searchsorted`` (composite-key kernel); partitions where either
    side is empty contribute nothing, matching the reference's early
    return.
    """
    r_keys, r_payloads = segmented_mergesort(
        r_cols.keys, r_cols.payloads, r_cols.segments, bitonic_initial=simd
    )
    s_keys, s_payloads = segmented_mergesort(
        s_cols.keys, s_cols.payloads, s_cols.segments, bitonic_initial=simd
    )
    if len(r_keys) == 0 or len(s_keys) == 0:
        return 0, 0
    idx, valid = segmented_searchsorted(
        r_keys, r_cols.segments, s_keys, s_cols.segments, key_space_bits
    )
    found = valid & (r_keys[idx] == s_keys)
    matches = int(np.count_nonzero(found))
    checksum = _payload_checksum(r_payloads[idx[found]], s_payloads[found])
    return matches, checksum


def run_join(
    workload: JoinWorkload,
    variant: OperatorVariant,
    model_scale: float = 1.0,
) -> OperatorRun:
    """Execute Join functionally under the given variant and cost it.

    ``model_scale`` sizes the cost model's relations relative to the
    functionally executed ones (see :func:`run_partitioning`); sort pass
    counts and hash-table regions are computed at model size.  All
    partitions join at once with the whole-relation kernels of
    :mod:`repro.columnar`.  The run executes fault-free and
    :func:`~repro.operators.partition.price_faults` prices
    ``variant.faults`` onto it.
    """
    r_part, s_part = partition_join_inputs(
        workload, variant.fault_free, model_scale
    )
    probe_steps = []
    r_cols, s_cols = r_part.shuffle.columns, s_part.shuffle.columns
    if variant.probe_algorithm == "hash":
        matches, checksum, probe_steps = _hash_join_segmented(r_cols, s_cols)
    else:
        matches, checksum = _merge_join_segmented(
            r_cols, s_cols, variant.simd, workload.key_space_bits
        )
    run = join_operator_run(
        workload,
        variant,
        model_scale,
        (r_part, s_part),
        JoinOutput(matches=matches, checksum=checksum),
        probe_steps,
    )
    return price_faults(run, variant, model_scale)


def partition_join_inputs(
    workload: JoinWorkload, variant: OperatorVariant, model_scale: float
) -> Tuple[PartitionOutcome, PartitionOutcome]:
    """Shuffle R and S so matching tuples co-locate."""
    return tuple(
        run_partitioning(
            columns,
            variant,
            SCHEME_LOW_BITS,
            workload.key_space_bits,
            label_prefix=prefix,
            model_scale=model_scale,
        )
        for columns, prefix in (
            (workload.r_flat, "R-"),
            (workload.s_flat, "S-"),
        )
    )


def join_operator_run(
    workload: JoinWorkload,
    variant: OperatorVariant,
    model_scale: float,
    parts: Tuple[PartitionOutcome, PartitionOutcome],
    output: JoinOutput,
    probe_steps: List[float],
) -> OperatorRun:
    """Cost records plus functional output of one executed Join.

    ``probe_steps`` holds each partition's hash-probe steps per lookup
    (empty for the sort variant).
    """
    r_part, s_part = parts
    model_n_r = int(round(workload.n_r * model_scale))
    model_n_s = int(round(workload.n_s * model_scale))
    if variant.probe_algorithm == "hash":
        avg_steps = float(np.mean(probe_steps)) if probe_steps else 1.0
        probe_phases = hash_probe_costs(model_n_r, model_n_s, variant, avg_steps)
    else:
        probe_phases = sort_probe_costs(
            model_n_r, model_n_s, variant, variant.num_partitions
        )

    return OperatorRun(
        operator="join",
        variant=variant.label,
        phases=r_part.phases + s_part.phases + probe_phases,
        output=output,
        metadata={"n_r": workload.n_r, "n_s": workload.n_s},
        passes=[r_part.record, s_part.record],
    )
