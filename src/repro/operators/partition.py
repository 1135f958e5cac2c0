"""The partitioning phase shared by Join, Group by and Sort (Table 2).

Two steps:

1. **Histogram build** -- every source partition hashes its keys and
   counts tuples per destination; prefix sums give exact write offsets
   and the per-destination totals that shuffle_begin announces.  The
   functional model does this for all sources at once: one
   :func:`destination_map` over the relation's flat
   :class:`~repro.columnar.soa.SegmentedColumns`, whose segments are the
   source partitions, and one histogram in the shuffle engine.
2. **Data distribution** -- tuples are copied to their destination
   partitions.  Addressed mode computes each tuple's exact destination
   address (per-bucket cursor chains -- the dependency bottleneck);
   permutable mode streams tuples through the object buffer and lets the
   destination vault controller place them (simpler code, sequential
   DRAM writes).

Join and Group by bucket by **low-order** key bits; Sort buckets by
**high-order** bits so partitions hold disjoint key ranges (section 6).

A fault schedule changes only what the distribution step's retry
protocol pays, so partitioning always runs fault-free, whatever
``variant.faults`` holds, and records each pass
(:class:`~repro.operators.base.PartitionPass`).  :func:`price_faults`,
the only place production replays a schedule, prices it onto the
finished run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Union

import numpy as np

from repro.analytics.hashing import bucket_of_low_bits
from repro.analytics.tuples import TUPLE_B, Relation
from repro.columnar.soa import SegmentedColumns
from repro.faults.plan import stream_salt
from repro.faults.protocol import combine_stats
from repro.operators import costs
from repro.operators.base import (
    PHASE_DISTRIBUTE,
    PHASE_HISTOGRAM,
    OperatorRun,
    OperatorVariant,
    PartitionPass,
    PhaseCost,
)
from repro.shuffle.engine import ShuffleEngine, ShuffleResult, replay_faults
from repro.shuffle.interleave import get_interleave

#: Partitioning key-bit schemes.
SCHEME_LOW_BITS = "low"
SCHEME_HIGH_BITS = "high"


@dataclass
class PartitionOutcome:
    """Functional result + cost records of one fault-free partitioning
    phase."""

    phases: List[PhaseCost]
    shuffle: ShuffleResult
    #: The pass as :func:`price_faults` prices a fault schedule onto it.
    record: PartitionPass

    @property
    def partitions(self) -> List[Relation]:
        """The destination partitions, built on first use
        (:attr:`ShuffleResult.destinations`)."""
        return self.shuffle.destinations


def partition_pass(label: str, salt: int, shuffle: ShuffleResult) -> PartitionPass:
    """The record of one finished shuffle.

    A memoized run keeps its record for the life of the process, so the
    counts are stored in the narrowest dtype that holds them.
    """
    counts = shuffle.histogram
    counts = counts.astype(np.min_scalar_type(int(counts.max(initial=0))))
    return PartitionPass(label, salt, counts)


def destination_map(
    tuples: Union[Relation, SegmentedColumns],
    variant: OperatorVariant,
    scheme: str,
    key_space_bits: int,
) -> np.ndarray:
    """Destination partition of every tuple (only ``tuples.keys`` is
    read, so a whole partitioned relation takes one call).

    The radix hash produces ``2**radix_bits`` buckets (16 bits on the
    CPU, 6 on the NMP machines); buckets fold onto the
    ``num_partitions`` memory partitions.
    """
    if scheme == SCHEME_LOW_BITS:
        buckets = bucket_of_low_bits(tuples.keys, variant.radix_bits)
        return buckets % variant.num_partitions
    if scheme == SCHEME_HIGH_BITS:
        # Sort requires *order-preserving* range partitions: partition i
        # holds keys strictly smaller than partition i+1's.  Folding a
        # wider radix onto the partitions with a modulo would alias
        # disjoint ranges, so the high-bit scheme maps key ranges to
        # partitions directly (for power-of-two partition counts this is
        # exactly "hash keys with high order bits").
        p = variant.num_partitions
        if key_space_bits + p.bit_length() > 63:
            raise ValueError("key space too wide for range partitioning math")
        scaled = (tuples.keys.astype(np.int64) * p) >> np.int64(key_space_bits)
        return np.minimum(scaled, p - 1)
    raise ValueError(f"unknown partitioning scheme {scheme!r}")


def histogram_cost(
    n: int, variant: OperatorVariant, label: str = "histogram"
) -> PhaseCost:
    """Cost of the histogram-build step over ``n`` tuples.

    The histogram table has ``2**radix_bits`` 8 B counters; with 16 bits
    (CPU) that is 512 KB -- LLC-resident but beyond the L1 -- while the
    NMP machines' 6-bit tables live in L1.  ``rand_region_b`` carries the
    table size so the systems layer can classify those accesses.
    """
    num_buckets = 1 << variant.radix_bits
    inst_per_tuple = costs.TUPLE_LOAD + costs.HASH_KEY + costs.HIST_UPDATE
    instructions = n * inst_per_tuple + num_buckets * costs.PREFIX_STEP
    # SIMD machines keep per-lane private histograms (merged in a
    # negligible tail), so the whole counting loop vectorizes.
    simd_ops = instructions if variant.simd else 0.0
    return PhaseCost(
        name=label,
        category=PHASE_HISTOGRAM,
        instructions=instructions,
        simd_ops=simd_ops,
        dep_ilp=costs.PARTITION_DEP_ILP,
        mem_parallelism=4.0,
        simd_vectorizable=variant.simd,
        rand_reads=n,
        rand_writes=n,
        rand_access_b=8,
        rand_region_b=num_buckets * 8,
        seq_read_b=n * TUPLE_B,
        notes="hash keys, count per destination, prefix-sum",
    )


def distribute_cost(
    n: int, variant: OperatorVariant, label: str = "distribute"
) -> PhaseCost:
    """Cost of the data-distribution step over ``n`` tuples."""
    if variant.permutable:
        inst_per_tuple = costs.TUPLE_LOAD + costs.HASH_KEY + costs.PERM_STORE
        instructions = n * inst_per_tuple
        simd_ops = instructions if variant.simd else 0.0
        return PhaseCost(
            name=label,
            category=PHASE_DISTRIBUTE,
            instructions=instructions,
            simd_ops=simd_ops,
            dep_ilp=costs.PARTITION_DEP_ILP,
            mem_parallelism=8.0,
            simd_vectorizable=variant.simd,
            seq_read_b=n * TUPLE_B,
            shuffle_b=n * TUPLE_B,
            object_b=TUPLE_B,
            permutable_writes=True,
            notes="stream tuples via object buffers; controller places them",
        )
    inst_per_tuple = (
        costs.TUPLE_LOAD + costs.HASH_KEY + costs.ADDR_CALC + costs.TUPLE_STORE
    )
    instructions = n * inst_per_tuple
    # Addressed code vectorizes only the load+hash slice (paper: Mondrian-
    # noperm "cannot use SIMD instructions throughout the partition loop").
    simd_ops = n * (costs.TUPLE_LOAD + costs.HASH_KEY) if variant.simd else 0.0
    return PhaseCost(
        name=label,
        category=PHASE_DISTRIBUTE,
        instructions=instructions,
        simd_ops=simd_ops,
        dep_ilp=costs.PARTITION_DEP_ILP,
        # Addressed writes serialize through per-bucket cursor chains and
        # the store queue; effectively one access in flight.
        mem_parallelism=1.0,
        simd_vectorizable=variant.simd,
        rand_writes=n,
        rand_access_b=TUPLE_B,
        rand_region_b=1 << 29,
        seq_read_b=n * TUPLE_B,
        shuffle_b=n * TUPLE_B,
        object_b=TUPLE_B,
        permutable_writes=False,
        notes="compute exact destination addresses via per-bucket cursors",
    )


def run_partitioning(
    columns: SegmentedColumns,
    variant: OperatorVariant,
    scheme: str,
    key_space_bits: int,
    label_prefix: str = "",
    model_scale: float = 1.0,
) -> PartitionOutcome:
    """Execute the full partitioning phase functionally and cost it.

    Each segment of ``columns`` is one source partition; the whole
    relation is hashed and routed in one pass.
    ``model_scale`` sizes the *cost model's* dataset relative to the
    functionally executed one: the tuples really moved stay small (so
    tests run fast), while the PhaseCost records describe a dataset
    ``model_scale`` times larger -- the partitioning phase is strictly
    per-tuple linear, so the extrapolation is exact.
    """
    if model_scale <= 0:
        raise ValueError("model_scale must be positive")
    dest = destination_map(columns, variant, scheme, key_space_bits)
    engine = ShuffleEngine(
        num_destinations=variant.num_partitions,
        permutable=variant.permutable,
        interleave=get_interleave(variant.interleave),
    )
    shuffle = engine.run(columns, dest)
    n_model = int(round(columns.total * model_scale))
    phases = [
        histogram_cost(n_model, variant, label=f"{label_prefix}histogram"),
        distribute_cost(n_model, variant, label=f"{label_prefix}distribute"),
    ]
    # Salted by the pass label so e.g. a join's R- and S-shuffles draw
    # independent-but-reproducible schedules from one seed.
    record = partition_pass(label_prefix, stream_salt(label_prefix), shuffle)
    return PartitionOutcome(phases=phases, shuffle=shuffle, record=record)


def price_faults(
    run: OperatorRun, variant: OperatorVariant, model_scale: float
) -> OperatorRun:
    """``run`` with ``variant``'s fault schedule priced in.

    The schedule never changes a run's functional output, only what the
    retry protocol pays, a function of each pass's histogram alone.  So
    every faulted run is its fault-free run plus this step: each
    recorded pass replays the schedule under its own salt
    (:func:`~repro.shuffle.engine.replay_faults`), and its
    ``{label}distribute`` phase gains the overhead, scaled by
    ``model_scale`` like every per-delivery byte: re-sent + duplicated
    bytes as ``retry_shuffle_b`` (wire + SerDes, no DRAM commit), the
    backoff + straggler stall as ``backoff_stall_b`` (idle wire time
    the interconnect cap prices).  The combined stats land in
    ``metadata["resilience"]``, last.  Returns ``run`` itself when the
    schedule is inactive or the run has no partitioning pass.
    """
    if not variant.faults.active or not run.passes:
        return run
    stats = {
        f"{record.label}distribute": replay_faults(
            record.histogram.astype(np.int64), variant.faults, record.salt
        )
        for record in run.passes
    }
    phases = []
    for phase in run.phases:
        resilience = stats.get(phase.name)
        if resilience is not None:
            phase = replace(
                phase,
                retry_shuffle_b=(resilience.retried_b + resilience.duplicate_b)
                * model_scale,
                backoff_stall_b=(
                    resilience.backoff_stall_b + resilience.straggler_stall_b
                )
                * model_scale,
            )
        phases.append(phase)
    metadata = dict(run.metadata)
    metadata["resilience"] = combine_stats(*stats.values()).to_metadata()
    return replace(run, phases=phases, metadata=metadata)
