"""Two-round partitioning for skewed datasets (paper section 5.4's
deferred future work, implemented).

Protocol:

1. **Round one** runs the normal histogram build.  During shuffle_begin
   every vault sums its announced inbound bytes; a vault whose total
   exceeds its destination-buffer capacity raises
   :class:`PartitionOverflowError` -- the exception the paper says the
   CPU must handle.
2. **Round two (the CPU's handler)**: the supervisor re-plans using the
   *global* histogram it already has.  Buckets are assigned to vaults by
   a greedy longest-processing-time bin packing, splitting any single
   bucket larger than a vault's budget across several vaults (correct
   for Join/Group by because a split bucket's sub-ranges are re-merged
   locally in the probe phase; the engine records which buckets were
   split so callers can account for the extra merge).
3. The shuffle then runs once with the rebalanced destination map --
   one extra histogram exchange, no extra data pass, exactly the
   "second round of partitioning in order to balance the resulting
   partitions' sizes" the paper sketches.

Both rounds run over the relation's flat columns: each key is hashed
once, each round's histogram is one ``bincount``, and
:func:`apply_plan` routes every tuple in one stateless call.

The cost model charges the second histogram/prefix pass; the data
distribution itself is unchanged.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.analytics.hashing import bucket_of_low_bits
from repro.analytics.histogram import build_histogram
from repro.analytics.tuples import TUPLE_B
from repro.columnar.kernels import stable_argsort
from repro.columnar.soa import SegmentedColumns
from repro.faults.plan import stream_salt
from repro.operators import costs
from repro.operators.base import (
    PHASE_HISTOGRAM,
    OperatorVariant,
    PhaseCost,
)
from repro.operators.partition import (
    PartitionOutcome,
    histogram_cost,
    priced_distribute_cost,
)
from repro.shuffle.engine import ShuffleEngine
from repro.shuffle.interleave import get_interleave


class PartitionOverflowError(RuntimeError):
    """A destination vault's inbound data exceeds its buffer capacity.

    Raised at shuffle_begin time (before any data moves), carrying what
    the CPU's handler needs to re-plan.
    """

    def __init__(self, vault: int, inbound_b: int, capacity_b: int) -> None:
        super().__init__(
            f"vault {vault} would receive {inbound_b} bytes, exceeding its "
            f"{capacity_b}-byte destination buffer; retry with two-round "
            "partitioning (paper section 5.4)"
        )
        self.vault = vault
        self.inbound_b = inbound_b
        self.capacity_b = capacity_b


@dataclass(eq=False)
class RebalancePlan:
    """Round-two output: where every bucket's tuples go, as columns.

    ``bucket_vault[b]`` is the one vault bucket ``b`` maps to, or ``-1``
    when ``b`` is split.  A split bucket's tuples are spread over its
    shares in plan order: the ``i``-th bucket of ``split_buckets`` owns
    shares ``share_offsets[i]:share_offsets[i + 1]`` of ``share_vault``
    (int64 vault ids) and ``share_take`` (int64 exact tuple counts, so
    the shuffle never exceeds a vault's budget).  ``split_buckets``
    lists split buckets in planning order: size descending, ties by
    bucket id.  A plan for data that fit in round one has no buckets at
    all (``rebalanced`` is false).
    """

    bucket_vault: np.ndarray
    split_buckets: List[int]
    share_offsets: np.ndarray
    share_vault: np.ndarray
    share_take: np.ndarray
    imbalance_before: float
    imbalance_after: float

    @property
    def rebalanced(self) -> bool:
        """Whether round two ran (the plan maps any bucket)."""
        return len(self.bucket_vault) > 0

    @classmethod
    def single_round(cls, imbalance: float) -> "RebalancePlan":
        """The trivial plan of data that fit in round one."""
        empty = np.zeros(0, dtype=np.int64)
        return cls(
            bucket_vault=empty,
            split_buckets=[],
            share_offsets=np.zeros(1, dtype=np.int64),
            share_vault=empty,
            share_take=empty,
            imbalance_before=imbalance,
            imbalance_after=imbalance,
        )


def check_overflow(
    inbound_tuples: np.ndarray, capacity_tuples: int
) -> None:
    """Raise :class:`PartitionOverflowError` for the worst offender."""
    worst = int(np.argmax(inbound_tuples))
    if inbound_tuples[worst] > capacity_tuples:
        raise PartitionOverflowError(
            vault=worst,
            inbound_b=int(inbound_tuples[worst]) * TUPLE_B,
            capacity_b=capacity_tuples * TUPLE_B,
        )


def plan_rebalance(
    bucket_histogram: np.ndarray, num_vaults: int, capacity_tuples: int
) -> RebalancePlan:
    """Greedy LPT bin packing of buckets onto vaults.

    Non-empty buckets go largest first, ties by bucket id (a stable
    order, so every host plans alike), each into the least-loaded vault,
    lowest vault id among equal loads.  A bucket that alone exceeds
    ``capacity_tuples`` is split across the least-loaded vaults, each
    share filling its vault's remaining room.  Every empty bucket maps
    to the least-loaded vault once packing is done.  The work grows with
    the non-empty buckets, not with the bucket table.
    """
    sizes = np.asarray(bucket_histogram, dtype=np.int64)
    total = int(sizes.sum())
    if total > num_vaults * capacity_tuples:
        raise ValueError(
            "dataset exceeds aggregate destination capacity; no "
            "rebalancing can fix that"
        )
    # Round one's folding (bucket b -> vault b mod num_vaults), summed as
    # rows of a zero-padded (buckets / vaults, vaults) table.
    folded = np.zeros(-(-len(sizes) // num_vaults) * num_vaults, dtype=np.int64)
    folded[: len(sizes)] = sizes
    naive = folded.reshape(-1, num_vaults).sum(axis=0)
    mean = max(1.0, total / num_vaults)
    imbalance_before = float(naive.max() / mean)

    bucket_vault = np.full(len(sizes), -1, dtype=np.int64)
    split_buckets: List[int] = []
    share_offsets = [0]
    share_vault: List[int] = []
    share_take: List[int] = []
    # (load, vault): heappop yields the least load, lowest vault id first.
    heap = [(0, vault) for vault in range(num_vaults)]
    nonempty = np.flatnonzero(sizes)
    order = nonempty[stable_argsort(-sizes[nonempty])]
    for b, size in zip(order.tolist(), sizes[order].tolist()):
        if size > capacity_tuples:
            # Split the hot bucket across enough vaults (exact counts).
            remaining = size
            while remaining > 0:
                load, vault = heapq.heappop(heap)
                room = capacity_tuples - load
                if room <= 0:
                    raise ValueError("no vault has room for a hot-bucket share")
                take = min(room, remaining)
                share_vault.append(vault)
                share_take.append(take)
                heapq.heappush(heap, (load + take, vault))
                remaining -= take
            split_buckets.append(b)
            share_offsets.append(len(share_take))
        else:
            load, vault = heap[0]
            if load + size > capacity_tuples:
                raise ValueError("LPT packing failed: insufficient headroom")
            heapq.heapreplace(heap, (load + size, vault))
            bucket_vault[b] = vault
    bucket_vault[sizes == 0] = heap[0][1]
    imbalance_after = float(max(load for load, _ in heap) / mean)
    return RebalancePlan(
        bucket_vault=bucket_vault,
        split_buckets=split_buckets,
        share_offsets=np.array(share_offsets, dtype=np.int64),
        share_vault=np.array(share_vault, dtype=np.int64),
        share_take=np.array(share_take, dtype=np.int64),
        imbalance_before=imbalance_before,
        imbalance_after=imbalance_after,
    )


def apply_plan(plan: RebalancePlan, buckets: np.ndarray) -> np.ndarray:
    """Every tuple's vault under ``plan``, consuming exact share budgets.

    A tuple of an unsplit bucket goes to ``bucket_vault``.  The tuples
    of a split bucket take consecutive positions of the bucket's share
    sequence in row order, and position ``p`` goes to the share whose
    cumulative range holds ``p``.  So the totals match the plan exactly:
    no vault receives more than its budget.  ``buckets`` is the whole
    relation's bucket array -- the sources concatenated, whose stable
    rank within a bucket equals each source's rank plus a cursor carried
    across sources -- and must hold no more tuples of a split bucket
    than the histogram the plan was built from.
    """
    dest = plan.bucket_vault[buckets]
    if not plan.split_buckets:
        return dest
    split_buckets = np.array(plan.split_buckets, dtype=np.int64)
    # Split bucket id -> its index in ``split_buckets`` (-1: unsplit).
    split_index = np.full(len(plan.bucket_vault), -1, dtype=np.int64)
    split_index[split_buckets] = np.arange(len(split_buckets))
    split = split_index[buckets]
    rows = np.flatnonzero(split >= 0)
    which = split[rows]
    counts = np.bincount(which, minlength=len(split_buckets))
    # Each split bucket's share positions, laid end to end: bucket i
    # owns [first[i], first[i] + planned[i]), share j ends at end[j].
    share_end = np.cumsum(plan.share_take)
    bounds = np.concatenate(([0], share_end))[plan.share_offsets]
    first, planned = bounds[:-1], np.diff(bounds)
    over = np.flatnonzero(counts > planned)
    if len(over):
        i = over[np.argmin(split_buckets[over])]
        raise ValueError(
            f"bucket {split_buckets[i]}: {counts[i]} tuples exceed "
            f"the planned {planned[i]} shares"
        )
    # One stable sort groups each split bucket's tuples in row order.
    order = stable_argsort(which)
    grouped = which[order]
    group_start = np.cumsum(counts) - counts
    position = np.arange(len(rows)) - group_start[grouped] + first[grouped]
    share = np.searchsorted(share_end, position, side="right")
    dest[rows[order]] = plan.share_vault[share]
    return dest


def second_round_cost(n: int, variant: OperatorVariant) -> PhaseCost:
    """Cost of the retry: one more histogram exchange + re-planning.

    No extra data pass -- the plan reuses the round-one histogram; the
    dominant extra work is the second shuffle_begin (prefix sums and the
    all-to-all announcement), charged as a histogram-class phase over the
    bucket table.
    """
    num_buckets = 1 << variant.radix_bits
    instructions = (
        num_buckets * (costs.PREFIX_STEP + 4)  # re-plan: sort + pack
        + n * 1  # re-tag each tuple's destination during distribution
    )
    return PhaseCost(
        name="rebalance",
        category=PHASE_HISTOGRAM,
        instructions=instructions,
        dep_ilp=costs.PARTITION_DEP_ILP,
        mem_parallelism=4.0,
        rand_reads=num_buckets,
        rand_writes=num_buckets,
        rand_access_b=8,
        rand_region_b=num_buckets * 8,
        notes="two-round partitioning retry (section 5.4 future work)",
    )


def run_partitioning_skew_aware(
    columns: SegmentedColumns,
    variant: OperatorVariant,
    key_space_bits: int,
    capacity_factor: float = 1.5,
    model_scale: float = 1.0,
) -> Tuple[PartitionOutcome, RebalancePlan]:
    """Partition with overflow detection and the two-round retry.

    Each segment of ``columns`` is one source partition.
    ``capacity_factor`` models the CPU's over-sized destination
    buffers: each vault can absorb ``capacity_factor x fair-share``
    tuples.  Returns the outcome plus the rebalance plan (``plan`` is
    trivial -- ``plan.rebalanced`` is false -- when round one fit).
    """
    if capacity_factor < 1.0:
        raise ValueError("capacity factor must be >= 1.0")
    n = columns.total
    num_vaults = variant.num_partitions
    capacity_tuples = max(1, int(np.ceil(n / num_vaults * capacity_factor)))

    # Round one: normal low-bit bucketing + histogram exchange.  The
    # buckets are hashed once; round two re-routes the same array.
    buckets = bucket_of_low_bits(columns.keys, variant.radix_bits)
    dest = buckets % num_vaults
    inbound = build_histogram(dest, num_vaults)

    phases = [histogram_cost(int(n * model_scale), variant, label="histogram")]
    try:
        check_overflow(inbound, capacity_tuples)
        plan = RebalancePlan.single_round(
            float(inbound.max() / max(1.0, inbound.mean()))
        )
    except PartitionOverflowError:
        # Round two: re-plan from the global bucket histogram.
        bucket_hist = build_histogram(buckets, 1 << variant.radix_bits)
        plan = plan_rebalance(bucket_hist, num_vaults, capacity_tuples)
        dest = apply_plan(plan, buckets)
        phases.append(second_round_cost(int(n * model_scale), variant))

    engine = ShuffleEngine(
        num_destinations=num_vaults,
        permutable=variant.permutable,
        interleave=get_interleave(variant.interleave),
        faults=variant.faults,
        fault_salt=stream_salt("skew"),
    )
    shuffle = engine.run(columns, dest)
    phases.append(
        priced_distribute_cost(
            int(n * model_scale),
            variant,
            "distribute",
            shuffle.resilience,
            model_scale,
        )
    )
    outcome = PartitionOutcome(
        phases=phases,
        shuffle=shuffle,
        resilience=shuffle.resilience,
    )
    return outcome, plan
