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

The cost model charges the second histogram/prefix pass; the data
distribution itself is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.analytics.histogram import build_histogram
from repro.analytics.tuples import TUPLE_B, Relation
from repro.columnar.kernels import stable_argsort
from repro.faults.plan import stream_salt
from repro.operators import costs
from repro.operators.base import (
    PHASE_HISTOGRAM,
    OperatorVariant,
    PhaseCost,
)
from repro.operators.partition import (
    PartitionOutcome,
    destination_map,
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


@dataclass
class RebalancePlan:
    """Round-two output: bucket -> vault assignment."""

    #: bucket id -> list of (vault, tuple_count) shares; a bucket mapped
    #: to one vault has a single (vault, full_count) entry.  Counts are
    #: exact so the shuffle never exceeds a vault's budget.
    assignment: Dict[int, List[Tuple[int, int]]]
    split_buckets: List[int]
    imbalance_before: float
    imbalance_after: float


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

    Buckets descend by size into the least-loaded vault; a bucket that
    alone exceeds ``capacity_tuples`` is split proportionally across the
    least-loaded vaults.
    """
    sizes = np.asarray(bucket_histogram, dtype=np.int64)
    if sizes.sum() > num_vaults * capacity_tuples:
        raise ValueError(
            "dataset exceeds aggregate destination capacity; no "
            "rebalancing can fix that"
        )
    naive = np.zeros(num_vaults, dtype=np.int64)
    for b, size in enumerate(sizes):
        naive[b % num_vaults] += size
    mean = max(1.0, sizes.sum() / num_vaults)
    imbalance_before = float(naive.max() / mean)

    loads = np.zeros(num_vaults, dtype=np.int64)
    assignment: Dict[int, List[Tuple[int, int]]] = {}
    split_buckets: List[int] = []
    order = np.argsort(sizes)[::-1]
    for b in order:
        b = int(b)
        size = int(sizes[b])
        if size == 0:
            assignment[b] = [(int(np.argmin(loads)), 0)]
            continue
        if size > capacity_tuples:
            # Split the hot bucket across enough vaults (exact counts).
            shares = []
            remaining = size
            while remaining > 0:
                vault = int(np.argmin(loads))
                room = capacity_tuples - int(loads[vault])
                if room <= 0:
                    raise ValueError("no vault has room for a hot-bucket share")
                take = min(room, remaining)
                shares.append((vault, take))
                loads[vault] += take
                remaining -= take
            assignment[b] = shares
            split_buckets.append(b)
        else:
            vault = int(np.argmin(loads))
            if loads[vault] + size > capacity_tuples:
                raise ValueError("LPT packing failed: insufficient headroom")
            loads[vault] += size
            assignment[b] = [(vault, size)]
    imbalance_after = float(loads.max() / mean)
    return RebalancePlan(
        assignment=assignment,
        split_buckets=split_buckets,
        imbalance_before=imbalance_before,
        imbalance_after=imbalance_after,
    )


class _PlanApplier:
    """Maps tuples' buckets to vaults, consuming exact share budgets.

    One applier covers all sources: a per-(bucket, share) cursor spreads
    the bucket's tuples over its shares in plan order, so the global
    totals match the plan exactly -- no vault receives more than its
    budget regardless of how tuples split across sources.
    """

    def __init__(self, plan: RebalancePlan) -> None:
        self._plan = plan
        self._cursor: Dict[int, int] = {}  # bucket -> tuples already routed

    def apply(self, buckets: np.ndarray) -> np.ndarray:
        n = len(buckets)
        dest = np.empty(n, dtype=np.int64)
        if n == 0:
            return dest
        # One stable sort groups each bucket's tuples in occurrence
        # order (the per-bucket ``buckets == b`` masks scanned the whole
        # array once per distinct bucket -- quadratic with the CPU's
        # 2**16 radix buckets).
        order = stable_argsort(buckets)
        sorted_buckets = buckets[order]
        change = np.empty(n, dtype=bool)
        change[0] = True
        change[1:] = sorted_buckets[1:] != sorted_buckets[:-1]
        starts = np.flatnonzero(change)
        counts = np.diff(np.append(starts, n))
        for first, count, b in zip(
            starts.tolist(), counts.tolist(), sorted_buckets[starts].tolist()
        ):
            shares = self._plan.assignment[b]
            start = self._cursor.get(b, 0)
            # Assign positions [start, start+count) of the bucket's global
            # order to shares in plan order.
            vault_seq = np.empty(count, dtype=np.int64)
            pos = 0
            offset = 0
            for vault, take in shares:
                lo = max(start, offset)
                hi = min(start + count, offset + take)
                if hi > lo:
                    vault_seq[lo - start : hi - start] = vault
                    pos += hi - lo
                offset += take
            if pos != count:
                raise ValueError(
                    f"bucket {b}: {count} tuples exceed the planned "
                    f"{offset} shares"
                )
            dest[order[first : first + count]] = vault_seq
            self._cursor[b] = start + count
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
    sources: List[Relation],
    variant: OperatorVariant,
    key_space_bits: int,
    capacity_factor: float = 1.5,
    seed: int = 0,
    model_scale: float = 1.0,
) -> Tuple[PartitionOutcome, RebalancePlan]:
    """Partition with overflow detection and the two-round retry.

    ``capacity_factor`` models the CPU's over-sized destination
    buffers: each vault can absorb ``capacity_factor x fair-share``
    tuples.  Returns the outcome plus the rebalance plan (``plan`` is
    trivial when round one fit).
    """
    if capacity_factor < 1.0:
        raise ValueError("capacity factor must be >= 1.0")
    n = sum(len(rel) for rel in sources)
    num_vaults = variant.num_partitions
    capacity_tuples = max(1, int(np.ceil(n / num_vaults * capacity_factor)))

    # Round one: normal low-bit bucketing + histogram exchange.
    dest_maps = [
        destination_map(rel, variant, "low", key_space_bits) for rel in sources
    ]
    inbound = np.zeros(num_vaults, dtype=np.int64)
    for dests in dest_maps:
        inbound += build_histogram(dests, num_vaults)

    phases = [histogram_cost(int(n * model_scale), variant, label="histogram")]
    try:
        check_overflow(inbound, capacity_tuples)
        plan = RebalancePlan(
            assignment={}, split_buckets=[],
            imbalance_before=float(inbound.max() / max(1.0, inbound.mean())),
            imbalance_after=float(inbound.max() / max(1.0, inbound.mean())),
        )
        final_maps = dest_maps
    except PartitionOverflowError:
        # Round two: re-plan from the global bucket histogram.
        num_buckets = 1 << variant.radix_bits
        bucket_hist = np.zeros(num_buckets, dtype=np.int64)
        bucket_maps = []
        from repro.analytics.hashing import bucket_of_low_bits

        for rel in sources:
            buckets = bucket_of_low_bits(rel.keys, variant.radix_bits)
            bucket_maps.append(buckets)
            bucket_hist += build_histogram(buckets, num_buckets)
        plan = plan_rebalance(bucket_hist, num_vaults, capacity_tuples)
        applier = _PlanApplier(plan)
        final_maps = [applier.apply(buckets) for buckets in bucket_maps]
        phases.append(second_round_cost(int(n * model_scale), variant))

    engine = ShuffleEngine(
        num_destinations=num_vaults,
        permutable=variant.permutable,
        interleave=get_interleave(variant.interleave),
        faults=variant.faults,
        fault_salt=stream_salt("skew"),
    )
    shuffle = engine.run(sources, final_maps)
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
        partitions=shuffle.destinations,
        phases=phases,
        shuffle=shuffle,
        resilience=shuffle.resilience,
    )
    return outcome, plan
