"""Slow, obviously correct references for the production execution paths.

The production operators and the shuffle engine run every partition at
once with whole-relation kernels (:mod:`repro.columnar`).  This module
keeps exactly one per-partition (or per-tuple) reference per operator,
one for the shuffle (its fault replay included), one for the skew
planner and its plan applier, and one for the merge pass, and
``tests/test_reference_equivalence.py`` pins production byte-identical
to them.  The shuffle reference walks each source's exact write
offsets (:func:`source_write_offsets`) and writes permutable traffic
through :class:`PermutableWriteEngine`, the per-object form of the
vault controller's sequential-tail writes (paper section 5.3) that
:class:`~repro.shuffle.engine.ShuffleEngine` prices in bulk.

Unlike :mod:`repro.operators.oracle`, which ignores partitioning
altogether, the references run the same algorithms partition by
partition.  Each operator reference shuffles with the production
partitioning phase (the shuffle has its own reference here) and returns
its output through the production ``<op>_operator_run`` function,
so its phases come from the production cost functions and a machine
evaluates it exactly like a production run.  Production shuffles
fault-free and replays a fault schedule in one place,
:func:`~repro.operators.partition.price_faults`, after the run.  The
references keep the seed's inline replay as its oracle: each pass
replays the schedule itself (:func:`partition_inline`, through
:func:`scalar_replay`'s :class:`ScalarDeliverySession`, salted by the
pass label), prices its own distribute phase, and the operator
attaches the resulting stats (:func:`_with_inline_resilience`).  No
production module imports this one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.analytics.histogram import build_histogram
from repro.analytics.tuples import TUPLE_B, TUPLE_DTYPE, Relation
from repro.analytics.workload import (
    GroupByWorkload,
    JoinWorkload,
    ScanWorkload,
    SortWorkload,
)
from repro.columnar.soa import SegmentedColumns
from repro.faults.plan import FaultPlan, FaultSpec, stream_salt
from repro.faults.protocol import DeliverySession, ResilienceStats, combine_stats
from repro.memctrl.permutable import ShuffleBarrier
from repro.operators import costs
from repro.operators.base import PHASE_DISTRIBUTE, OperatorRun, OperatorVariant
from repro.operators.groupby import (
    AGGREGATE_NAMES,
    GroupByOutput,
    groupby_operator_run,
)
from repro.operators.hashtable import LinearProbingHashTable
from repro.operators.join import (
    JoinOutput,
    _payload_checksum,
    join_operator_run,
)
from repro.operators.partition import (
    SCHEME_HIGH_BITS,
    SCHEME_LOW_BITS,
    PartitionOutcome,
    run_partitioning,
)
from repro.operators.scan import ScanOutput, scan_probe_cost
from repro.operators.sort_algos import mergesort, quicksort
from repro.operators.sort_op import sort_operator_run
from repro.shuffle.engine import ShuffleResult, shuffle_begin, shuffle_end
from repro.shuffle.interleave import ArrivalOrder, round_robin_interleave

Groups = Dict[int, Dict[str, float]]


# -- shuffle ---------------------------------------------------------------


class ScalarDeliverySession(DeliverySession):
    """The seed's fault replay: one destination, one stream, one attempt
    at a time.

    The oracle for :class:`DeliverySession`'s one-pass array replay and
    timeout pricing: every ``+=`` here is the fold order the production
    accumulators must reproduce bit for bit.
    """

    def deliver(self, barrier) -> None:
        spec = self._plan.spec
        barrier.deliver_all(np.where(self._disrupted, 0, self._sizes.sum(axis=0)))
        for dest in np.flatnonzero(self._disrupted):
            self.stats.degraded_destinations += 1
            for src in np.flatnonzero(self._sizes[:, dest]):
                size_b = int(self._sizes[src, dest])
                drops = int(min(self._plan.drop_rounds[src, dest], spec.max_retries))
                for attempt in range(drops):
                    # Attempt ``attempt`` was lost: the bytes burned the
                    # wire and the source waits an exponentially growing
                    # backoff before re-sending.
                    self.stats.retries += 1
                    self.stats.retried_b += size_b
                    self.stats.backoff_stalls += 1
                    self.stats.backoff_stall_b += (
                        spec.backoff_base * (2.0 ** attempt) * size_b
                    )
                barrier.deliver(int(dest), size_b)
                for _ in range(int(self._plan.duplicates[src, dest])):
                    self.stats.duplicates_discarded += 1
                    self.stats.duplicate_b += size_b

    def _price_timeouts(self, dest_totals) -> None:
        spec = self._plan.spec
        for dest in np.flatnonzero(self._plan.timeout_rounds):
            if dest_totals[dest] <= 0:
                continue
            for attempt in range(int(self._plan.timeout_rounds[dest])):
                self.stats.timeout_rounds += 1
                self.stats.backoff_stalls += 1
                self.stats.backoff_stall_b += (
                    spec.backoff_base * (2.0 ** attempt) * float(dest_totals[dest])
                )


def scalar_replay(
    histogram: np.ndarray, faults: Optional[FaultSpec], fault_salt: int
) -> Tuple[ShuffleBarrier, Optional[ResilienceStats]]:
    """The seed's inline barrier protocol over one shuffle's ``(source,
    destination)`` counts: one bulk delivery, or under an active
    schedule a :class:`ScalarDeliverySession`.  Returns the completed
    barrier and the schedule's stats (``None`` without a schedule)."""
    barrier = shuffle_begin(histogram)
    session = None
    if faults is not None and faults.active:
        num_src, num_dest = histogram.shape
        plan = FaultPlan.build(faults, num_src, num_dest, salt=fault_salt)
        session = ScalarDeliverySession(plan, histogram * TUPLE_B)
    return barrier, shuffle_end(barrier, session, histogram.sum(axis=0))


def source_write_offsets(per_source: List[np.ndarray]) -> List[np.ndarray]:
    """Exact write offset of each (source, destination) pair.

    Source ``s`` writes its tuples for destination ``d`` at
    ``sum over earlier sources of their d-counts`` plus the destination's
    base -- the addressed (non-permutable) partitioning needs these exact
    addresses, which is precisely the dependency-heavy bookkeeping the
    permutable path eliminates.
    """
    if not per_source:
        raise ValueError("need at least one source histogram")
    num_buckets = len(per_source[0])
    running = np.zeros(num_buckets, dtype=np.int64)
    offsets = []
    for hist in per_source:
        hist = np.asarray(hist, dtype=np.int64)
        if len(hist) != num_buckets:
            raise ValueError("histograms must have equal bucket counts")
        offsets.append(running.copy())
        running += hist
    return offsets


@dataclass(frozen=True)
class PermutableRegionConfig:
    """Destination-buffer configuration written by the CPU at setup.

    ``object_b`` is the permutability granularity: the controller only
    permutes whole objects, never bytes within one (section 5.3), so the
    object size must not exceed the 256 B object-buffer/HMC message limit.
    """

    base: int
    size_b: int
    object_b: int
    max_object_b: int = 256

    def __post_init__(self) -> None:
        if self.size_b <= 0 or self.object_b <= 0:
            raise ValueError("region and object sizes must be positive")
        if self.object_b > self.max_object_b:
            raise ValueError(
                f"objects of {self.object_b} B exceed the {self.max_object_b} B "
                "message limit; objects that large already exploit row locality "
                "without permutation (paper section 5.3)"
            )
        if self.size_b % self.object_b:
            raise ValueError("region size must hold a whole number of objects")

    @property
    def capacity_objects(self) -> int:
        return self.size_b // self.object_b

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.base + self.size_b


class PermutableWriteEngine:
    """Sequential-tail write redirection for one vault controller.

    The engine is functional: it stores the delivered objects (opaque
    payloads) in arrival order so a caller can read back exactly what
    the hardware would have materialized, and counts the writes.
    """

    def __init__(self, config: PermutableRegionConfig) -> None:
        self._config = config
        self._objects: List[object] = []
        self._overflowed = False

    @property
    def config(self) -> PermutableRegionConfig:
        return self._config

    @property
    def objects_written(self) -> int:
        return len(self._objects)

    @property
    def bytes_written(self) -> int:
        return len(self._objects) * self._config.object_b

    @property
    def next_tail_addr(self) -> int:
        """Physical address the next arriving object will be written to."""
        return self._config.base + self.bytes_written

    @property
    def overflowed(self) -> bool:
        """True if a write arrived after the buffer filled.

        The paper handles this by raising an exception to the CPU, which
        re-runs the histogram with two-round partitioning; we surface the
        flag so callers can model that retry.
        """
        return self._overflowed

    def write(self, payload: object, marked_addr: Optional[int] = None) -> int:
        """Deliver one permutable object; returns the address it landed at.

        ``marked_addr`` is the address the request carried; it is ignored
        for placement (that is the whole point) but validated to be inside
        the configured region when provided, since the controller only
        treats stores *into the permutable region* as permutable.
        """
        if marked_addr is not None and not self._config.contains(marked_addr):
            raise ValueError(
                f"permutable store to {marked_addr:#x} misses the region "
                f"[{self._config.base:#x}, {self._config.base + self._config.size_b:#x})"
            )
        if len(self._objects) >= self._config.capacity_objects:
            self._overflowed = True
            raise MemoryError(
                "permutable destination buffer overflow; the CPU must retry "
                "the histogram with two-round partitioning (paper section 5.4)"
            )
        addr = self.next_tail_addr
        self._objects.append(payload)
        return addr

    def drain(self) -> List[object]:
        """Objects in the order the hardware materialized them."""
        return list(self._objects)


def reference_shuffle(
    sources: List[Relation],
    dest_of: List[np.ndarray],
    num_destinations: int,
    permutable: bool = False,
    interleave: Callable[[np.ndarray], ArrivalOrder] = round_robin_interleave,
    faults: Optional[FaultSpec] = None,
    fault_salt: int = 0,
) -> Tuple[ShuffleResult, List[np.ndarray], Optional[ResilienceStats]]:
    """The seed's shuffle: per-(source, destination) streams, then one
    Python iteration per arriving tuple, with a fault schedule replayed
    inline.

    Takes the :class:`~repro.shuffle.engine.ShuffleEngine` constructor
    arguments plus a fault schedule and its salt, and returns the
    result, each destination's write trace, recorded as the tuples
    arrive (permutable writes go through a :class:`PermutableWriteEngine`
    tail) -- the oracle for :func:`~repro.shuffle.engine.write_traces`
    -- and the schedule's stats (:func:`scalar_replay`), the oracle for
    :func:`~repro.shuffle.engine.replay_faults`.  The interleave model
    is asked one destination at a time, through a one-column histogram.
    """
    if len(sources) != len(dest_of):
        raise ValueError("sources and destination maps must align")
    histograms = []
    streams: List[List[np.ndarray]] = []  # [source][destination]
    for rel, dests in zip(sources, dest_of):
        if len(rel) != len(dests):
            raise ValueError("destination map length must match relation")
        histograms.append(build_histogram(dests, num_destinations))
        dests = np.asarray(dests)
        streams.append([rel.data[dests == d] for d in range(num_destinations)])
    hist = (
        np.stack(histograms)
        if histograms
        else np.zeros((0, num_destinations), dtype=np.int64)
    )
    offsets = source_write_offsets(histograms) if histograms else []

    buffers: List[np.ndarray] = []
    traces: List[np.ndarray] = []
    for dest in range(num_destinations):
        inbound = [src_streams[dest] for src_streams in streams]
        total = int(hist[:, dest].sum())
        trace = np.empty(total, dtype=np.int64)
        buffer = np.empty(total, dtype=TUPLE_DTYPE)
        cursors = [int(src_offsets[dest]) for src_offsets in offsets]
        tail = PermutableWriteEngine(
            PermutableRegionConfig(
                base=0, size_b=max(1, total) * TUPLE_B, object_b=TUPLE_B
            )
        )
        # The model answers for a histogram: hand it this destination's
        # column alone.
        lengths = np.array([len(stream) for stream in inbound], dtype=np.int64)
        arrivals = interleave(lengths.reshape(-1, 1))
        # FIFO per source: the model names sources; count their elements.
        next_idx = [0] * len(inbound)
        for i, src in enumerate(arrivals.tolist()):
            idx = next_idx[src]
            next_idx[src] += 1
            if permutable:
                marked = int(offsets[src][dest]) * TUPLE_B
                trace[i] = tail.write(None, marked_addr=marked)
                buffer[i] = inbound[src][idx]
            else:
                slot = cursors[src]
                cursors[src] += 1
                trace[i] = slot * TUPLE_B
                buffer[slot] = inbound[src][idx]
        buffers.append(buffer)
        traces.append(trace)
    barrier, resilience = scalar_replay(hist, faults, fault_salt)
    result = ShuffleResult(
        buffer=np.concatenate(buffers),
        histogram=hist,
        barrier=barrier,
        permutable=permutable,
    )
    return result, traces, resilience


# -- scan ------------------------------------------------------------------


def reference_scan(
    workload: ScanWorkload, variant: OperatorVariant, model_scale: float = 1.0
) -> OperatorRun:
    """Scan one partition at a time."""
    key = np.uint64(workload.search_key)
    matches = 0
    payload_sum = 0
    flat = workload.flat
    for lo, hi in zip(flat.segments[:-1], flat.segments[1:]):
        hit = flat.keys[lo:hi] == key
        matches += int(np.count_nonzero(hit))
        payload_sum += int(flat.payloads[lo:hi][hit].sum(dtype=np.uint64))
    n = workload.total_tuples
    return OperatorRun(
        operator="scan",
        variant=variant.label,
        phases=[scan_probe_cost(int(round(n * model_scale)), variant)],
        output=ScanOutput(matches=matches, payload_sum=payload_sum),
        metadata={"search_key": workload.search_key, "tuples": n},
    )


# -- operator runs under a fault schedule ----------------------------------


def partition_inline(
    columns: SegmentedColumns,
    variant: OperatorVariant,
    scheme: str,
    key_space_bits: int,
    model_scale: float,
    label_prefix: str = "",
) -> Tuple[PartitionOutcome, Optional[ResilienceStats]]:
    """The production partitioning phase with ``variant``'s schedule
    replayed inline, the seed's way (:func:`scalar_replay`, salted by
    the pass label), pricing its own distribute phase.  Returns the
    outcome and the stats (``None`` without a schedule)."""
    outcome = run_partitioning(
        columns, variant, scheme, key_space_bits, label_prefix, model_scale
    )
    _, stats = scalar_replay(
        outcome.shuffle.histogram, variant.faults, stream_salt(label_prefix)
    )
    if stats is not None:
        outcome.phases = [
            replace(
                phase,
                retry_shuffle_b=(stats.retried_b + stats.duplicate_b) * model_scale,
                backoff_stall_b=(stats.backoff_stall_b + stats.straggler_stall_b)
                * model_scale,
            )
            if phase.category == PHASE_DISTRIBUTE
            else phase
            for phase in outcome.phases
        ]
    return outcome, stats


def _with_inline_resilience(
    run: OperatorRun, *stats: Optional[ResilienceStats]
) -> OperatorRun:
    """``run`` plus the stats its passes collected replaying the
    schedule inline (nothing when no schedule was active); the
    distribute phases already carry the inline prices."""
    resilience = combine_stats(*stats)
    if resilience is not None:
        run.metadata["resilience"] = resilience.to_metadata()
    return run


# -- sort ------------------------------------------------------------------


def reference_sort(
    workload: SortWorkload, variant: OperatorVariant, model_scale: float = 1.0
) -> OperatorRun:
    """Sort each range partition locally, then concatenate them."""
    partitioned, resilience = partition_inline(
        workload.flat,
        variant,
        SCHEME_HIGH_BITS,
        workload.key_space_bits,
        model_scale=model_scale,
    )
    sorted_parts: List[Relation] = []
    for part in partitioned.partitions:
        if len(part) == 0:
            sorted_parts.append(part)
            continue
        if variant.local_sort == "quicksort":
            data, _ = quicksort(part.data)
        else:
            data, _ = mergesort(part.data, bitonic_initial=variant.simd)
        sorted_parts.append(Relation(data, part.name))
    output = Relation(np.concatenate([part.data for part in sorted_parts]), "sorted")
    return _with_inline_resilience(
        sort_operator_run(workload, variant, model_scale, partitioned, output),
        resilience,
    )


# -- group by --------------------------------------------------------------


def _aggregate_sorted(keys: np.ndarray, payloads: np.ndarray) -> Groups:
    """Fold the six aggregates over key-sorted data (one sequential pass)."""
    groups: Groups = {}
    if len(keys) == 0:
        return groups
    boundaries = np.flatnonzero(np.diff(keys)) + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [len(keys)]])
    values = payloads.astype(np.float64)
    for start, end in zip(starts, ends):
        chunk = values[start:end]
        count = float(end - start)
        total = float(chunk.sum())
        groups[int(keys[start])] = {
            "count": count,
            "sum": total,
            "min": float(chunk.min()),
            "max": float(chunk.max()),
            "avg": total / count,
            "sumsq": float((chunk * chunk).sum()),
        }
    return groups


def _hash_groupby_partition(part: Relation) -> Groups:
    """Hash-based grouping of one partition.

    Uses the linear-probing table to assign group slots (exercising the
    same substrate the cost model charges), then vectorized aggregation.
    """
    if len(part) == 0:
        return {}
    unique_keys = np.unique(part.keys)
    table = LinearProbingHashTable(len(unique_keys), costs.HASH_TABLE_LOAD_FACTOR)
    table.insert_batch(unique_keys, np.arange(len(unique_keys), dtype=np.uint64))
    group_ids, found = table.lookup_batch(part.keys)
    if not np.all(found):
        raise AssertionError("hash table lost a group key")
    gid = group_ids.astype(np.int64)
    values = part.payloads.astype(np.float64)
    num = len(unique_keys)
    counts = np.bincount(gid, minlength=num)
    sums = np.bincount(gid, weights=values, minlength=num)
    sumsqs = np.bincount(gid, weights=values * values, minlength=num)
    mins = np.full(num, np.inf)
    maxs = np.full(num, -np.inf)
    np.minimum.at(mins, gid, values)
    np.maximum.at(maxs, gid, values)
    return {
        int(key): {
            "count": float(counts[i]),
            "sum": float(sums[i]),
            "min": float(mins[i]),
            "max": float(maxs[i]),
            "avg": float(sums[i] / counts[i]),
            "sumsq": float(sumsqs[i]),
        }
        for i, key in enumerate(unique_keys)
    }


def _sort_groupby_partition(part: Relation, simd: bool) -> Groups:
    """Sort-based grouping of one partition."""
    if len(part) == 0:
        return {}
    sorted_data, _ = mergesort(part.data, bitonic_initial=simd)
    return _aggregate_sorted(sorted_data["key"], sorted_data["payload"])


def reference_groupby(
    workload: GroupByWorkload, variant: OperatorVariant, model_scale: float = 1.0
) -> OperatorRun:
    """Group each partition on its own and merge the disjoint results."""
    partitioned, resilience = partition_inline(
        workload.flat,
        variant,
        SCHEME_LOW_BITS,
        workload.key_space_bits,
        model_scale=model_scale,
    )
    groups: Groups = {}
    for part in partitioned.partitions:
        if variant.probe_algorithm == "hash":
            part_groups = _hash_groupby_partition(part)
        else:
            part_groups = _sort_groupby_partition(part, variant.simd)
        overlap = groups.keys() & part_groups.keys()
        if overlap:
            # Low-bit partitioning sends equal keys to one partition, so
            # a key seen twice means the shuffle misrouted tuples.
            raise AssertionError(f"group keys split across partitions: {overlap}")
        groups.update(part_groups)
    output = GroupByOutput(
        np.fromiter(groups, dtype=np.uint64, count=len(groups)),
        *(
            np.array([aggs[name] for aggs in groups.values()], dtype=np.float64)
            for name in AGGREGATE_NAMES
        ),
    )
    return _with_inline_resilience(
        groupby_operator_run(workload, variant, model_scale, partitioned, output),
        resilience,
    )


# -- join ------------------------------------------------------------------


def _hash_join_partition(r: Relation, s: Relation) -> tuple:
    """Hash join of one partition; returns (matches, checksum,
    probe_steps_per_lookup)."""
    if len(r) == 0:
        return 0, 0, 1.0
    table = LinearProbingHashTable(len(r), costs.HASH_TABLE_LOAD_FACTOR)
    table.insert_batch(r.keys, r.payloads)
    payloads, found = table.lookup_batch(s.keys)
    matches = int(np.count_nonzero(found))
    checksum = _payload_checksum(payloads[found], s.payloads[found])
    steps = table.lookup_probe_steps / max(1, len(s))
    return matches, checksum, steps


def _merge_join_partition(r: Relation, s: Relation, simd: bool) -> tuple:
    """Sort-merge join of one partition; returns (matches, checksum)."""
    if len(r) == 0 or len(s) == 0:
        return 0, 0
    r_sorted, _ = mergesort(r.data, bitonic_initial=simd)
    s_sorted, _ = mergesort(s.data, bitonic_initial=simd)
    r_keys = r_sorted["key"]
    idx = np.searchsorted(r_keys, s_sorted["key"])
    idx = np.minimum(idx, len(r_keys) - 1)
    found = r_keys[idx] == s_sorted["key"]
    matches = int(np.count_nonzero(found))
    checksum = _payload_checksum(
        r_sorted["payload"][idx[found]], s_sorted["payload"][found]
    )
    return matches, checksum


def reference_join(
    workload: JoinWorkload, variant: OperatorVariant, model_scale: float = 1.0
) -> OperatorRun:
    """Join each co-located (R, S) partition pair on its own."""
    bits = workload.key_space_bits
    (r_part, r_stats), (s_part, s_stats) = (
        partition_inline(columns, variant, SCHEME_LOW_BITS, bits, model_scale, prefix)
        for columns, prefix in ((workload.r_flat, "R-"), (workload.s_flat, "S-"))
    )
    matches = 0
    checksum = 0
    probe_steps = []
    for r, s in zip(r_part.partitions, s_part.partitions):
        if variant.probe_algorithm == "hash":
            m, c, steps = _hash_join_partition(r, s)
            probe_steps.append(steps)
        else:
            m, c = _merge_join_partition(r, s, variant.simd)
        matches += m
        checksum = (checksum + c) % (1 << 64)
    run = join_operator_run(
        workload,
        variant,
        model_scale,
        (r_part, s_part),
        JoinOutput(matches=matches, checksum=checksum),
        probe_steps,
    )
    return _with_inline_resilience(run, r_stats, s_stats)


#: Reference runner per operator, keyed like ``OPERATOR_RUNNERS``.
REFERENCE_RUNNERS = {
    "scan": reference_scan,
    "sort": reference_sort,
    "groupby": reference_groupby,
    "join": reference_join,
}


# -- skew planning ---------------------------------------------------------


@dataclass
class ReferenceRebalancePlan:
    """The dict-shaped round-two plan :func:`reference_plan_rebalance`
    builds.

    ``assignment`` maps every bucket id to its ``(vault, tuple_count)``
    shares in plan order; an unsplit bucket has one ``(vault, size)``
    entry.  The other fields mean what they do on
    :class:`~repro.operators.skew.RebalancePlan`.
    """

    assignment: Dict[int, List[Tuple[int, int]]]
    split_buckets: List[int]
    imbalance_before: float
    imbalance_after: float


def reference_plan_rebalance(
    bucket_histogram: np.ndarray, num_vaults: int, capacity_tuples: int
) -> ReferenceRebalancePlan:
    """Reference for :func:`~repro.operators.skew.plan_rebalance`: every
    bucket in ``(-size, bucket)`` order, each into ``np.argmin`` of the
    vault loads, the naive imbalance folded one bucket at a time."""
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
    for b in sorted(range(len(sizes)), key=lambda b: (-int(sizes[b]), b)):
        size = int(sizes[b])
        if size == 0:
            assignment[b] = [(int(np.argmin(loads)), 0)]
            continue
        if size > capacity_tuples:
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
    return ReferenceRebalancePlan(
        assignment=assignment,
        split_buckets=split_buckets,
        imbalance_before=imbalance_before,
        imbalance_after=float(loads.max() / mean),
    )


class ReferencePlanApplier:
    """Reference for :func:`~repro.operators.skew.apply_plan`, applied
    source by source: one bucket at a time, each tuple of a bucket
    taking the next position of the bucket's share sequence (a
    per-bucket cursor carried across sources)."""

    def __init__(self, plan: ReferenceRebalancePlan) -> None:
        self._plan = plan
        self._cursor: Dict[int, int] = {}

    def apply(self, buckets: np.ndarray) -> np.ndarray:
        dest = np.empty(len(buckets), dtype=np.int64)
        for b in sorted(set(buckets.tolist())):
            rows = np.flatnonzero(buckets == b)
            shares = self._plan.assignment[b]
            start = self._cursor.get(b, 0)
            owner = [vault for vault, take in shares for _ in range(take)]
            if start + len(rows) > len(owner):
                raise ValueError(
                    f"bucket {b}: {len(rows)} tuples exceed the planned "
                    f"{len(owner)} shares"
                )
            dest[rows] = owner[start : start + len(rows)]
            self._cursor[b] = start + len(rows)
        return dest


# -- merge pass ------------------------------------------------------------


def merge_pass_scalar(data: np.ndarray, run_len: int) -> np.ndarray:
    """Reference merge pass: one pair of runs at a time.

    Each pair is merged with the rank trick: element ranks in the merged
    output are ``index_in_own_run + rank_in_other_run`` (searchsorted
    with sides chosen for stability).
    """
    if run_len < 1:
        raise ValueError("run length must be >= 1")
    n = len(data)
    out = np.empty_like(data)
    pos = 0
    while pos < n:
        a = data[pos : pos + run_len]
        b = data[pos + run_len : pos + 2 * run_len]
        if len(b) == 0:
            out[pos : pos + len(a)] = a
        else:
            a_keys, b_keys = a["key"], b["key"]
            a_rank = np.arange(len(a)) + np.searchsorted(b_keys, a_keys, side="left")
            b_rank = np.arange(len(b)) + np.searchsorted(a_keys, b_keys, side="right")
            merged = np.empty(len(a) + len(b), dtype=data.dtype)
            merged[a_rank] = a
            merged[b_rank] = b
            out[pos : pos + len(merged)] = merged
        pos += 2 * run_len
    return out
