"""Slow, obviously correct references for the production execution paths.

The production operators and the shuffle engine run every partition at
once with whole-relation kernels (:mod:`repro.columnar`).  This module
keeps exactly one per-partition (or per-tuple) reference per operator,
one for the shuffle (its fault replay included) and one for the merge
pass, and ``tests/test_reference_equivalence.py`` pins production
byte-identical to them.

Unlike :mod:`repro.operators.oracle`, which ignores partitioning
altogether, the references run the same algorithms partition by
partition.  Each operator reference shuffles with the production
partitioning phase (the shuffle has its own reference here) and returns
its output through the production ``<op>_operator_run`` function,
so its phases come from the production cost functions and a machine
evaluates it exactly like a production run.  No production module
imports this one.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analytics.histogram import build_histogram, source_write_offsets
from repro.analytics.tuples import TUPLE_B, TUPLE_DTYPE, Relation
from repro.analytics.workload import (
    GroupByWorkload,
    JoinWorkload,
    ScanWorkload,
    SortWorkload,
)
from repro.columnar.soa import SegmentedColumns
from repro.faults.plan import FaultSpec
from repro.faults.protocol import DeliverySession, FaultTolerantShuffleBarrier
from repro.memctrl.permutable import PermutableRegionConfig, PermutableWriteEngine
from repro.operators import costs
from repro.operators.base import OperatorRun, OperatorVariant
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
    partition_join_inputs,
)
from repro.operators.partition import SCHEME_HIGH_BITS, SCHEME_LOW_BITS, run_partitioning
from repro.operators.scan import ScanOutput, scan_probe_cost
from repro.operators.sort_algos import mergesort, quicksort
from repro.operators.sort_op import sort_operator_run
from repro.shuffle.engine import ShuffleResult, shuffle_begin, shuffle_end
from repro.shuffle.interleave import ArrivalOrder, round_robin_interleave

Groups = Dict[int, Dict[str, float]]


# -- shuffle ---------------------------------------------------------------


class ScalarDeliverySession(DeliverySession):
    """The seed's fault replay: one stream, one attempt at a time.

    The oracle for :meth:`DeliverySession._replay_streams_inner`'s
    array replay: every ``+=`` here is the fold order the production
    accumulators must reproduce bit for bit.
    """

    def _replay_streams_inner(self, barrier, dest, spec, sizes) -> None:
        for src in np.flatnonzero(sizes):
            size_b = int(sizes[src])
            drops = int(min(self._plan.drop_rounds[src, dest], spec.max_retries))
            for attempt in range(drops):
                # Attempt ``attempt`` was lost: the bytes burned the wire
                # and the source waits an exponentially growing backoff
                # before re-sending.
                self.stats.retries += 1
                self.stats.retried_b += size_b
                self.stats.backoff_stalls += 1
                self.stats.backoff_stall_b += (
                    spec.backoff_base * (2.0 ** attempt) * size_b
                )
            barrier.deliver(dest, size_b)
            for _ in range(int(self._plan.duplicates[src, dest])):
                self.stats.duplicates_discarded += 1
                self.stats.duplicate_b += size_b
                if isinstance(barrier, FaultTolerantShuffleBarrier):
                    barrier.discard_duplicates(dest, [size_b])


def reference_shuffle(
    sources: List[Relation],
    dest_of: List[np.ndarray],
    num_destinations: int,
    permutable: bool = False,
    interleave: Callable[[Sequence[int]], ArrivalOrder] = round_robin_interleave,
    faults: Optional[FaultSpec] = None,
    fault_salt: int = 0,
) -> Tuple[ShuffleResult, List[np.ndarray]]:
    """The seed's shuffle: per-(source, destination) streams, then one
    Python iteration per arriving tuple.

    Takes the :class:`~repro.shuffle.engine.ShuffleEngine` constructor
    arguments and returns the result plus each destination's write
    trace, recorded as the tuples arrive (permutable writes go through
    a :class:`PermutableWriteEngine` tail) -- the oracle for
    :func:`~repro.shuffle.engine.write_traces`.  Destinations retire
    through the same barrier protocol as production (one delivery
    each, or a :class:`ScalarDeliverySession` replaying per-stream
    retries when the fault schedule disrupted them).
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
    barrier, session = shuffle_begin(hist, faults, fault_salt)
    if session is not None:
        session = ScalarDeliverySession(session.plan, hist * TUPLE_B)
    offsets = source_write_offsets(histograms) if histograms else []

    destinations: List[Relation] = []
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
        arrivals = interleave([len(stream) for stream in inbound])
        for i, (src, idx) in enumerate(zip(*arrivals)):
            if permutable:
                marked = int(offsets[src][dest]) * TUPLE_B
                trace[i] = tail.write(None, marked_addr=marked)
                buffer[i] = inbound[src][idx]
            else:
                slot = cursors[src]
                cursors[src] += 1
                trace[i] = slot * TUPLE_B
                buffer[slot] = inbound[src][idx]
        destinations.append(Relation(buffer, f"shuffle_dest/{dest}"))
        traces.append(trace)
    resilience = shuffle_end(barrier, session, hist.sum(axis=0))
    result = ShuffleResult(
        destinations=destinations,
        histogram=hist,
        barrier=barrier,
        permutable=permutable,
        columns=SegmentedColumns.from_relations(destinations),
        resilience=resilience,
    )
    return result, traces


# -- scan ------------------------------------------------------------------


def reference_scan(
    workload: ScanWorkload, variant: OperatorVariant, model_scale: float = 1.0
) -> OperatorRun:
    """Scan one partition at a time."""
    key = np.uint64(workload.search_key)
    matches = 0
    payload_sum = 0
    for part in workload.partitions:
        hit = part.keys == key
        matches += int(np.count_nonzero(hit))
        payload_sum += int(part.payloads[hit].sum(dtype=np.uint64))
    n = workload.total_tuples
    return OperatorRun(
        operator="scan",
        variant=variant.label,
        phases=[scan_probe_cost(int(round(n * model_scale)), variant)],
        output=ScanOutput(matches=matches, payload_sum=payload_sum),
        metadata={"search_key": workload.search_key, "tuples": n},
    )


# -- sort ------------------------------------------------------------------


def reference_sort(
    workload: SortWorkload, variant: OperatorVariant, model_scale: float = 1.0
) -> OperatorRun:
    """Sort each range partition locally, then concatenate them."""
    partitioned = run_partitioning(
        workload.partitions,
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
    output = sorted_parts[0]
    for part in sorted_parts[1:]:
        output = output.concat(part, "sorted")
    return sort_operator_run(workload, variant, model_scale, partitioned, output)


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
    partitioned = run_partitioning(
        workload.partitions,
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
    return groupby_operator_run(workload, variant, model_scale, partitioned, output)


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
    r_part, s_part = partition_join_inputs(workload, variant, model_scale)
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
    return join_operator_run(
        workload,
        variant,
        model_scale,
        (r_part, s_part),
        JoinOutput(matches=matches, checksum=checksum),
        probe_steps,
    )


#: Reference runner per operator, keyed like ``OPERATOR_RUNNERS``.
REFERENCE_RUNNERS = {
    "scan": reference_scan,
    "sort": reference_sort,
    "groupby": reference_groupby,
    "join": reference_join,
}


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
