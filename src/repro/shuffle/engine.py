"""Functional shuffle across memory partitions.

Given per-source relations and each tuple's destination partition, the
engine moves real tuples: it computes per-(source, destination) streams
and materializes each destination buffer either

- **addressed**: every tuple lands at the exact offset the histogram
  prefix sums assigned (source order preserved inside each source's
  slice), whatever order the network delivered it in, or
- **permutable**: tuples land at the destination's sequential tail in
  the arrival order the network interleave model produces.

Both produce the same *multiset* per destination -- the permutability
guarantee -- but different orders and radically different DRAM write
patterns.  The engine drives the :class:`ShuffleBarrier` handshake and
keeps the (source, destination) histogram; :func:`write_traces` derives
each destination's arrival trace (vault-relative addresses) from those
counts alone, so the event-accurate DRAM model can replay the traffic.

All destinations are materialized in one whole-relation pass over SoA
columns; :func:`repro.operators.reference.reference_shuffle` keeps the
seed's per-tuple loop, which the equivalence matrix pins this against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.analytics.tuples import TUPLE_B, TUPLE_DTYPE, Relation
from repro.columnar.soa import SegmentedColumns
from repro.faults.plan import FaultPlan, FaultSpec
from repro.faults.protocol import (
    DeliverySession,
    FaultTolerantShuffleBarrier,
    ResilienceStats,
)
from repro.memctrl.permutable import ShuffleBarrier
from repro.shuffle.interleave import (
    ArrivalOrder,
    round_robin_interleave,
    stream_starts,
)
from repro.telemetry import span as _span


def _grouping_sort(code: np.ndarray, bound: int) -> np.ndarray:
    """Stable argsort of non-negative integer grouping codes.

    Codes bounded by 16 bits take numpy's radix path (O(n), ~5x faster
    than the comparison sort `np.lexsort` would run); larger bounds fall
    back to the stable comparison sort.
    """
    if bound <= np.iinfo(np.int16).max:
        code = code.astype(np.int16)
    return np.argsort(code, kind="stable")


def shuffle_begin(
    hist: np.ndarray, faults: Optional[FaultSpec], fault_salt: int
) -> Tuple[ShuffleBarrier, Optional[DeliverySession]]:
    """Exchange the (source, destination) tuple counts and seal the barrier.

    Returns the sealed barrier plus a delivery session replaying the
    fault schedule, or ``None`` when no schedule is active.  A faulted
    shuffle gets a barrier that tolerates duplicates and timeouts.
    """
    num_src, num_dest = hist.shape
    sizes_b = hist * TUPLE_B
    session = None
    if faults is not None and faults.active:
        plan = FaultPlan.build(faults, num_src, num_dest, salt=fault_salt)
        session = DeliverySession(plan, sizes_b)
    num_vaults = max(num_dest, num_src)
    if session is not None:
        barrier: ShuffleBarrier = FaultTolerantShuffleBarrier(num_vaults)
    else:
        barrier = ShuffleBarrier(num_vaults)
    barrier.announce_all(sizes_b)
    barrier.seal()
    return barrier, session


def shuffle_end(
    barrier: ShuffleBarrier,
    session: Optional[DeliverySession],
    dest_totals: np.ndarray,
) -> Optional[ResilienceStats]:
    """Retire every destination's inbound traffic and close the barrier.

    Healthy destinations retire with one barrier update each;
    destinations the fault schedule disrupted degrade to per-stream
    deliveries with bounded retries.  Returns the session's stats.
    """
    for dest, total in enumerate(dest_totals.tolist()):
        if session is not None:
            session.deliver_dest(barrier, dest)
        else:
            barrier.deliver(dest, total * TUPLE_B)
    if session is not None:
        session.finalize(barrier)
    if not barrier.all_complete():
        raise RuntimeError("shuffle barrier incomplete after all deliveries")
    return session.stats if session is not None else None


def write_traces(
    histogram: np.ndarray,
    permutable: bool,
    interleave: Callable[[Sequence[int]], ArrivalOrder],
) -> List[np.ndarray]:
    """Per destination: vault-relative byte address of each write, in
    arrival order (replayable on the event DRAM model).

    Needs only the ``(source, destination)`` tuple counts: a permutable
    controller appends every arrival at its sequential tail, and an
    addressed one writes element ``idx`` of source ``src``'s stream to
    that source's histogram slice, visited in the interleave's order.
    """
    hist = np.asarray(histogram, dtype=np.int64)
    traces = []
    for dest in range(hist.shape[1]):
        inbound = hist[:, dest]
        if permutable:
            traces.append(np.arange(int(inbound.sum()), dtype=np.int64) * TUPLE_B)
        else:
            src, idx = interleave(inbound)
            traces.append((stream_starts(inbound)[src] + idx) * TUPLE_B)
    return traces


def _arrival_positions(
    hist: np.ndarray,
    sorted_src: np.ndarray,
    sorted_dest: np.ndarray,
    interleave: Callable[[Sequence[int]], ArrivalOrder],
) -> np.ndarray:
    """Every destination's arrival order, as positions into the
    ``(dest, src)``-grouped tuple order, destinations back to back.

    Round-robin drains rounds in source order, i.e. a stable sort by
    ``(idx, src)`` -- computed for all destinations as one
    ``(dest, idx, src)`` lexsort, spelled as two stable grouping sorts
    (composite ``(idx, src)`` code, then dest) so both take the radix
    path.  Any other interleave model runs per destination on its
    inbound lengths.
    """
    num_src, num_dest = hist.shape
    if interleave is round_robin_interleave:
        stream_lens = hist.T.reshape(-1)  # [dest-major][src] order
        within = np.arange(len(sorted_src), dtype=np.int64) - np.repeat(
            stream_starts(stream_lens), stream_lens
        )
        max_stream = int(stream_lens.max()) if len(stream_lens) else 0
        by_idx_src = _grouping_sort(
            within * num_src + sorted_src, max_stream * num_src + num_src
        )
        return by_idx_src[_grouping_sort(sorted_dest[by_idx_src], num_dest)]
    dest_base = stream_starts(hist.sum(axis=0))
    pieces = []
    for dest in range(num_dest):
        src, idx = interleave(hist[:, dest])
        pieces.append(dest_base[dest] + stream_starts(hist[:, dest])[src] + idx)
    return np.concatenate(pieces)


@dataclass
class ShuffleResult:
    """Everything the shuffle produced."""

    destinations: List[Relation]
    #: ``(source, destination)`` tuple counts; :func:`write_traces`
    #: derives the per-destination DRAM write traces from them.
    histogram: np.ndarray
    barrier: ShuffleBarrier
    permutable: bool
    #: Zero-copy SoA view over all destinations (one flat buffer with
    #: one segment per destination), so the probe phase can run
    #: whole-relation kernels without re-flattening.
    columns: SegmentedColumns
    #: Retry/backoff accounting of the fault-injection protocol
    #: (:mod:`repro.faults`); ``None`` when no faults were active.
    resilience: Optional[ResilienceStats] = None

    @property
    def total_tuples(self) -> int:
        return sum(len(d) for d in self.destinations)


class ShuffleEngine:
    """Move tuples between partitions with a chosen write discipline."""

    def __init__(
        self,
        num_destinations: int,
        permutable: bool = False,
        interleave: Callable[[Sequence[int]], ArrivalOrder] = round_robin_interleave,
        faults: Optional[FaultSpec] = None,
        fault_salt: int = 0,
    ) -> None:
        if num_destinations < 1:
            raise ValueError("need at least one destination")
        self._num_dest = num_destinations
        self._permutable = permutable
        self._interleave = interleave
        # Optional deterministic fault schedule (repro.faults): replayed
        # through the barrier's retry/backoff protocol.  The functional
        # output stays byte-identical under any schedule.
        self._faults = faults
        self._fault_salt = fault_salt

    def run(
        self, sources: List[Relation], dest_of: List[np.ndarray]
    ) -> ShuffleResult:
        """Shuffle ``sources[s]`` tuples to partitions ``dest_of[s]``.

        The sources become flat SoA columns and a composite
        ``(dest, src)`` sort groups all streams at once.  That grouped
        order *is* the addressed layout; a permutable shuffle instead
        reorders it by the network's arrival order, computed for all
        destinations in one shot.  Either way the destination buffers
        are written as two field gathers into one preallocated tuple
        array.
        """
        if len(sources) != len(dest_of):
            raise ValueError("sources and destination maps must align")
        num_src = len(sources)
        num_dest = self._num_dest
        with _span(
            "shuffle",
            category="shuffle",
            sources=num_src,
            destinations=num_dest,
        ) as sp:
            lens = np.array([len(rel) for rel in sources], dtype=np.int64)
            for rel, dests in zip(sources, dest_of):
                if len(rel) != len(dests):
                    raise ValueError("destination map length must match relation")
            total = int(lens.sum())
            cols = SegmentedColumns.from_relations(sources)
            if num_src and total:
                dest_all = np.concatenate(
                    [np.asarray(d, dtype=np.int64) for d in dest_of]
                )
                if int(dest_all.min()) < 0 or int(dest_all.max()) >= num_dest:
                    raise ValueError("bucket ids out of range")
            else:
                dest_all = np.empty(0, dtype=np.int64)
            src_ids = np.repeat(np.arange(num_src, dtype=np.int64), lens)

            # Histogram build: per-(source, destination) tuple counts.
            hist = np.bincount(
                src_ids * num_dest + dest_all, minlength=num_src * num_dest
            ).reshape(num_src, num_dest)
            barrier, session = shuffle_begin(hist, self._faults, self._fault_salt)
            sp.set(faulted=session is not None)

            # Group all (dest, src) streams at once, preserving source
            # order: a stable sort of the composite (dest, src) code
            # equals np.lexsort((src_ids, dest_all)) and takes the radix
            # path for realistic partition counts.  Each tuple's rank in
            # this order is its addressed slot (destination base +
            # source's histogram offset + index in its stream).
            take = _grouping_sort(dest_all * num_src + src_ids, num_dest * num_src)
            if self._permutable:
                take = take[
                    _arrival_positions(
                        hist, src_ids[take], dest_all[take], self._interleave
                    )
                ]

            # Materialize all destinations: one preallocated tuple buffer,
            # written field-wise (no structured-dtype promotion).
            out = np.empty(total, dtype=TUPLE_DTYPE)
            out_keys = out["key"]
            out_payloads = out["payload"]
            out_keys[:] = cols.keys[take]
            out_payloads[:] = cols.payloads[take]
            dest_totals = hist.sum(axis=0)
            bounds = np.append(stream_starts(dest_totals), total)
            resilience = shuffle_end(barrier, session, dest_totals)
            return ShuffleResult(
                destinations=[
                    Relation(out[bounds[d] : bounds[d + 1]], f"shuffle_dest/{d}")
                    for d in range(num_dest)
                ],
                histogram=hist,
                barrier=barrier,
                permutable=self._permutable,
                columns=SegmentedColumns(
                    keys=out_keys, payloads=out_payloads, segments=bounds
                ),
                resilience=resilience,
            )
