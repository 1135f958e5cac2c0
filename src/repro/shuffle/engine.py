"""Functional shuffle across memory partitions.

Given a relation's flat columns (one segment per source partition) and
each tuple's destination partition, the engine moves real tuples: it
computes per-(source, destination) streams and materializes each
destination buffer either

- **addressed**: every tuple lands at the exact offset the histogram
  prefix sums assigned (source order preserved inside each source's
  slice), whatever order the network delivered it in, or
- **permutable**: tuples land at the destination's sequential tail in
  the arrival order the network interleave model produces.

Both produce the same *multiset* per destination -- the permutability
guarantee -- but different orders and radically different DRAM write
patterns.  The engine keeps the (source, destination) histogram and
drives the :class:`ShuffleBarrier` handshake from it through
:func:`replay_faults`, the one fault replay, which can also price a
schedule onto a finished fault-free run.  :func:`arrival_slots` maps
every arrival to its addressed slot from those counts and the interleave
model; the permutable path reorders by it, and :func:`write_traces`
derives each destination's arrival trace (vault-relative addresses)
from it, so the event-accurate DRAM model can replay the traffic.

The whole relation is routed in one pass: one histogram ``bincount``
over the per-row ``(source, destination)`` codes, one grouping sort
(:func:`~repro.columnar.kernels.stable_argsort`, a value sort of the
codes packed with their row index) and one gather into a single output
buffer.  Per-destination relations are sliced from that buffer only
when a caller asks for them.
:func:`repro.operators.reference.reference_shuffle` keeps the seed's
per-source, per-tuple loop, which the equivalence matrix pins this
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.analytics.tuples import TUPLE_B, TUPLE_DTYPE, Relation
from repro.columnar.kernels import stable_argsort
from repro.columnar.soa import SegmentedColumns
from repro.faults.plan import FaultPlan, FaultSpec
from repro.faults.protocol import DeliverySession, ResilienceStats
from repro.memctrl.permutable import ShuffleBarrier
from repro.shuffle.interleave import (
    ArrivalOrder,
    round_robin_interleave,
    stream_starts,
)
from repro.telemetry import span as _span


def shuffle_begin(
    hist: np.ndarray, faults: Optional[FaultSpec], fault_salt: int
) -> Tuple[ShuffleBarrier, Optional[DeliverySession]]:
    """Exchange the (source, destination) tuple counts and seal the barrier.

    Returns the sealed barrier plus a delivery session replaying the
    fault schedule, or ``None`` when no schedule is active.
    """
    num_src, num_dest = hist.shape
    sizes_b = hist * TUPLE_B
    session = None
    if faults is not None and faults.active:
        plan = FaultPlan.build(faults, num_src, num_dest, salt=fault_salt)
        session = DeliverySession(plan, sizes_b)
    barrier = ShuffleBarrier(max(num_dest, num_src))
    barrier.announce_all(sizes_b)
    barrier.seal()
    return barrier, session


def shuffle_end(
    barrier: ShuffleBarrier,
    session: Optional[DeliverySession],
    dest_totals: np.ndarray,
) -> Optional[ResilienceStats]:
    """Retire every destination's inbound traffic and close the barrier.

    A fault-free shuffle retires all destinations in one bulk delivery;
    under a fault schedule the session does, replaying the disrupted
    destinations' streams with bounded retries.  Returns the session's
    stats.
    """
    if session is None:
        barrier.deliver_all(dest_totals * TUPLE_B)
    else:
        session.deliver(barrier)
        session.finalize()
    if not barrier.all_complete():
        raise RuntimeError("shuffle barrier incomplete after all deliveries")
    return session.stats if session is not None else None


def replay_faults(
    histogram: np.ndarray, faults: Optional[FaultSpec], fault_salt: int
) -> Tuple[ShuffleBarrier, Optional[ResilienceStats]]:
    """Run one shuffle's barrier protocol from its ``(source,
    destination)`` tuple counts: :func:`shuffle_begin`, then
    :func:`shuffle_end`.

    Returns the completed barrier and the fault schedule's stats
    (``None`` when no schedule is active).  The schedule and every byte
    the protocol pays depend on the counts alone, never on tuple
    contents, so this prices a schedule onto a fault-free run after the
    fact exactly as the shuffle would have paid it inline.
    """
    barrier, session = shuffle_begin(histogram, faults, fault_salt)
    return barrier, shuffle_end(barrier, session, histogram.sum(axis=0))


def arrival_slots(
    hist: np.ndarray, interleave: Callable[[np.ndarray], ArrivalOrder]
) -> np.ndarray:
    """Every arrival's slot in the ``(dest, src)``-grouped tuple order.

    Arrivals are listed destination by destination, each destination's
    in the order the interleave model delivers them; the slot is the
    arrival's destination base + its source's offset in the histogram +
    its index in that source's stream (the addressed write position).
    The model answers for the whole histogram in one call.  Under the
    FIFO contract of :mod:`repro.shuffle.interleave` the arrivals of one
    ``(dest, src)`` stream fill its slots in order, so a stable
    ``(dest, src)`` grouping sort of all arrivals lists them slot by
    slot.  Round-robin needs no model call: it drains rounds in source
    order, so the grouped order's own ``(dest, idx, src)`` sort -- one
    composite grouping sort -- lists every slot in arrival order.
    """
    num_src, num_dest = hist.shape
    if interleave is round_robin_interleave:
        # Stream (dest, src)'s element idx sits at grouped position
        # start + idx and sorts by the code (dest * max_stream + idx) *
        # num_src + src: one per-stream offset plus position * num_src.
        stream_lens = hist.T.reshape(-1)  # [dest-major][src] order
        max_stream = int(stream_lens.max()) if len(stream_lens) else 0
        stream_code = (
            np.arange(num_dest, dtype=np.int64)[:, None] * (max_stream * num_src)
            + np.arange(num_src, dtype=np.int64)
        ).reshape(-1) - stream_starts(stream_lens) * num_src
        code = np.repeat(stream_code, stream_lens)
        code += np.arange(len(code), dtype=np.int64) * num_src
        return stable_argsort(code)
    dest_ids = np.repeat(np.arange(num_dest, dtype=np.int64), hist.sum(axis=0))
    arrival_src = interleave(hist)
    by_stream = stable_argsort(dest_ids * num_src + arrival_src)
    slots = np.empty(len(by_stream), dtype=np.int64)
    slots[by_stream] = np.arange(len(by_stream), dtype=np.int64)
    return slots


def write_traces(
    histogram: np.ndarray,
    permutable: bool,
    interleave: Callable[[np.ndarray], ArrivalOrder],
) -> List[np.ndarray]:
    """Per destination: vault-relative byte address of each write, in
    arrival order (replayable on the event DRAM model).

    Needs only the ``(source, destination)`` tuple counts: a permutable
    controller appends every arrival at its sequential tail, and an
    addressed one writes each arrival to its :func:`arrival_slots` slot.
    """
    hist = np.asarray(histogram, dtype=np.int64)
    dest_totals = hist.sum(axis=0)
    if permutable:
        return [np.arange(int(t), dtype=np.int64) * TUPLE_B for t in dest_totals]
    dest_base = stream_starts(dest_totals)
    addresses = arrival_slots(hist, interleave) - np.repeat(dest_base, dest_totals)
    addresses *= TUPLE_B
    return np.split(addresses, dest_base[1:])


def destination_name(dest: int) -> str:
    """Name of destination partition ``dest``'s relation."""
    return f"shuffle_dest/{dest}"


@dataclass
class ShuffleResult:
    """Everything the shuffle produced."""

    #: Every destination's tuples in one buffer, destination by
    #: destination; the histogram's column sums delimit them.
    buffer: np.ndarray
    #: ``(source, destination)`` tuple counts; :func:`write_traces`
    #: derives the per-destination DRAM write traces from them.
    histogram: np.ndarray
    barrier: ShuffleBarrier
    permutable: bool
    #: Retry/backoff accounting of the fault-injection protocol
    #: (:mod:`repro.faults`); ``None`` when no faults were active.
    resilience: Optional[ResilienceStats] = None

    @cached_property
    def columns(self) -> SegmentedColumns:
        """Zero-copy SoA view over the buffer (one segment per
        destination), so the probe phase can run whole-relation kernels
        without re-flattening."""
        dest_totals = self.histogram.sum(axis=0)
        bounds = np.append(stream_starts(dest_totals), len(self.buffer))
        return SegmentedColumns(
            keys=self.buffer["key"], payloads=self.buffer["payload"], segments=bounds
        )

    @cached_property
    def destinations(self) -> List[Relation]:
        """One relation per destination, each a slice of the buffer
        (built on first use: the operators read :attr:`columns`)."""
        bounds = self.columns.segments.tolist()
        return [
            Relation(self.buffer[bounds[d] : bounds[d + 1]], destination_name(d))
            for d in range(len(bounds) - 1)
        ]

    @property
    def total_tuples(self) -> int:
        return len(self.buffer)


class ShuffleEngine:
    """Move tuples between partitions with a chosen write discipline."""

    def __init__(
        self,
        num_destinations: int,
        permutable: bool = False,
        interleave: Callable[[np.ndarray], ArrivalOrder] = round_robin_interleave,
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

    def run(self, columns: SegmentedColumns, dest: np.ndarray) -> ShuffleResult:
        """Shuffle every row of ``columns`` to partition ``dest[row]``.

        Each segment of ``columns`` is one source partition.  A
        composite ``(dest, src)`` sort groups all streams at once.  That
        grouped order *is* the addressed layout; a permutable shuffle
        instead reorders it by the network's arrival order
        (:func:`arrival_slots`, all destinations in one shot).  Either
        way the destination buffers are written as two field gathers
        into one preallocated tuple array.
        """
        num_src = columns.num_segments
        num_dest = self._num_dest
        with _span(
            "shuffle",
            category="shuffle",
            sources=num_src,
            destinations=num_dest,
        ) as sp:
            total = columns.total
            if len(dest) != total:
                raise ValueError("destination map length must match relation")
            dest = np.asarray(dest, dtype=np.int64)
            if total and (int(dest.min()) < 0 or int(dest.max()) >= num_dest):
                raise ValueError("bucket ids out of range")
            src_ids = columns.segment_ids()

            # Histogram build: per-(source, destination) tuple counts.
            hist = np.bincount(
                src_ids * num_dest + dest, minlength=num_src * num_dest
            ).reshape(num_src, num_dest)
            barrier, resilience = replay_faults(
                hist, self._faults, self._fault_salt
            )
            sp.set(faulted=resilience is not None)

            # Group all (dest, src) streams at once, preserving source
            # order: a stable sort of the composite (dest, src) code
            # equals np.lexsort((src_ids, dest)) and, packed with the row
            # index, is one SIMD value sort.  Each tuple's rank in this
            # order is its addressed slot (destination base + source's
            # histogram offset + index in its stream).
            take = stable_argsort(dest * num_src + src_ids)
            if self._permutable:
                take = take[arrival_slots(hist, self._interleave)]

            # Materialize all destinations: one preallocated tuple buffer,
            # written field-wise (no structured-dtype promotion).
            out = np.empty(total, dtype=TUPLE_DTYPE)
            out["key"] = columns.keys[take]
            out["payload"] = columns.payloads[take]
            return ShuffleResult(
                buffer=out,
                histogram=hist,
                barrier=barrier,
                permutable=self._permutable,
                resilience=resilience,
            )
