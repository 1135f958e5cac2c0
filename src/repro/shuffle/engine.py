"""Functional shuffle across memory partitions.

Given per-source relations and each tuple's destination partition, the
engine moves real tuples: it computes per-(source, destination) streams,
interleaves them per the network model, and materializes each
destination buffer either

- **addressed**: every tuple lands at the exact offset the histogram
  prefix sums assigned (source order preserved inside each source's
  slice), or
- **permutable**: tuples land at the destination's sequential tail in
  arrival order, via a :class:`repro.memctrl.permutable.PermutableWriteEngine`.

Both produce the same *multiset* per destination -- the permutability
guarantee -- but different orders and radically different DRAM write
patterns.  The engine also emits per-destination arrival traces
(vault-relative addresses) so the event-accurate DRAM model can replay
the traffic, and drives the :class:`ShuffleBarrier` handshake.

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
from repro.memctrl.permutable import (
    PermutableRegionConfig,
    PermutableWriteEngine,
    ShuffleBarrier,
)
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

    Healthy destinations retire with one batched barrier update;
    destinations the fault schedule disrupted degrade to per-stream
    deliveries with bounded retries.  Returns the session's stats.
    """
    for dest, total in enumerate(dest_totals.tolist()):
        if session is not None:
            session.deliver_dest(barrier, dest)
        else:
            barrier.deliver_batch(dest, total * TUPLE_B)
    if session is not None:
        session.finalize(barrier)
    if not barrier.all_complete():
        raise RuntimeError("shuffle barrier incomplete after all deliveries")
    return session.stats if session is not None else None


@dataclass
class ShuffleResult:
    """Everything the shuffle produced."""

    destinations: List[Relation]
    #: per destination: vault-relative byte address of each write, in
    #: arrival order (replayable on the event DRAM model).
    write_traces: List[np.ndarray]
    #: per destination: number of tuples received from each source.
    inbound_histograms: List[np.ndarray]
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

        The sources become flat SoA columns, a composite ``(dest, src)``
        sort groups all streams at once, the arrival order of *all*
        destinations is computed in one shot, and the destination
        buffers are written as two field scatters into one preallocated
        tuple array.
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
            # path for realistic partition counts.
            perm = _grouping_sort(dest_all * num_src + src_ids, num_dest * num_src)
            sorted_dest = dest_all[perm]
            sorted_src = src_ids[perm]
            stream_lens = hist.T.reshape(-1)  # [dest-major][src] order
            stream_starts_flat = np.zeros(len(stream_lens), dtype=np.int64)
            np.cumsum(stream_lens[:-1], out=stream_starts_flat[1:])
            within = np.arange(total, dtype=np.int64) - np.repeat(
                stream_starts_flat, stream_lens
            )
            dest_totals = hist.sum(axis=0)
            dest_base = np.zeros(num_dest, dtype=np.int64)
            np.cumsum(dest_totals[:-1], out=dest_base[1:])
            # Per-(source, dest) write offsets (source_write_offsets, batched).
            offmat = np.zeros((num_src, num_dest), dtype=np.int64)
            if num_src > 1:
                np.cumsum(hist[:-1], axis=0, out=offmat[1:])

            # Arrival order of every destination.  Round-robin drains
            # rounds in source order, i.e. a stable sort by (idx, src) --
            # computed for all destinations as one (dest, idx, src)
            # lexsort, spelled as two stable grouping sorts (composite
            # (idx, src) code, then dest) so both take the radix path.
            # Any other interleave model runs per destination on its
            # inbound lengths.
            if self._interleave is round_robin_interleave:
                max_stream = int(stream_lens.max()) if len(stream_lens) else 0
                by_idx_src = _grouping_sort(
                    within * num_src + sorted_src, max_stream * num_src + num_src
                )
                arrival_perm = by_idx_src[
                    _grouping_sort(sorted_dest[by_idx_src], num_dest)
                ]
            else:
                pieces = []
                for dest in range(num_dest):
                    src_arr, idx_arr = self._interleave(hist[:, dest])
                    starts_d = stream_starts(hist[:, dest])
                    pieces.append(dest_base[dest] + starts_d[src_arr] + idx_arr)
                arrival_perm = (
                    np.concatenate(pieces) if pieces else np.empty(0, dtype=np.int64)
                )
            arr_src = sorted_src[arrival_perm]
            arr_dest = sorted_dest[arrival_perm]
            arr_within = within[arrival_perm]
            take = perm[arrival_perm]
            arr_offsets = offmat[arr_src, arr_dest] if total else np.empty(0, np.int64)

            # Materialize all destinations: one preallocated tuple buffer,
            # written field-wise (no structured-dtype promotion).
            out = np.empty(total, dtype=TUPLE_DTYPE)
            out_keys = out["key"]
            out_payloads = out["payload"]
            bounds = np.append(dest_base, total)
            traces: List[np.ndarray] = []
            if self._permutable:
                # Arrival order *is* the layout: one gather per column.
                out_keys[:] = cols.keys[take]
                out_payloads[:] = cols.payloads[take]
                marked_all = arr_offsets * TUPLE_B
                for dest in range(num_dest):
                    n_d = int(dest_totals[dest])
                    engine = PermutableWriteEngine(
                        PermutableRegionConfig(
                            base=0, size_b=max(1, n_d) * TUPLE_B, object_b=TUPLE_B
                        )
                    )
                    traces.append(
                        engine.write_batch(
                            count=n_d,
                            marked_addrs=marked_all[bounds[dest] : bounds[dest + 1]],
                        )
                    )
            else:
                slots = dest_base[arr_dest] + arr_offsets + arr_within
                out_keys[slots] = cols.keys[take]
                out_payloads[slots] = cols.payloads[take]
                trace_all = (arr_offsets + arr_within) * TUPLE_B
                traces = [
                    trace_all[bounds[d] : bounds[d + 1]] for d in range(num_dest)
                ]
            resilience = shuffle_end(barrier, session, dest_totals)
            return ShuffleResult(
                destinations=[
                    Relation(out[bounds[d] : bounds[d + 1]], f"shuffle_dest/{d}")
                    for d in range(num_dest)
                ],
                write_traces=traces,
                inbound_histograms=[
                    np.ascontiguousarray(hist[:, d]) for d in range(num_dest)
                ],
                barrier=barrier,
                permutable=self._permutable,
                columns=SegmentedColumns(
                    keys=out_keys, payloads=out_payloads, segments=bounds
                ),
                resilience=resilience,
            )
