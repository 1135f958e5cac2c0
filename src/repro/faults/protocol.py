"""The retry/backoff protocol that absorbs a fault schedule.

Three pieces:

- :class:`FaultTolerantShuffleBarrier`: a :class:`ShuffleBarrier` whose
  vault controllers additionally keep per-destination sequence state, so
  a duplicated delivery is *detected and discarded* (exactly-once byte
  accounting -- the over-delivery guard never fires) and a transient
  barrier-wait timeout is recorded instead of wedging the protocol.
- :class:`ResilienceStats`: the aggregate the time/energy models price
  -- re-sent bytes, backoff stalls (expressed as byte-times at shuffle
  egress bandwidth, so the existing interconnect cost model prices them
  directly), straggler critical-path stall, timeout rounds, and how many
  destinations degraded off the batched fast path.
- :class:`DeliverySession`: drives one shuffle's deliveries through a
  :class:`~repro.faults.plan.FaultPlan`.  Healthy destinations keep the
  fast path of one ``deliver`` per destination; a destination with any
  dropped or duplicated inbound stream degrades to the replay path,
  which prices each stream's bounded retries (exponential backoff,
  doubling per attempt) and duplicates as arrays over the
  ``(source, attempt)`` pairs.  The stream-by-stream scalar replay it
  must equal lives in :mod:`repro.operators.reference`.

The data plane is untouched: drops happen *before* bytes commit and
duplicates are discarded *at* the controller, so the materialized
destination buffers -- and therefore every operator's functional output
-- stay byte-identical to the fault-free run under any schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Optional, Sequence

import numpy as np

from repro.faults.plan import FaultPlan
from repro.memctrl.permutable import ShuffleBarrier
from repro.telemetry import registry as _registry
from repro.telemetry import span as _span


@dataclass
class ResilienceStats:
    """What the protocol paid to converge under one fault schedule."""

    #: delivery attempts that were dropped and re-sent.
    retries: int = 0
    #: bytes re-transmitted over the network for those retries.
    retried_b: float = 0.0
    #: duplicate deliveries the controllers detected and discarded.
    duplicates_discarded: int = 0
    #: bytes those duplicates burned on the wire.
    duplicate_b: float = 0.0
    #: backoff waits incurred (retry backoffs + timeout re-polls).
    backoff_stalls: int = 0
    #: backoff stall expressed as byte-time at shuffle egress bandwidth.
    backoff_stall_b: float = 0.0
    #: sources that straggled (with non-empty egress).
    stragglers: int = 0
    #: extra byte-time the slowest straggler held the barrier.
    straggler_stall_b: float = 0.0
    #: transient barrier-wait timeouts observed across destinations.
    timeout_rounds: int = 0
    #: destinations that fell back to the slow per-delivery path.
    degraded_destinations: int = 0
    #: goodput the shuffle moved (denominator for the shares).
    shuffle_b: float = 0.0

    def merge(self, other: "ResilienceStats") -> None:
        """Accumulate another session's stats (e.g. a join's two passes)."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    @property
    def overhead_b(self) -> float:
        """Extra wire byte-time beyond the fault-free shuffle."""
        return (
            self.retried_b
            + self.duplicate_b
            + self.backoff_stall_b
            + self.straggler_stall_b
        )

    @property
    def straggler_share(self) -> float:
        """Straggler stall as a share of the total shuffle critical path."""
        total = self.shuffle_b + self.overhead_b
        return self.straggler_stall_b / total if total > 0 else 0.0

    def to_metadata(self) -> Dict[str, float]:
        """Plain-scalar dict that survives the service codec round-trip."""
        out: Dict[str, float] = {
            f.name: float(getattr(self, f.name))
            if isinstance(getattr(self, f.name), float)
            else int(getattr(self, f.name))
            for f in fields(self)
        }
        out["overhead_b"] = float(self.overhead_b)
        out["straggler_share"] = float(self.straggler_share)
        return out


def combine_stats(*stats: Optional[ResilienceStats]) -> Optional[ResilienceStats]:
    """Merge per-shuffle stats into one; ``None`` if none were collected."""
    merged: Optional[ResilienceStats] = None
    for s in stats:
        if s is None:
            continue
        if merged is None:
            merged = ResilienceStats()
        merged.merge(s)
    return merged


class FaultTolerantShuffleBarrier(ShuffleBarrier):
    """A shuffle barrier whose controllers tolerate duplicates/timeouts.

    The base protocol is unchanged (``announce``/``announce_all``,
    ``seal``, ``deliver``, completion); on top, each vault controller
    tracks the deliveries it has already committed so a retransmitted
    copy is recognized and dropped before it corrupts the byte count,
    and transient barrier-wait timeouts are counted instead of raised.
    """

    def __init__(self, num_vaults: int) -> None:
        super().__init__(num_vaults)
        self._duplicates: list = [0] * num_vaults
        self._duplicate_b: list = [0] * num_vaults
        self._timeouts: list = [0] * num_vaults

    def discard_duplicates(self, dest: int, sizes_b: Sequence[int]) -> None:
        """Copies of already-committed deliveries arrived: drop them.

        ``sizes_b`` holds one size per copy.  The controller's sequence
        state recognizes each duplicate, so the delivered byte count is
        untouched (the over-delivery guard of the base barrier never
        fires) and only the waste is recorded.
        """
        if not self._sealed:
            raise RuntimeError("barrier must be sealed before deliveries")
        self._check_vault(dest)
        sizes = np.asarray(sizes_b, dtype=np.int64)
        if sizes.size and int(sizes.min()) < 0:
            raise ValueError("duplicate size must be non-negative")
        self._duplicates[dest] += int(sizes.size)
        self._duplicate_b[dest] += int(sizes.sum())

    def record_timeout(self, dest: int) -> None:
        """One transient barrier-wait timeout at ``dest``; the waiter
        backs off and re-polls instead of failing the shuffle."""
        self._check_vault(dest)
        self._timeouts[dest] += 1

    @property
    def duplicates_discarded(self) -> int:
        return sum(self._duplicates)

    @property
    def duplicate_bytes(self) -> int:
        return sum(self._duplicate_b)

    @property
    def timeouts(self) -> int:
        return sum(self._timeouts)


def _fold(total: float, terms: np.ndarray) -> float:
    """``total + terms[0] + terms[1] + ...``, added strictly left to right.

    ``np.add.accumulate`` is a sequential fold, so the result is the
    one a scalar ``+=`` loop produces; a pairwise or compensated sum
    (``ndarray.sum``, builtin ``sum`` on Python >= 3.12) would not be.
    """
    return float(np.add.accumulate(np.concatenate(([total], terms)))[-1])


class DeliverySession:
    """Drives one shuffle's barrier deliveries through a fault plan.

    ``sizes_b`` is the (sources, destinations) byte matrix the histogram
    exchange produced -- the same matrix ``announce_all`` posted.  The
    session decides, per destination, whether the batched fast path is
    safe (no inbound stream disrupted) or the replay path must price
    each inbound stream's retries and duplicates; the replay runs on
    arrays, one destination at a time.
    """

    def __init__(self, plan: FaultPlan, sizes_b: np.ndarray) -> None:
        self._plan = plan
        self._sizes = np.asarray(sizes_b, dtype=np.int64)
        if self._sizes.shape != (plan.num_sources, plan.num_destinations):
            raise ValueError(
                f"sizes matrix {self._sizes.shape} does not match the plan "
                f"shape ({plan.num_sources}, {plan.num_destinations})"
            )
        self._disrupted = plan.disrupted_destinations(self._sizes)
        self.stats = ResilienceStats(shuffle_b=float(self._sizes.sum()))

    @property
    def plan(self) -> FaultPlan:
        return self._plan

    def disrupted(self, dest: int) -> bool:
        """True when ``dest`` must take the slow per-delivery path."""
        return bool(self._disrupted[dest])

    def deliver_dest(self, barrier: ShuffleBarrier, dest: int) -> None:
        """Retire one destination's inbound traffic through the barrier.

        Healthy destinations retire with a single ``deliver`` of their
        whole inbound total; disrupted ones replay their streams'
        bounded retries and duplicates first.
        """
        sizes = self._sizes[:, dest]
        if not self.disrupted(dest):
            barrier.deliver(dest, int(sizes.sum()))
            return
        self._replay_streams(barrier, dest)

    def _replay_streams(self, barrier: ShuffleBarrier, dest: int) -> None:
        spec = self._plan.spec
        sizes = self._sizes[:, dest]
        self.stats.degraded_destinations += 1
        before = self.stats.retries
        with _span("fault_replay", category="faults", dest=int(dest)) as sp:
            self._replay_streams_inner(barrier, dest, spec, sizes)
            sp.set(retries=self.stats.retries - before)

    def _replay_streams_inner(self, barrier, dest, spec, sizes) -> None:
        """Every inbound stream's dropped attempts, delivery and
        duplicates, as arrays over the ``(source, attempt)`` pairs.

        Stream ``src`` loses its first ``drops`` attempts (each burns its
        bytes on the wire and waits ``backoff_base * 2**attempt`` of its
        transmission time), then lands, then any duplicate copies
        arrive.  The float accumulators fold in ``(src, attempt)``
        order, the order a stream-by-stream replay would add them in.
        """
        srcs = np.flatnonzero(sizes)
        size_b = sizes[srcs]
        drops = np.minimum(self._plan.drop_rounds[srcs, dest], spec.max_retries)
        num_drops = int(drops.sum())
        if num_drops:
            dropped_b = np.repeat(size_b, drops).astype(np.float64)
            attempt = np.arange(num_drops) - np.repeat(
                np.cumsum(drops) - drops, drops
            )
            self.stats.retries += num_drops
            self.stats.retried_b = _fold(self.stats.retried_b, dropped_b)
            self.stats.backoff_stalls += num_drops
            self.stats.backoff_stall_b = _fold(
                self.stats.backoff_stall_b,
                spec.backoff_base * 2.0 ** attempt * dropped_b,
            )
        barrier.deliver(dest, int(size_b.sum()))
        copies = np.repeat(size_b, self._plan.duplicates[srcs, dest])
        if copies.size:
            self.stats.duplicates_discarded += int(copies.size)
            self.stats.duplicate_b = _fold(self.stats.duplicate_b, copies)
            if isinstance(barrier, FaultTolerantShuffleBarrier):
                barrier.discard_duplicates(dest, copies)

    def finalize(self, barrier: ShuffleBarrier) -> ResilienceStats:
        """Post-delivery accounting: timeouts and straggler stall.

        A destination with inbound traffic whose barrier wait times out
        re-polls after a backoff priced like a retry of its whole
        inbound total; the straggler critical path is the slowest
        source's extra egress time (the barrier waits for the last
        delivery, so only the maximum matters).
        """
        spec = self._plan.spec
        dest_totals = self._sizes.sum(axis=0)
        with _span("fault_finalize", category="faults"):
            self._finalize_inner(barrier, spec, dest_totals)
        self._publish_metrics()
        return self.stats

    def _finalize_inner(self, barrier, spec, dest_totals) -> None:
        for dest in np.flatnonzero(self._plan.timeout_rounds):
            if dest_totals[dest] <= 0:
                continue
            rounds = int(self._plan.timeout_rounds[dest])
            for attempt in range(rounds):
                self.stats.timeout_rounds += 1
                self.stats.backoff_stalls += 1
                self.stats.backoff_stall_b += (
                    spec.backoff_base * (2.0 ** attempt) * float(dest_totals[dest])
                )
                if isinstance(barrier, FaultTolerantShuffleBarrier):
                    barrier.record_timeout(int(dest))
        egress = self._sizes.sum(axis=1).astype(np.float64)
        extra = (self._plan.straggler_factor - 1.0) * egress
        straggling = (self._plan.straggler_factor > 1.0) & (egress > 0)
        self.stats.stragglers += int(np.count_nonzero(straggling))
        if extra.size:
            self.stats.straggler_stall_b += float(extra.max())

    def _publish_metrics(self) -> None:
        """Mirror this session's totals into the telemetry registry."""
        reg = _registry()
        reg.counter("faults.sessions").inc()
        reg.counter("faults.retries").inc(self.stats.retries)
        reg.counter("faults.backoff_stalls").inc(self.stats.backoff_stalls)
        reg.counter("faults.duplicates_discarded").inc(
            self.stats.duplicates_discarded
        )
        reg.counter("faults.timeout_rounds").inc(self.stats.timeout_rounds)
        reg.counter("faults.stragglers").inc(self.stats.stragglers)
        reg.counter("faults.degraded_destinations").inc(
            self.stats.degraded_destinations
        )
        reg.histogram("faults.overhead_b").observe(self.stats.overhead_b)
